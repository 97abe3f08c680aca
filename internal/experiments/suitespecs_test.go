package experiments

import (
	"context"
	"testing"
)

const specTestInsts = 4_000

// TestSuiteSpecsCoverSuite pins the shard-planning contract: a batch
// that has already run every planned spec must render without
// executing anything new — the whole suite from SuiteSpecs, and each
// figure-table row from its own spec set. If a figure harness grows a
// sweep point its row does not enumerate, this fails — before the
// drift silently bypasses the cluster fabric (pkg/cluster asserts the
// same invariant at reassembly time).
func TestSuiteSpecsCoverSuite(t *testing.T) {
	benchmarks := []string{"gzip"}
	type input struct {
		name   string
		specs  []RunSpec
		render func(*Batch) error
	}
	inputs := []input{{"suite", SuiteSpecs(benchmarks, specTestInsts), func(b *Batch) error {
		b.Suite(benchmarks, specTestInsts)
		return nil
	}}}
	for _, f := range Figures() {
		inputs = append(inputs, input{"figure " + f.Name, FigureSpecs([]Figure{f}, benchmarks, specTestInsts), func(b *Batch) error {
			_, err := f.Run(context.Background(), b, benchmarks, specTestInsts)
			return err
		}})
	}
	// 37 distinct specs per benchmark: 16 ARB + 1 unbounded + 3
	// shared-unbounded + 16 Figure-4 sizes (one of them the paper
	// config shared with Figures 5/6) + the conventional model.
	if got, want := len(inputs[0].specs), 37*len(benchmarks); got != want {
		t.Fatalf("SuiteSpecs enumerates %d specs, want %d", got, want)
	}
	// Each input renders from a fresh batch holding exactly its own
	// plan, so a spec the plan missed would execute.
	for _, in := range inputs {
		b := NewBatch(0)
		seen := map[string]bool{}
		for _, s := range in.specs {
			key := Key(s)
			if seen[key] {
				t.Fatalf("%s: duplicate key in the plan: %s", in.name, key)
			}
			seen[key] = true
			b.Run(s)
		}
		planned := int64(len(in.specs))
		if ex := b.Stats().Executed; ex != planned {
			t.Fatalf("%s: pre-running the plan executed %d, want %d", in.name, ex, planned)
		}
		if err := in.render(b); err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		if ex := b.Stats().Executed; ex != planned {
			t.Errorf("%s: rendering needed %d simulations the plan missed", in.name, ex-planned)
		}
	}
}

// TestScenarioSpecsCoverScenario is the same contract for registered
// sweeps, including the scenario's own default benchmark rows.
func TestScenarioSpecsCoverScenario(t *testing.T) {
	for _, name := range ScenarioNames() {
		specs, rows, err := ScenarioSpecs(name, []string{"gzip"}, specTestInsts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rows) != 1 || rows[0] != "gzip" {
			t.Fatalf("%s: explicit benchmarks not honored: %v", name, rows)
		}
		b := NewBatch(0)
		for _, s := range specs {
			b.Run(s)
		}
		planned := b.Stats().Executed
		if _, err := b.Scenario(context.Background(), name, rows, specTestInsts, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ex := b.Stats().Executed; ex != planned {
			t.Errorf("%s: sweep needed %d simulations the plan missed", name, ex-planned)
		}
	}

	// Default rows resolve from the scenario registration.
	_, rows, err := ScenarioSpecs("adversarial", nil, specTestInsts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0] != "pointer-chaser" || rows[1] != "store-burst" {
		t.Errorf("adversarial default rows = %v", rows)
	}
	if _, _, err := ScenarioSpecs("no-such-sweep", nil, specTestInsts); err == nil {
		t.Error("unknown scenario accepted")
	}
}
