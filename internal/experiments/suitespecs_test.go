package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"
)

const specTestInsts = 4_000

// planInput is one shardable plan and the render that must run
// entirely from it.
type planInput struct {
	name   string
	specs  []RunSpec
	render func(*Batch) error
}

// rowInput plans one figure-table row, paper figure or scenario, with
// FigureSpecs over that row alone and renders it through the table.
func rowInput(t *testing.T, name string, benchmarks []string) planInput {
	t.Helper()
	f, ok := LookupFigure(name)
	if !ok {
		t.Fatalf("row %q missing from the table", name)
	}
	return planInput{fmt.Sprintf("row %s over %v", f.Name, benchmarks),
		FigureSpecs([]Figure{f}, benchmarks, specTestInsts), func(b *Batch) error {
			_, err := f.Run(context.Background(), b, f.ResolveBenchmarks(benchmarks), specTestInsts)
			return err
		}}
}

// assertPlansCover renders each input from a fresh batch holding
// exactly its own plan, so a spec the plan missed would execute.
func assertPlansCover(t *testing.T, inputs []planInput) {
	t.Helper()
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

// TestSuiteSpecsCoverSuite pins the shard-planning contract: a batch
// that has already run every planned spec must render without
// executing anything new — the whole suite from SuiteSpecs, and each
// paper figure's row from FigureSpecs over that row alone. If a figure
// harness grows a sweep point its row does not enumerate, this fails —
// before the drift silently bypasses the cluster fabric (pkg/cluster
// asserts the same invariant at reassembly time).
func TestSuiteSpecsCoverSuite(t *testing.T) {
	benchmarks := []string{"gzip"}
	inputs := []planInput{{"suite", SuiteSpecs(benchmarks, specTestInsts), func(b *Batch) error {
		b.Suite(benchmarks, specTestInsts)
		return nil
	}}}
	for _, name := range FigureNames() {
		inputs = append(inputs, rowInput(t, name, benchmarks))
	}
	// 37 distinct specs per benchmark: 16 ARB + 1 unbounded + 3
	// shared-unbounded + 16 Figure-4 sizes (one of them the paper
	// config shared with Figures 5/6) + the conventional model.
	if got, want := len(inputs[0].specs), 37*len(benchmarks); got != want {
		t.Fatalf("SuiteSpecs enumerates %d specs, want %d", got, want)
	}
	assertPlansCover(t, inputs)
}

// TestSuiteKeySpace pins the suite's key space over the golden
// benchmarks: the same 148 keys, in the same order, at the serve-zipf
// budget (2000) and the golden budget. The serve-zipf benchmark
// workload builds its traffic from exactly this list, so a paper row
// that adds or reorders a suite spec changes what the benchmark
// measures. The digest is SHA-256 over the keys, one per line.
func TestSuiteKeySpace(t *testing.T) {
	for _, c := range []struct {
		insts  uint64
		digest string
	}{
		{2_000, "25555769ea2652f02788d1218366ffe32d12ddb3e237af3530832ffcb4432083"},
		{goldenInsts, "229447f35e387069e1bfa7a2216061dcd3eb2e9eb428f0c80bdd7dbc6953dde5"},
	} {
		specs := SuiteSpecs(goldenBenchmarks, c.insts)
		h := sha256.New()
		for _, s := range specs {
			fmt.Fprintln(h, Key(s))
		}
		if got := hex.EncodeToString(h.Sum(nil)); len(specs) != 148 || got != c.digest {
			t.Errorf("SuiteSpecs(%v, %d): %d keys with digest %s, want 148 with %s",
				goldenBenchmarks, c.insts, len(specs), got, c.digest)
		}
	}
}

// TestScenarioSpecsCoverScenario is the same contract for registered
// sweeps, which are figure-table rows too: each over an explicit
// benchmark, then the adversarial row over nil so its own default rows
// resolve.
func TestScenarioSpecsCoverScenario(t *testing.T) {
	var inputs []planInput
	for _, name := range ScenarioNames() {
		inputs = append(inputs, rowInput(t, name, []string{"gzip"}))
	}
	inputs = append(inputs, rowInput(t, "adversarial", nil))
	assertPlansCover(t, inputs)

	// ScenarioSpecs is the scenario row's plan, benchmark-major: the
	// serve-zipf workload replays scenario sweeps in this order.
	specs, resolved, err := ScenarioSpecs("distrib-banking", []string{"gzip", "swim"}, specTestInsts)
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	for _, s := range specs {
		order = append(order, s.Benchmark)
	}
	if want := []string{"gzip", "gzip", "gzip", "swim", "swim", "swim"}; !slices.Equal(order, want) || !slices.Equal(resolved, []string{"gzip", "swim"}) {
		t.Errorf("ScenarioSpecs order %v over %v, want benchmark-major %v", order, resolved, want)
	}
	if _, resolved, _ := ScenarioSpecs("adversarial", nil, specTestInsts); !slices.Equal(resolved, []string{"pointer-chaser", "store-burst"}) {
		t.Errorf("adversarial default rows = %v", resolved)
	}
	for _, name := range []string{"no-such-sweep", "56"} {
		if _, _, err := ScenarioSpecs(name, nil, specTestInsts); err == nil {
			t.Errorf("ScenarioSpecs accepted the non-scenario %q", name)
		}
	}
}
