package experiments

import (
	"context"
	"testing"
)

const specTestInsts = 4_000

// TestSuiteSpecsCoverSuite pins the shard-planning contract: a batch
// that has already run every SuiteSpecs spec must render the whole
// suite without executing anything new. If a figure harness grows a
// sweep point that SuiteSpecs does not enumerate, this fails — before
// the drift silently bypasses the cluster fabric (pkg/cluster asserts
// the same invariant at reassembly time).
func TestSuiteSpecsCoverSuite(t *testing.T) {
	benchmarks := []string{"gzip"}
	specs := SuiteSpecs(benchmarks, specTestInsts)
	// 37 distinct specs per benchmark: 16 ARB + 1 unbounded + 3
	// shared-unbounded + 16 Figure-4 sizes (one of them the paper
	// config shared with Figures 5/6) + the conventional model.
	if want := 37 * len(benchmarks); len(specs) != want {
		t.Fatalf("SuiteSpecs enumerates %d specs, want %d", len(specs), want)
	}
	seen := map[string]bool{}
	b := NewBatch(0)
	for _, s := range specs {
		key := Key(s)
		if seen[key] {
			t.Fatalf("duplicate key in SuiteSpecs: %s", key)
		}
		seen[key] = true
		b.Run(s)
	}
	if ex := b.Stats().Executed; ex != int64(len(specs)) {
		t.Fatalf("pre-running the plan executed %d, want %d", ex, len(specs))
	}
	b.Suite(benchmarks, specTestInsts)
	if ex := b.Stats().Executed; ex != int64(len(specs)) {
		t.Errorf("suite needed %d simulations the plan missed", ex-int64(len(specs)))
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
