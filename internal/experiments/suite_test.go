package experiments

import (
	"context"
	"slices"
	"strings"
	"sync"
	"testing"
)

// Batch-layer tests share one suite computation (suiteShared) and use
// reduced budgets under -short so `go test -short ./...` stays in the
// seconds range even on one core; the full run uses a larger budget
// and one more benchmark.

func suiteBench() []string {
	if testing.Short() {
		return []string{"facerec", "gzip"}
	}
	return []string{"ammp", "facerec", "gzip"}
}

// suiteInsts is deliberately small in both modes: these tests assert
// engine plumbing (exactly-once execution, byte-identity, worker
// determinism), which is budget-independent; fidelity lives in the
// figure-shape tests.
func suiteInsts() uint64 {
	if testing.Short() {
		return 12_000
	}
	return 20_000
}

var (
	suiteOnce   sync.Once
	suiteBatch  *Batch
	suiteResult SuiteResult
)

// suiteShared computes the full figure suite through one shared batch,
// once per test binary.
func suiteShared() (*Batch, SuiteResult) {
	suiteOnce.Do(func() {
		suiteBatch = NewBatch(0)
		suiteResult = suiteBatch.Suite(suiteBench(), suiteInsts())
	})
	return suiteBatch, suiteResult
}

// TestSuiteRunsEachSpecOnce is the cache-hit accounting test for the
// tentpole: the full figure suite through one shared batch executes
// each distinct RunSpec exactly once, and re-running any harness on
// the same batch executes nothing new.
func TestSuiteRunsEachSpecOnce(t *testing.T) {
	b, res := suiteShared()

	st := res.Runs
	if st.Executed != int64(b.DistinctRuns()) {
		t.Errorf("executed %d simulations for %d distinct specs", st.Executed, b.DistinctRuns())
	}
	if st.Hits+st.Executed != st.Requests {
		t.Errorf("accounting leak: %d hits + %d executed != %d requests", st.Hits, st.Executed, st.Requests)
	}
	if st.Hits == 0 {
		t.Error("no cross-harness reuse in the full suite; Figures 5/6 and 7-12 share every run")
	}

	// The suite's distinct-spec count is enumerable: Figure 1 needs
	// 8 geometries x 2 in-flight caps + 1 unbounded run per benchmark;
	// Figure 3 needs 3 unbounded-shared geometries; Figure 4 sweeps 16
	// SharedLSQ sizes, one of which (8 entries) IS the paper-config
	// SAMIE run; Figures 5/6 need the conventional/SAMIE pair; the
	// energy figures reuse that same pair entirely.
	wantDistinct := int64(len(suiteBench()) * (8*2 + 1 + 3 + 16 - 1 + 2))
	if st.Executed != wantDistinct {
		t.Errorf("executed %d distinct simulations, want %d", st.Executed, wantDistinct)
	}

	// Replaying two harnesses on the same batch must be pure cache.
	before := b.Stats().Executed
	_ = b.Figure56(suiteBench(), suiteInsts())
	_ = b.Energy(suiteBench(), suiteInsts())
	if after := b.Stats().Executed; after != before {
		t.Errorf("replay executed %d new simulations, want 0", after-before)
	}
}

// TestSuiteMatchesStandaloneHarnesses asserts the shared batch is
// invisible in the output: every figure produced by the suite renders
// byte-identically to the standalone harness at the same budget.
func TestSuiteMatchesStandaloneHarnesses(t *testing.T) {
	_, res := suiteShared()
	benchmarks, insts := suiteBench(), suiteInsts()
	for _, cmp := range []struct {
		name       string
		suite, own string
	}{
		{"Figure1", res.Figure1.String(), NewBatch(0).Figure1(benchmarks, insts).String()},
		{"Figure3", res.Figure3.String(), NewBatch(0).Figure3(benchmarks, insts).String()},
		{"Figure4", res.Figure4.String(), NewBatch(0).Figure4(benchmarks, insts, nil).String()},
		{"Figure56", res.Figure56.String(), NewBatch(0).Figure56(benchmarks, insts).String()},
		{"Energy", res.Energy.String(), NewBatch(0).Energy(benchmarks, insts).String()},
	} {
		if cmp.suite != cmp.own {
			t.Errorf("%s: suite output differs from standalone harness\nsuite:\n%s\nstandalone:\n%s",
				cmp.name, cmp.suite, cmp.own)
		}
	}
	if !strings.Contains(res.String(), "Shared batch:") {
		t.Error("suite rendering lost the run accounting")
	}
}

// TestBatchDeterministicAcrossWorkers asserts results are a pure
// function of the specs: 1 worker and N workers produce byte-identical
// figures.
func TestBatchDeterministicAcrossWorkers(t *testing.T) {
	benchmarks, insts := suiteBench()[:2], suiteInsts()
	serial := NewBatch(1).Figure56(benchmarks, insts)
	wide := NewBatch(8).Figure56(benchmarks, insts)
	if serial.String() != wide.String() {
		t.Errorf("worker count changed results\n1 worker:\n%s\n8 workers:\n%s", serial, wide)
	}
}

// TestKeyCanonicalization asserts default-filled and explicit specs
// collide, and materially different specs do not.
func TestKeyCanonicalization(t *testing.T) {
	base := RunSpec{Benchmark: "swim", Model: ModelConventional}
	same := []RunSpec{
		{Benchmark: "swim", Model: ModelConventional, ConvEntries: 128},
		{Benchmark: "swim", Model: ModelConventional, Insts: DefaultInsts},
		{Benchmark: "swim", Model: ModelConventional, Insts: DefaultInsts, Warmup: DefaultInsts / 2},
		// ARB fields are dead for a conventional run.
		{Benchmark: "swim", Model: ModelConventional, ARBBanks: 64, ARBAddrs: 2},
	}
	for i, s := range same {
		if Key(s) != Key(base) {
			t.Errorf("spec %d should share the base key\n got %s\nwant %s", i, Key(s), Key(base))
		}
	}
	diff := []RunSpec{
		{Benchmark: "gzip", Model: ModelConventional},
		{Benchmark: "swim", Model: ModelSAMIE},
		{Benchmark: "swim", Model: ModelConventional, ConvEntries: 16},
		{Benchmark: "swim", Model: ModelConventional, Insts: DefaultInsts + 1},
		{Benchmark: "swim", Model: ModelConventional, Warmup: 1},
	}
	for i, s := range diff {
		if Key(s) == Key(base) {
			t.Errorf("spec %d must not share the base key %s", i, Key(base))
		}
	}
}

// TestBatchSharesAcrossSpellings asserts the batch serves a
// default-spelled spec from a run requested with explicit defaults.
func TestBatchSharesAcrossSpellings(t *testing.T) {
	b := NewBatch(2)
	insts := uint64(16_000)
	r1 := b.Run(RunSpec{Benchmark: "gzip", Insts: insts, Model: ModelConventional})
	r2 := b.Run(RunSpec{Benchmark: "gzip", Insts: insts, Model: ModelConventional, ConvEntries: 128})
	if st := b.Stats(); st.Executed != 1 || st.Hits != 1 {
		t.Fatalf("stats %+v, want one execution and one hit", st)
	}
	if r1.CPU != r2.CPU {
		t.Error("cache returned different results for equivalent specs")
	}
}

// TestScenarioRegistry exercises the registry surface and one sweep
// end to end.
func TestScenarioRegistry(t *testing.T) {
	names := ScenarioNames()
	if len(names) < 8 {
		t.Fatalf("only %d built-in scenarios: %v", len(names), names)
	}
	for _, want := range []string{"models", "shared-lsq-sizes", "distrib-banking", "ablations"} {
		if f, ok := LookupFigure(want); !ok || f.Scenario == nil || f.Scenario.Name != want {
			t.Errorf("built-in scenario %q missing from the figure table", want)
		}
		if slices.Contains(FigureNames(), want) {
			t.Errorf("scenario %q counted among the paper's figures", want)
		}
	}
	for _, name := range []string{"no-such-sweep", "energy"} {
		if _, err := NewBatch(0).Scenario(context.Background(), name, suiteBench(), 1000); err == nil {
			t.Errorf("non-scenario %q did not error", name)
		}
	}
	// Scenario names share the table's namespace with the paper rows.
	for _, name := range []string{"1", "energy", "models"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("registering a scenario named %q did not panic", name)
				}
			}()
			RegisterScenario(Scenario{Name: name, Variants: []Variant{{Name: "v", Spec: func(b string, i uint64) RunSpec {
				return RunSpec{Benchmark: b, Insts: i}
			}}}})
		}()
	}

	benchmarks, insts := suiteBench()[:2], suiteInsts()
	b := NewBatch(0)
	res, err := b.Scenario(context.Background(), "distrib-banking", benchmarks, insts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IPC) != 2 || len(res.IPC[0]) != 3 {
		t.Fatalf("sweep shape %dx%d, want 2x3", len(res.IPC), len(res.IPC[0]))
	}
	for bi := range res.IPC {
		for vi, ipc := range res.IPC[bi] {
			if ipc <= 0.1 || ipc > 8 {
				t.Errorf("%s/%s IPC %.3f out of sane range", res.Benchmarks[bi], res.Variants[vi], ipc)
			}
			if res.EnergyNJ[bi][vi] <= 0 {
				t.Errorf("%s/%s consumed no LSQ energy", res.Benchmarks[bi], res.Variants[vi])
			}
		}
	}
	if gm := res.GeoMeanIPC(); len(gm) != 3 || gm[0] <= 0 {
		t.Errorf("geomean row broken: %v", gm)
	}
	if s := res.String(); !strings.Contains(s, "geomean") || !strings.Contains(s, "64x2") {
		t.Error("scenario rendering broken")
	}

	// The 64x2 variant is the paper config: a later paper-config run on
	// the same batch must be a cache hit.
	before := b.Stats().Executed
	b.Run(RunSpec{Benchmark: benchmarks[0], Insts: insts, Model: ModelSAMIE})
	if after := b.Stats().Executed; after != before {
		t.Error("scenario variant did not share the paper-config run")
	}
}
