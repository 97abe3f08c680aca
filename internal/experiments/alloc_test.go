package experiments

import (
	"runtime"
	"testing"
)

// setupSpecs is one spec per LSQ model, each simulating a single
// instruction: what such a run costs is what building the simulation
// costs.
var setupSpecs = []struct {
	name string
	spec RunSpec
}{
	{"samie", RunSpec{Benchmark: "gzip", Insts: 1, Model: ModelSAMIE}},
	{"conventional", RunSpec{Benchmark: "gzip", Insts: 1, Model: ModelConventional}},
	{"arb", RunSpec{Benchmark: "gzip", Insts: 1, Model: ModelARB, ARBBanks: 64, ARBAddrs: 2, ARBInflight: 128}},
	{"unbounded", RunSpec{Benchmark: "gzip", Insts: 1, Model: ModelUnbounded}},
}

// TestRunSetupAllocs bounds the allocations of building one
// simulation. The caches, the BTB and the SAMIE entry slots are flat
// arrays and the interval sampler allocates its buffer only when it
// records a sample, so set-up costs a few dozen allocations, not one
// per cache set.
func TestRunSetupAllocs(t *testing.T) {
	for _, c := range setupSpecs {
		t.Run(c.name, func(t *testing.T) {
			Run(c.spec) // warm the shared trace slab
			n := testing.AllocsPerRun(5, func() { Run(c.spec) })
			t.Logf("%.0f allocations", n)
			if n > 100 {
				t.Errorf("one-instruction %s run made %.0f allocations, want <= 100", c.name, n)
			}
		})
	}
}

// TestMemoRetainsOnlyResults bounds what a batch keeps per memoized
// result: the result itself, not the simulator that produced it (the
// memory hierarchy, predictor and LSQ model die with the run).
func TestMemoRetainsOnlyResults(t *testing.T) {
	const runs = 40
	benches := []string{"gzip", "swim"}
	spec := func(i int) RunSpec {
		s := setupSpecs[i%len(setupSpecs)].spec
		s.Benchmark = benches[i/len(setupSpecs)%len(benches)]
		s.Insts = 2000 + uint64(i)
		return s
	}
	// Warm the shared trace slabs past every run's length, so slab
	// growth is not counted against the memo.
	for _, b := range benches {
		Run(RunSpec{Benchmark: b, Insts: 2 * (2000 + runs), Model: ModelUnbounded})
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	batch := NewBatch(1)
	before := heap()
	for i := 0; i < runs; i++ {
		batch.Run(spec(i))
	}
	after := heap()
	runtime.KeepAlive(batch)
	if st := batch.Stats(); st.Executed != runs {
		t.Fatalf("executed %d simulations, want %d distinct", st.Executed, runs)
	}
	per := (int64(after) - int64(before)) / runs
	t.Logf("%d B of heap per memoized result", per)
	if per > 16<<10 {
		t.Errorf("each memoized result keeps %d B of heap, want <= 16 KB", per)
	}
}
