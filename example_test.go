package samielsq_test

import (
	"context"
	"fmt"

	"samielsq"
)

// Compare the SAMIE-LSQ against the paper's conventional 128-entry LSQ
// on one workload and print the headline numbers the paper reports
// (IPC loss, LSQ/Dcache/DTLB energy savings).
func ExampleCompare() {
	res := samielsq.Compare("swim", 20_000)

	fmt.Printf("benchmark: %s\n", res.Benchmark)
	fmt.Printf("conventional LSQ: IPC %.3f\n", res.Conventional.IPC)
	fmt.Printf("SAMIE-LSQ:        IPC %.3f (loss %.2f%%; paper average 0.6%%)\n",
		res.SAMIE.IPC, res.IPCLossPct)
	fmt.Printf("LSQ dynamic energy saving:    %.1f%% (paper average 82%%)\n", res.LSQSavingPct)
	fmt.Printf("L1 Dcache energy saving:      %.1f%% (paper average 42%%)\n", res.DcacheSavingPct)
	fmt.Printf("DTLB energy saving:           %.1f%% (paper average 73%%)\n", res.DTLBSavingPct)
	fmt.Printf("deadlock-avoidance flushes:   %d\n", res.SAMIE.DeadlockFlushes)
	fmt.Printf("way-known Dcache accesses:    %d\n", res.SAMIEDetail.WayKnownHits)
	fmt.Printf("DTLB lookups avoided:         %d\n", res.SAMIEDetail.TLBReuses)
	// Output:
	// benchmark: swim
	// conventional LSQ: IPC 1.127
	// SAMIE-LSQ:        IPC 1.127 (loss 0.00%; paper average 0.6%)
	// LSQ dynamic energy saving:    76.4% (paper average 82%)
	// L1 Dcache energy saving:      50.8% (paper average 42%)
	// DTLB energy saving:           72.9% (paper average 73%)
	// deadlock-avoidance flushes:   0
	// way-known Dcache accesses:    5231
	// DTLB lookups avoided:         5459
}

// One batch serves a figure harness, CompareIn and a scenario sweep;
// the run-cache accounting shows the reuse.
func ExampleCompareIn() {
	benchmarks := []string{"swim", "gzip"}
	const insts = 20_000

	b := samielsq.NewBatch(0)
	fmt.Println(b.Figure56(benchmarks, insts))

	// CompareIn reuses the pair of runs Figure56 already simulated.
	r := samielsq.CompareIn(b, "swim", insts)
	fmt.Printf("swim via CompareIn: IPC %.3f -> %.3f, LSQ saving %.0f%%\n",
		r.Conventional.IPC, r.SAMIE.IPC, r.LSQSavingPct)

	sweep, err := b.Scenario(context.Background(), "shared-lsq-sizes", benchmarks, insts)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(sweep)

	st := b.Stats()
	fmt.Printf("batch: %d executed, %d of %d requests from cache (%.0f%% reuse)\n",
		st.Executed, st.Hits, st.Requests, 100*st.HitRate())
	// Output:
	// Figures 5 and 6: SAMIE-LSQ IPC loss and deadlock flushes
	// benchmark  conv IPC  SAMIE IPC  %IPC loss  deadlocks/Mcycle
	// ---------  --------  ---------  ---------  ----------------
	// swim       1.127     1.127      +0.00%     0
	// gzip       0.9369    0.9369     +0.00%     0
	// SPEC mean IPC loss: 0.00% (paper: 0.6%)
	//
	// swim via CompareIn: IPC 1.127 -> 1.127, LSQ saving 76%
	// Scenario shared-lsq-sizes: IPC per variant (20000 instructions)
	// benchmark  shared-0  shared-4  shared-8  shared-16  shared-32
	// ---------  --------  --------  --------  ---------  ---------
	// swim       1.026     1.114     1.127     1.127      1.127
	// gzip       0.9038    0.9369    0.9369    0.9369     0.9369
	// geomean    0.9629    1.022     1.028     1.028      1.028
	// LSQ dynamic energy (nJ) per variant
	// benchmark  shared-0  shared-4  shared-8  shared-16  shared-32
	// ---------  --------  --------  --------  ---------  ---------
	// swim       1859.3    2131.2    2135.0    2135.0     2135.0
	// gzip       1074.8    1145.9    1147.9    1147.9     1147.9
	//
	// batch: 12 executed, 8 of 20 requests from cache (40% reuse)
}
