// Command samie-sim runs one benchmark under a chosen LSQ model and
// prints the simulation summary: IPC, stall breakdown, LSQ statistics
// and the dynamic energy per structure.
//
// Usage:
//
//	samie-sim -bench swim                      # SAMIE-LSQ, paper config
//	samie-sim -bench ammp -model conventional  # 128-entry conventional LSQ
//	samie-sim -bench gcc -model arb -banks 64 -addrs 2
//	samie-sim -bench swim -banks 32 -entries 4 -slots 8 -shared 16
package main

import (
	"flag"
	"fmt"
	"os"

	"samielsq/internal/core"
	"samielsq/internal/experiments"
)

func main() {
	bench := flag.String("bench", "swim", "benchmark name (see -list)")
	kind := experiments.ModelSAMIE
	flag.TextVar(&kind, "model", kind, "LSQ model `name`: conventional, unbounded, arb or samie")
	insts := flag.Uint64("insts", experiments.DefaultInsts, "measured instructions")
	warmup := flag.Uint64("warmup", 0, "warm-up instructions (default insts/2)")
	list := flag.Bool("list", false, "list benchmarks and exit")
	showKey := flag.Bool("key", false, "print the spec's canonical engine cache key")
	cachedir := flag.String("cachedir", "auto", `on-disk run cache directory ("auto" = <user cache dir>/samielsq, "" disables)`)

	banks := flag.Int("banks", 64, "DistribLSQ banks (samie) / ARB banks")
	entries := flag.Int("entries", 2, "DistribLSQ entries per bank")
	slots := flag.Int("slots", 8, "slots per entry")
	shared := flag.Int("shared", 8, "SharedLSQ entries")
	addrBuf := flag.Int("addrbuf", 64, "AddrBuffer slots")
	addrs := flag.Int("addrs", 2, "ARB addresses per bank")
	inflight := flag.Int("inflight", 128, "ARB in-flight cap / conventional entries")
	flag.Parse()

	if *list {
		for _, b := range experiments.Benchmarks() {
			fmt.Println(b)
		}
		return
	}

	spec := experiments.RunSpec{Benchmark: *bench, Insts: *insts, Warmup: *warmup, Model: kind}
	switch kind {
	case experiments.ModelSAMIE:
		cfg := core.PaperConfig()
		cfg.Banks, cfg.EntriesPerBank, cfg.SlotsPerEntry = *banks, *entries, *slots
		cfg.SharedEntries, cfg.AddrBufferSlots = *shared, *addrBuf
		spec.SAMIE = &cfg
	case experiments.ModelConventional:
		spec.ConvEntries = *inflight
	case experiments.ModelARB:
		spec.ARBBanks, spec.ARBAddrs, spec.ARBInflight = *banks, *addrs, *inflight
	}

	if _, err := experiments.ValidateSpec(spec); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *showKey {
		fmt.Println(experiments.Key(spec))
	}

	// A single run still goes through the engine so the spec takes the
	// same normalization path as the batch harnesses — and through the
	// shared on-disk artifact cache (same -cachedir semantics as
	// samie-bench), so repeated CLI invocations reuse finished
	// simulations and contribute theirs back.
	batch, _ := experiments.OpenBatch(1, *cachedir, func(err error) {
		fmt.Fprintf(os.Stderr, "disk cache disabled: %v\n", err)
	})
	r := batch.Run(spec)
	c := r.CPU
	fmt.Printf("benchmark          %s (%s model)\n", *bench, experiments.ModelName(kind))
	fmt.Printf("instructions       %d (cycles %d)\n", c.Committed, c.Cycles)
	fmt.Printf("IPC                %.4f\n", c.IPC)
	fmt.Printf("loads/stores       %d / %d (forwarded %d)\n", c.Loads, c.Stores, c.ForwardedLoads)
	fmt.Printf("branch mispredicts %d of %d (%.2f%%)\n",
		c.BranchMispredicts, c.BranchLookups,
		100*float64(c.BranchMispredicts)/float64(max(c.BranchLookups, 1)))
	fmt.Printf("L1D miss rate      %.3f   DTLB miss rate %.4f\n", c.L1DMissRate, c.DTLBMissRate)
	fmt.Printf("deadlock flushes   %d (%.1f per Mcycle)\n",
		c.DeadlockFlushes, 1e6*float64(c.DeadlockFlushes)/float64(max(c.Cycles, 1)))
	fmt.Printf("fetch stalls       %d (branch %d, other %d); dispatch stalls %d\n",
		c.FetchStallCycles, c.FetchStallBranch, c.FetchStallOther, c.DispatchStalls)

	m := r.Meter
	fmt.Printf("\nDynamic energy (nJ)\n")
	switch spec.Model {
	case experiments.ModelConventional:
		fmt.Printf("  LSQ (conventional) %.1f\n", m.ConvLSQ/1e3)
	case experiments.ModelSAMIE:
		fmt.Printf("  DistribLSQ %.1f  SharedLSQ %.1f  AddrBuffer %.1f  Bus %.1f  (total %.1f)\n",
			m.Distrib/1e3, m.Shared/1e3, m.AddrBuffer/1e3, m.Bus/1e3, m.SAMIETotal()/1e3)
	}
	fmt.Printf("  Dcache %.1f  DTLB %.1f\n", m.Dcache/1e3, m.DTLB/1e3)

	if spec.Model == experiments.ModelSAMIE {
		s := r.SAMIE
		fmt.Printf("\nSAMIE-LSQ statistics\n")
		fmt.Printf("  placed: distrib %d, shared %d, buffered %d, failures %d\n",
			s.PlacedDistrib, s.PlacedShared, s.Buffered, s.PlaceFailures)
		fmt.Printf("  way-known accesses %d, TLB reuses %d, presentBit flushes %d\n",
			s.WayKnownHits, s.TLBReuses, s.PresentFlushes)
		fmt.Printf("  mean SharedLSQ occupancy %.2f (max %d); AddrBuffer idle %.2f%% of cycles\n",
			s.MeanSharedOcc(), s.MaxSharedOcc, 100*s.ABEmptyFraction())
	}
}
