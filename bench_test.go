package samielsq_test

// One benchmark per paper artefact (the figure table in
// internal/experiments/figtable.go lists the figures): each regenerates
// the corresponding table or figure on a reduced instruction budget
// and reports the headline metric via b.ReportMetric, plus ablation
// benches for the SAMIE-LSQ design choices.
//
// Run all of them with:
//
//	go test -bench=. -benchmem
//
// Higher-fidelity artefacts come from `go run ./cmd/samie-bench`.

import (
	"testing"

	"samielsq"
	"samielsq/internal/core"
	"samielsq/internal/experiments"
)

// benchInsts keeps the full-suite benches affordable; the harnesses
// accept larger budgets for fidelity.
const benchInsts = 60_000

// fastSuite is a representative slice of the 26 programs: the
// concentrated FP pressure cases, a streaming FP case, a pointer
// chaser and an integer case.
var fastSuite = []string{"ammp", "facerec", "swim", "mcf", "gzip"}

func BenchmarkFigure1_ARB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.NewBatch(0).Figure1(fastSuite, benchInsts)
		// Headline: IPC retained by the 64x2 ARB (the paper quotes a
		// 28% loss).
		b.ReportMetric(f.Rows[6].RelIPC*100, "%IPC@64x2")
	}
}

func BenchmarkFigure3_SharedOccupancy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.NewBatch(0).Figure3(fastSuite, benchInsts)
		b.ReportMetric(f.Rows[0].Occ64x2, "ammp-occ@64x2")
	}
}

func BenchmarkFigure4_SharedSizing(b *testing.B) {
	sizes := []int{0, 4, 8, 12}
	for i := 0; i < b.N; i++ {
		f := experiments.NewBatch(0).Figure4(fastSuite, benchInsts, sizes)
		b.ReportMetric(float64(f.Programs[2]), "programs@8")
	}
}

func BenchmarkFigure56_IPCAndDeadlocks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.NewBatch(0).Figure56(fastSuite, benchInsts)
		b.ReportMetric(f.MeanIPCLossPct(), "%IPCloss")
	}
}

func BenchmarkFigures7to12_Energy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := experiments.NewBatch(0).Energy(fastSuite, benchInsts)
		b.ReportMetric(e.LSQSavings()*100, "%LSQsaved")
		b.ReportMetric(e.DcacheSavings()*100, "%Dcachesaved")
		b.ReportMetric(e.DTLBSavings()*100, "%DTLBsaved")
		b.ReportMetric(e.AreaSavings()*100, "%areasaved")
	}
}

func BenchmarkTable1_CacheDelays(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t1 := experiments.Table1()
		b.ReportMetric(t1.Rows[0].ModelImprovement*100, "%improv8KB2w2p")
	}
}

func BenchmarkDelays_Section36(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := experiments.Delays()
		b.ReportMetric(d.Rows[2].Model, "ns-DistribLSQ")
	}
}

func BenchmarkCompareQuickstart(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := samielsq.Compare("swim", benchInsts)
		b.ReportMetric(r.LSQSavingPct, "%LSQsaved")
	}
}

// ---- Ablation benches --------------------------------------------------------

// ablate runs one SAMIE variant on the pressure benchmark and reports
// IPC and LSQ energy.
func ablate(b *testing.B, mutate func(*core.Config)) {
	cfg := core.PaperConfig()
	mutate(&cfg)
	for i := 0; i < b.N; i++ {
		r := experiments.Run(experiments.RunSpec{
			Benchmark: "facerec", Insts: benchInsts,
			Model: experiments.ModelSAMIE, SAMIE: &cfg,
		})
		b.ReportMetric(r.CPU.IPC, "IPC")
		b.ReportMetric(r.Meter.SAMIETotal()/1e3, "nJ-LSQ")
		b.ReportMetric(r.Meter.Dcache/1e3, "nJ-Dcache")
	}
}

func BenchmarkAblationBaselineSAMIE(b *testing.B) {
	ablate(b, func(c *core.Config) {})
}

func BenchmarkAblationNoWayCaching(b *testing.B) {
	ablate(b, func(c *core.Config) { c.DisableWayCaching = true })
}

func BenchmarkAblationNoTLBCaching(b *testing.B) {
	ablate(b, func(c *core.Config) { c.DisableTLBCaching = true })
}

func BenchmarkAblationSlots4(b *testing.B) {
	ablate(b, func(c *core.Config) { c.SlotsPerEntry = 4 })
}

func BenchmarkAblationSlots16(b *testing.B) {
	ablate(b, func(c *core.Config) { c.SlotsPerEntry = 16 })
}

func BenchmarkAblationBanks128x1(b *testing.B) {
	ablate(b, func(c *core.Config) { c.Banks, c.EntriesPerBank = 128, 1 })
}

func BenchmarkAblationBanks32x4(b *testing.B) {
	ablate(b, func(c *core.Config) { c.Banks, c.EntriesPerBank = 32, 4 })
}

func BenchmarkAblationShared16(b *testing.B) {
	ablate(b, func(c *core.Config) { c.SharedEntries = 16 })
}

func BenchmarkAblationAddrBuffer16(b *testing.B) {
	ablate(b, func(c *core.Config) { c.AddrBufferSlots = 16 })
}

// ---- Microbenchmarks of the hot simulator paths ------------------------------

func BenchmarkSimulatorThroughput(b *testing.B) {
	// Instructions simulated per second on the paper configuration.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.Run(experiments.RunSpec{
			Benchmark: "gzip", Insts: 50_000, Warmup: 1,
			Model: experiments.ModelSAMIE,
		})
	}
}

func BenchmarkConventionalThroughput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.Run(experiments.RunSpec{
			Benchmark: "gzip", Insts: 50_000, Warmup: 1,
			Model: experiments.ModelConventional,
		})
	}
}

// BenchmarkRunSetup measures building one simulation: a one-instruction
// run per LSQ model, so construction (caches, predictor, LSQ model,
// sampler) dominates and the simulation itself is negligible.
func BenchmarkRunSetup(b *testing.B) {
	for _, m := range []struct {
		name string
		spec experiments.RunSpec
	}{
		{"samie", experiments.RunSpec{Model: experiments.ModelSAMIE}},
		{"conventional", experiments.RunSpec{Model: experiments.ModelConventional}},
		{"arb", experiments.RunSpec{Model: experiments.ModelARB, ARBBanks: 64, ARBAddrs: 2, ARBInflight: 128}},
		{"unbounded", experiments.RunSpec{Model: experiments.ModelUnbounded}},
	} {
		spec := m.spec
		spec.Benchmark, spec.Insts = "gzip", 1
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				experiments.Run(spec)
			}
		})
	}
}

func BenchmarkExtensionFastWayKnown(b *testing.B) {
	// The paper's future-work optimization (§3.6): way-known accesses
	// complete a cycle earlier. Compare IPC against the baseline SAMIE
	// bench above.
	ablate(b, func(c *core.Config) { c.FastWayKnown = true })
}
