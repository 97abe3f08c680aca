package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"samielsq/internal/cpu"
	"samielsq/internal/experiments"
	"samielsq/internal/isa"
	"samielsq/internal/trace"
)

// lsqModels are the four LSQ organizations every cycle-core workload
// compares, configured as the paper's evaluation does.
var lsqModels = []struct {
	name string
	spec func(bench string, insts uint64) experiments.RunSpec
}{
	{"samie", func(b string, n uint64) experiments.RunSpec {
		return experiments.RunSpec{Benchmark: b, Insts: n, Model: experiments.ModelSAMIE}
	}},
	{"conventional", func(b string, n uint64) experiments.RunSpec {
		return experiments.RunSpec{Benchmark: b, Insts: n, Model: experiments.ModelConventional}
	}},
	{"arb64x2", func(b string, n uint64) experiments.RunSpec {
		return experiments.RunSpec{Benchmark: b, Insts: n, Model: experiments.ModelARB,
			ARBBanks: 64, ARBAddrs: 2, ARBInflight: 128}
	}},
	{"unbounded", func(b string, n uint64) experiments.RunSpec {
		return experiments.RunSpec{Benchmark: b, Insts: n, Model: experiments.ModelUnbounded}
	}},
}

// coreBenchmarks: three paper programs (mcf stresses the cache models)
// plus the two adversarial personalities — pointer-chaser stresses the
// wakeup scheduler, store-burst stresses LSQ placement.
var coreBenchmarks = []string{"gzip", "swim", "mcf", "pointer-chaser", "store-burst"}

// paperBenchmarks are the programs of a matrix that come from the
// paper's suite; the reproduction gaps are computed over them only.
var paperBenchmarks = map[string]bool{"ammp": true, "gzip": true, "mcf": true, "swim": true}

const (
	coreInsts = 100_000
	// setupReps is how many times a segment sets up; it reports the
	// median.
	setupReps = 9
)

type coreCase struct {
	model, bench string
	spec         experiments.RunSpec
	stepped      uint64 // warmup + measured instructions the core steps
}

// coreCases is the 20-case matrix in a fixed model-major order.
func coreCases() []coreCase {
	var cs []coreCase
	for _, m := range lsqModels {
		for _, b := range coreBenchmarks {
			n := experiments.Normalize(m.spec(b, coreInsts))
			cs = append(cs, coreCase{model: m.name, bench: b, spec: n, stepped: n.Warmup + n.Insts})
		}
	}
	return cs
}

// keep retains the deterministic part of a result: the CPU, SAMIE and
// conventional-LSQ statistics and a private copy of the energy meter.
func keep(r experiments.RunResult) *experiments.RunResult {
	m := *r.Meter
	return &experiments.RunResult{Spec: r.Spec, CPU: r.CPU, Meter: &m, SAMIE: r.SAMIE, Conv: r.Conv}
}

// sameResult reports whether r repeats a kept result exactly.
func sameResult(k *experiments.RunResult, r experiments.RunResult) bool {
	return k.CPU == r.CPU && r.Meter != nil && *k.Meter == *r.Meter
}

// withinBudget reports whether a run committed its budget: commit
// retires up to CommitWidth instructions a cycle, so a run stops within
// one commit group past the budget.
func withinBudget(committed uint64, spec experiments.RunSpec) bool {
	return committed >= spec.Insts && committed < spec.Insts+uint64(spec.CPU.CommitWidth)
}

// materialize reads n instructions of bench's trace, through the shared
// slab cache (what experiments.Run uses) or a private slab.
func materialize(bench string, n uint64, shared bool, tr *tracer, parent int64) {
	p := trace.MustPersonality(bench)
	var s isa.Stream
	if shared {
		sp := tr.begin("trace.SharedStream", parent)
		s = trace.SharedStream(p)
		sp.end()
	} else {
		s = trace.NewSlab(p).Stream()
	}
	var in isa.Inst
	for i := uint64(0); i < n; i++ {
		s.Next(&in)
	}
}

// runCoreMatrix runs the 20-case matrix back to back on one goroutine,
// each pass in a seeded order, until the window closes.
func runCoreMatrix(cfg segCfg) (segResult, error) {
	cases := coreCases()
	var longest uint64
	for _, c := range cases {
		longest = max(longest, c.stepped)
	}
	// The core fetches ahead of commit by at most a fetch queue plus a
	// reorder buffer, so this prefix covers every run.
	cc := cpu.PaperConfig()
	prefix := longest + uint64(cc.FetchQueue+cc.ROBSize)

	// Set-up: materialize every program's trace. The last repetition
	// goes through the shared slab cache the runs then replay; the
	// earlier ones build private slabs doing the same generation work.
	var setups, rawSetups []float64
	for i := 0; i < setupReps; i++ {
		shared := i == setupReps-1
		norm := cfg.ref.normalizer(refSamples)
		sp := cfg.tr.begin("setup", 0)
		t0 := time.Now()
		for _, b := range coreBenchmarks {
			materialize(b, prefix, shared, cfg.tr, sp.id)
		}
		d := time.Since(t0).Seconds()
		sp.end()
		setups = append(setups, d*norm.next())
		rawSetups = append(rawSetups, d)
		runtime.GC()
	}

	var res segResult
	first := make([]*experiments.RunResult, len(cases))
	var lat, passes []float64
	var runNorm float64 // normalized seconds inside experiments.Run
	var stepped uint64
	byModel := map[string][2]float64{} // stepped, wall
	byBench := map[string][2]float64{}
	var warmS, measS float64
	var measCycles uint64

	var stopProf func() (map[string]float64, error)
	var ms0 runtime.MemStats
	if cfg.tr != nil {
		var err error
		stopProf, err = startProfile(filepath.Join(cfg.work, "core.pprof"))
		if err != nil {
			return res, err
		}
		runtime.ReadMemStats(&ms0)
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	// Three kernel runs per case boundary: run_p99_ms rests on the
	// slowest case's two or three slowest repeats, which one disturbed
	// kernel run would otherwise scale.
	norm := cfg.ref.normalizer(3)
	start := time.Now()
	for len(passes) == 0 || time.Since(start) < cfg.dur {
		psp := cfg.tr.begin("pass", 0)
		var pass float64
		for _, i := range rng.Perm(len(cases)) {
			c := cases[i]
			sp := cfg.tr.begin("experiments.Run", psp.id)
			t0 := time.Now()
			r := experiments.Run(c.spec)
			d := time.Since(t0).Seconds()
			sp.end()
			dn := d * norm.next()
			pass += dn
			res.attempted++
			switch {
			case !withinBudget(r.CPU.Committed, c.spec):
				res.failed++
			case first[i] == nil:
				first[i] = keep(r)
			case !sameResult(first[i], r):
				res.failed++
			}
			lat = append(lat, dn*1e3)
			runNorm += dn
			stepped += c.stepped
			acc := byModel[c.model]
			byModel[c.model] = [2]float64{acc[0] + float64(c.stepped), acc[1] + d}
			acc = byBench[c.bench]
			byBench[c.bench] = [2]float64{acc[0] + float64(c.stepped), acc[1] + d}
			warmS += r.Phases.Warmup
			measS += r.Phases.Measured
			measCycles += r.CPU.Cycles
		}
		passes = append(passes, pass)
		psp.end()
	}
	var prof map[string]float64
	var ms1 runtime.MemStats
	if cfg.tr != nil {
		runtime.ReadMemStats(&ms1)
		var err error
		if prof, err = stopProf(); err != nil {
			return res, err
		}
	}

	// Determinism check: one case per model again, seeded, must repeat
	// its result exactly.
	for m := range lsqModels {
		i := m*len(coreBenchmarks) + rng.Intn(len(coreBenchmarks))
		r := experiments.Run(cases[i].spec)
		res.attempted++
		if first[i] == nil || !sameResult(first[i], r) {
			res.failed++
		}
	}
	for _, f := range first {
		if f == nil {
			return res, fmt.Errorf("core-matrix: a case never produced a valid result")
		}
	}

	gaps, err := matrixGaps(cases, first, coreInsts)
	if err != nil {
		return res, err
	}
	res.samples = len(lat)
	res.unitCost = runNorm / float64(stepped)
	res.e2e = map[string]float64{
		"sim_ips":    float64(stepped) / runNorm,
		"sweep_s":    median(passes),
		"run_p50_ms": quantile(lat, 0.50),
		"run_p99_ms": quantile(lat, 0.99),
		"runs_per_s": float64(len(lat)) / runNorm,
		"setup_s":    median(setups),
	}
	for k, v := range gaps {
		res.e2e[k] = v
	}
	if cfg.tr == nil {
		return res, nil
	}

	ips := func(acc [2]float64) float64 { return acc[0] / acc[1] }
	l := map[string]float64{
		"trace.slab_s":           median(rawSetups),
		"trace.next_ns":          nextNs(coreBenchmarks[0], prefix),
		"cpu.ns_per_cycle":       measS * 1e9 / float64(measCycles),
		"cpu.ips.pointer-chaser": ips(byBench["pointer-chaser"]),
		"cpu.ips.store-burst":    ips(byBench["store-burst"]),
		"cpu.warmup_share":       warmS / (warmS + measS),
		"alloc.bytes_per_kinst":  float64(ms1.TotalAlloc-ms0.TotalAlloc) / (float64(stepped) / 1e3),
		"gc.count":               float64(ms1.NumGC-ms0.NumGC) / float64(len(passes)),
	}
	for _, m := range lsqModels {
		l["lsq.ips."+m.name] = ips(byModel[m.name])
	}
	for pkg, share := range prof {
		l["prof."+pkg] = share
	}
	for k, v := range fingerprint(cases, first) {
		l[k] = v
	}
	res.layer = l
	return res, nil
}

// nextNs times the trace layer alone: Next over an already
// materialized shared slab, in ns per instruction (median of passes).
func nextNs(bench string, n uint64) float64 {
	p := trace.MustPersonality(bench)
	var per []float64
	var in isa.Inst
	for rep := 0; rep < 15; rep++ {
		s := trace.SharedStream(p)
		t0 := time.Now()
		for i := uint64(0); i < n; i++ {
			s.Next(&in)
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(per)
}

// fingerprint sums the modelled hardware's exact counts over one pass
// of the matrix, in the matrix's fixed order so float sums repeat
// bit for bit. A change that only speeds the simulator up leaves every
// value identical.
func fingerprint(cases []coreCase, outs []*experiments.RunResult) map[string]float64 {
	var cycles, committed, deadlocks, placeFails, forwarded, unplaced, buffered, samieFails uint64
	var samiePJ, convPJ float64
	for i, c := range cases {
		r := outs[i]
		cycles += r.CPU.Cycles
		committed += r.CPU.Committed
		deadlocks += r.CPU.DeadlockFlushes
		placeFails += r.CPU.PlacementFailures
		forwarded += r.CPU.ForwardedLoads
		unplaced += r.CPU.HeadUnplaced
		switch c.spec.Model {
		case experiments.ModelSAMIE:
			buffered += r.SAMIE.Buffered
			samieFails += r.SAMIE.PlaceFailures
			samiePJ += r.Meter.SAMIETotal()
		case experiments.ModelConventional:
			convPJ += r.Meter.ConvLSQ
		}
	}
	return map[string]float64{
		"sim.cycles":                 float64(cycles),
		"sim.committed":              float64(committed),
		"sim.deadlock_flushes":       float64(deadlocks),
		"sim.placement_failures":     float64(placeFails),
		"sim.forwarded_loads":        float64(forwarded),
		"sim.head_unplaced":          float64(unplaced),
		"samie.buffered":             float64(buffered),
		"samie.place_failures":       float64(samieFails),
		"energy.lsq_pj.samie":        samiePJ,
		"energy.lsq_pj.conventional": convPJ,
	}
}

// matrixGaps computes the four reproduction gaps over the paper
// programs of a matrix's conventional/SAMIE pairs, by offering the
// pairs to a fresh batch and rendering the paper's harnesses from it.
func matrixGaps(cases []coreCase, outs []*experiments.RunResult, insts uint64) (map[string]float64, error) {
	var rs []experiments.RunResult
	for i, c := range cases {
		if paperBenchmarks[c.bench] {
			rs = append(rs, *outs[i])
		}
	}
	return gapsOf(rs, insts)
}

// paperValues are the paper's headline numbers as ROADMAP quotes them:
// LSQ, Dcache and DTLB dynamic-energy savings and the mean IPC loss,
// in percent.
var paperValues = struct{ lsq, dcache, dtlb, ipcLoss float64 }{82, 42, 73, 0.6}

// gapsOf renders Figures 5 and 7-12 from the given results (which must
// hold a conventional and a SAMIE run per paper program at insts) and
// returns |reproduced − paper| in percentage points.
func gapsOf(rs []experiments.RunResult, insts uint64) (map[string]float64, error) {
	local := experiments.NewBatch(1)
	seen := map[string]bool{}
	var benches []string
	for _, r := range rs {
		if r.Spec.Model != experiments.ModelConventional && r.Spec.Model != experiments.ModelSAMIE {
			continue
		}
		local.Offer(r.Spec, r)
		if !seen[r.Spec.Benchmark] {
			seen[r.Spec.Benchmark] = true
			benches = append(benches, r.Spec.Benchmark)
		}
	}
	en := local.Energy(benches, insts)
	f56 := local.Figure56(benches, insts)
	if ex := local.Stats().Executed; ex != 0 {
		return nil, fmt.Errorf("gap rendering simulated %d runs: a conventional/SAMIE pair is missing", ex)
	}
	return gapMetrics(en, f56), nil
}

func gapMetrics(en experiments.EnergyResult, f56 experiments.Figure56Result) map[string]float64 {
	abs := func(x float64) float64 {
		if x < 0 {
			return -x
		}
		return x
	}
	return map[string]float64{
		"gap_lsq_saving_pp":    abs(100*en.LSQSavings() - paperValues.lsq),
		"gap_dcache_saving_pp": abs(100*en.DcacheSavings() - paperValues.dcache),
		"gap_dtlb_saving_pp":   abs(100*en.DTLBSavings() - paperValues.dtlb),
		"gap_ipc_loss_pp":      abs(f56.MeanIPCLossPct() - paperValues.ipcLoss),
	}
}
