package cpu

import (
	"strings"
	"testing"

	"samielsq/internal/core"
	"samielsq/internal/energy"
	"samielsq/internal/lsq"
	"samielsq/internal/obs"
	"samielsq/internal/trace"
)

// TestSamplerCollectsFromPipeline: a sampler attached to a running CPU
// collects monotone interval samples with live occupancy and energy
// deltas.
func TestSamplerCollectsFromPipeline(t *testing.T) {
	p := trace.MustPersonality("gzip")
	m := energy.NewMeter()
	c := New(PaperConfig(), trace.NewGenerator(p), core.NewPaper(m), nil, nil, nil, m)
	s := obs.NewIntervalSampler(256, 64)
	c.SetSampler(s)
	c.Run(50_000)

	tl := s.Snapshot()
	if tl == nil || len(tl.Samples) == 0 {
		t.Fatal("no samples collected from a live pipeline")
	}
	if tl.Stride < 256 {
		t.Fatalf("stride = %d, want >= the configured 256", tl.Stride)
	}
	var sawROB, sawLSQ, sawEnergy bool
	last := uint64(0)
	for _, ts := range tl.Samples {
		if ts.Cycle <= last {
			t.Fatalf("sample cycles not increasing: %d after %d", ts.Cycle, last)
		}
		last = ts.Cycle
		if ts.IPC < 0 || ts.ROB < 0 || ts.LSQ < 0 {
			t.Fatalf("negative sample fields: %+v", ts)
		}
		sawROB = sawROB || ts.ROB > 0
		sawLSQ = sawLSQ || ts.LSQ > 0
		sawEnergy = sawEnergy || ts.DcachePJ > 0 || ts.SharedPJ > 0 || ts.DistribPJ > 0
	}
	if !sawROB || !sawLSQ {
		t.Fatalf("occupancies never nonzero (rob=%v lsq=%v) over %d samples", sawROB, sawLSQ, len(tl.Samples))
	}
	if !sawEnergy {
		t.Fatal("energy deltas never nonzero with a live meter")
	}
	// The scheduler stats come from the wakeup engine's structures.
	if c.ev == nil {
		t.Fatal("wakeup scheduler expected by default")
	}
}

// TestRunWarmTimedResetsSampler: the warmup portion must not leak into
// the measured timeline — every retained sample is post-warmup.
func TestRunWarmTimedResetsSampler(t *testing.T) {
	p := trace.MustPersonality("gzip")
	c := New(PaperConfig(), trace.NewGenerator(p), lsq.NewUnbounded(), nil, nil, nil, nil)
	s := obs.NewIntervalSampler(128, 32)
	c.SetSampler(s)
	res, _, _ := c.RunWarmTimed(5_000, 10_000)

	// The global cycle counter keeps running across the warmup reset, so
	// the measured window is the last res.Cycles cycles.
	warmupEnd := c.cycle - res.Cycles
	tl := s.Snapshot()
	if tl == nil || len(tl.Samples) == 0 {
		t.Fatal("no measured samples")
	}
	for _, ts := range tl.Samples {
		if ts.Cycle <= warmupEnd {
			t.Fatalf("sample at cycle %d predates the warmup boundary %d", ts.Cycle, warmupEnd)
		}
	}
}

// TestStepZeroAllocWithTelemetryDisabled extends the hot-path guard to
// the telemetry hook: with telemetry off — a nil sampler, here after a
// sampler was attached and then detached — the per-cycle path must
// still not allocate.
func TestStepZeroAllocWithTelemetryDisabled(t *testing.T) {
	p := trace.MustPersonality("gzip")
	c := New(PaperConfig(), trace.NewGenerator(p), core.NewPaper(nil), nil, nil, nil, nil)
	c.SetSampler(obs.NewIntervalSampler(0, 0))
	c.Run(20000)
	c.SetSampler(nil)
	n := testing.AllocsPerRun(5, func() {
		for i := 0; i < 2000; i++ {
			c.step()
		}
	})
	if n > 0 {
		t.Errorf("%.1f allocs per 2000 cycles with telemetry off, want 0", n)
	}
}

// TestForcedDivergenceNamesFirstCycle drills the lockstep diagnosis
// TestSchedulerDifferential prints on a mismatch. The two sides run
// genuinely different machines — the wakeup engine on the SAMIE LSQ,
// the ROB-walk oracle on an 8-entry conventional LSQ, which stalls
// memory operations on different cycles — so the lockstep must name a
// first divergent span, the state that differed, and dump both ROB
// windows.
func TestForcedDivergenceNamesFirstCycle(t *testing.T) {
	p := trace.MustPersonality("mcf")
	wake := New(PaperConfig(), trace.NewGenerator(p), core.NewPaper(nil), nil, nil, nil, nil)
	oracle := newOracle(PaperConfig(), trace.NewGenerator(p), lsq.NewConventional(8, nil), nil)
	d, _ := lockstep(wake, oracle, 5_000)
	if d == nil {
		t.Fatal("different LSQ models never diverged in lockstep")
	}
	if d.to <= d.from || d.to != wake.cycle || oracle.cycle != wake.cycle {
		t.Fatalf("span (%d, %d] does not end at the lockstep cycle (wakeup %d, oracle %d)",
			d.from, d.to, wake.cycle, oracle.cycle)
	}
	if d.what == "" || !strings.Contains(d.dump, "seq=") {
		t.Fatalf("divergence names no differing state or dumps no window:\n%v", d)
	}
	t.Logf("%v", d)
}
