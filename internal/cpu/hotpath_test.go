package cpu

import (
	"testing"
	"unsafe"

	"samielsq/internal/core"
	"samielsq/internal/lsq"
	"samielsq/internal/trace"
)

// steadyAllocs reports the allocations of 2000 simulated cycles after
// the pipeline and the model have reached steady state. The cycles go
// through Run's loop body, so quiescent-span skips are covered too.
func steadyAllocs(t *testing.T, model lsq.Model, bench string) float64 {
	t.Helper()
	p := trace.MustPersonality(bench)
	c := New(PaperConfig(), trace.NewGenerator(p), model, nil, nil, nil, nil)
	// Grow every scratch buffer: mcf under the ARB reaches its flush
	// and in-flight high-water marks only after some 20k instructions.
	c.Run(100_000)
	return testing.AllocsPerRun(5, func() {
		for end := c.cycle + 2000; c.cycle < end; {
			c.advance(end)
		}
	})
}

// TestStepZeroAllocSteadyState is the hot-path guard: once warm, the
// per-cycle path must not allocate, whatever the LSQ model. A failure
// here means a map, append or escape crept back into the
// per-instruction path — see docs/performance.md. The pointer-chaser
// personality additionally pins the wakeup scheduler's structures
// (waiter lists, timing wheel, wait bitmaps) under the long
// dependence chains they exist for, and mcf the quiescent-span skip
// under its long idle spans.
func TestStepZeroAllocSteadyState(t *testing.T) {
	models := map[string]func() lsq.Model{
		"conventional": func() lsq.Model { return lsq.NewConventional(128, nil) },
		"unbounded":    func() lsq.Model { return lsq.NewUnbounded() },
		"arb":          func() lsq.Model { return lsq.NewARB(8, 16, 128) },
		"samie":        func() lsq.Model { return core.NewPaper(nil) },
	}
	for _, bench := range []string{"gzip", "pointer-chaser", "mcf"} {
		for name, mk := range models {
			t.Run(bench+"/"+name, func(t *testing.T) {
				if n := steadyAllocs(t, mk(), bench); n > 0 {
					t.Errorf("%s/%s: %.1f allocs per 2000 steady-state cycles, want 0", bench, name, n)
				}
			})
		}
	}
}

// TestWindowSlotSize pins an instruction-window slot at two cache
// lines: a field added in the wrong place would grow every one of the
// window's slots into a third.
func TestWindowSlotSize(t *testing.T) {
	if n := unsafe.Sizeof(dynInst{}); n > 128 {
		t.Fatalf("dynInst is %d bytes, want at most 128", n)
	}
}

func benchSteps(b *testing.B, bench string) {
	p := trace.MustPersonality(bench)
	c := New(PaperConfig(), trace.NewGenerator(p), core.NewPaper(nil), nil, nil, nil, nil)
	c.Run(20000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.step()
	}
}

// BenchmarkHotPathStep measures raw simulator cycles per second on the
// paper configuration with the SAMIE-LSQ (the dominant workload of
// every figure harness).
func BenchmarkHotPathStep(b *testing.B) { benchSteps(b, "gzip") }

// BenchmarkHotPathStepPointerChaser measures the wakeup scheduler on
// its target workload: a serial random load chain keeping the ROB full
// of parked instructions.
func BenchmarkHotPathStepPointerChaser(b *testing.B) { benchSteps(b, "pointer-chaser") }

// BenchmarkHotPathStepMcf is the paper's real low-IPC pointer chaser.
func BenchmarkHotPathStepMcf(b *testing.B) { benchSteps(b, "mcf") }
