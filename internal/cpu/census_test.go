package cpu

import (
	"fmt"
	"strings"
	"testing"

	"samielsq/internal/core"
	"samielsq/internal/energy"
	"samielsq/internal/lsq"
	"samielsq/internal/mem"
	"samielsq/internal/obs"
	"samielsq/internal/tlb"
	"samielsq/internal/trace"
)

// stepClass is why Run stepped a cycle instead of skipping it: the
// first quiescentEnd condition that held, in quiescentEnd's order.
type stepClass int

const (
	stepTick        stepClass = iota // the last Model.Tick placed something
	stepAttention                    // the attention set is non-empty
	stepHeadCommits                  // the ROB head commits next cycle
	stepHeadStuck                    // the ROB head is deadlock-blocked
	stepDispatch                     // dispatch is not a provable no-op
	stepFetch                        // fetch is not a provable no-op
	stepNextEvent                    // quiescent, but the next event is the next cycle
	stepSpanEnd                      // the cycle ending a skipped span
	stepLimit                        // quiescent, but Run's cycle limit is the next cycle
	numStepClasses
)

var stepClassNames = [numStepClasses]string{
	"Tick placed", "attention set non-empty", "head commits next cycle",
	"head stuck", "dispatch not a no-op", "fetch not a no-op",
	"next event is the next cycle", "end of a skipped span", "cycle limit",
}

// stepCause replays quiescentEnd's conditions on c and returns the
// first one that forces the next cycle to be stepped, or numStepClasses
// when the pipeline is quiescent and only the span's end remains.
func stepCause(c *CPU) stepClass {
	next := c.cycle + 1
	if !c.tickIdle {
		return stepTick
	}
	w := &c.win
	if w.head < w.disp {
		if _, ok := c.ev.attn.nextSet(w.head, w.disp); ok {
			return stepAttention
		}
		head := w.at(w.head)
		if head.state >= stDone && head.readyAt <= next {
			return stepHeadCommits
		}
		if c.headStuck(head) {
			return stepHeadStuck
		}
	}
	if w.disp < w.fetched && !c.dispatchFull(w.at(w.disp)) {
		return stepDispatch
	}
	if c.blockingBranch == noSeq && next >= c.fetchBlockedUntil &&
		w.fetched-w.disp < uint64(c.cfg.FetchQueue) && (w.fetched < w.tail || !c.streamDone) {
		return stepFetch
	}
	return numStepClasses
}

// stepCensus tallies one run's stepped cycles by class and counts its
// skipped ones.
type stepCensus struct {
	stepped [numStepClasses]uint64
	skipped uint64
}

// run is CPU.Run's loop with each advance classified before it is
// taken. It checks stepCause against quiescentEnd and returns the
// cycles it advanced.
func (sc *stepCensus) run(t *testing.T, c *CPU, maxInsts uint64) uint64 {
	start := c.cycle
	limit := start + maxInsts*40 + 1_000_000
	for c.res.Committed < maxInsts && c.cycle < limit {
		if c.streamDone && c.win.head == c.win.tail {
			break
		}
		next := c.cycle + 1
		cause, end := stepCause(c), c.quiescentEnd(limit)
		switch {
		case cause != numStepClasses:
			if end != next {
				t.Fatalf("cycle %d: stepped for %q, but quiescentEnd is %d", next, stepClassNames[cause], end)
			}
		case end > next:
			cause = stepSpanEnd
			sc.skipped += end - next
		default:
			cause = stepLimit
			if at, ok := c.ev.nextEvent(next); ok && at == next {
				cause = stepNextEvent
			}
		}
		sc.stepped[cause]++
		c.advance(limit)
		if c.cycle != max(end, next) {
			t.Fatalf("advance ended at cycle %d, quiescentEnd said %d", c.cycle, end)
		}
	}
	return c.cycle - start
}

// matrixModels are the four default LSQ organizations the core matrix
// and the scheduler differential run, built as
// experiments.runNormalized builds them.
var matrixModels = []struct {
	name string
	mk   func(*energy.Meter) lsq.Model
}{
	{"samie", func(m *energy.Meter) lsq.Model { return core.NewPaper(m) }},
	{"conventional", func(m *energy.Meter) lsq.Model { return lsq.NewConventional(128, m) }},
	{"arb64x2", func(*energy.Meter) lsq.Model { return lsq.NewARB(64, 2, 128) }},
	{"unbounded", func(*energy.Meter) lsq.Model { return lsq.NewUnbounded() }},
}

// censusCPU builds a CPU as experiments.runNormalized does for bench.
func censusCPU(bench string, mk func(*energy.Meter) lsq.Model) *CPU {
	meter := energy.NewMeter()
	c := New(PaperConfig(), trace.SharedStream(trace.MustPersonality(bench)), mk(meter),
		mem.NewPaper(), tlb.New(tlb.PaperDTLB()), nil, meter)
	c.SetSampler(obs.NewIntervalSampler(0, 0))
	return c
}

// TestSteppedCycleCensus classifies every stepped cycle of the 20
// core-matrix cases (four LSQ models × gzip, swim, mcf, pointer-chaser,
// store-burst; 100k measured instructions after a 50k warm-up) by the
// first quiescentEnd condition that forced it. The classes must
// partition the stepped cycles, stepped and skipped cycles must add up
// to the cycles run, and each case's measured Result must equal
// RunWarmTimed's on a fresh CPU, so the census drives Run exactly.
// With -v it logs the table (docs/performance.md §4).
func TestSteppedCycleCensus(t *testing.T) {
	insts := uint64(100_000)
	if testing.Short() {
		insts = 10_000
	}
	warm := insts / 2
	var total stepCensus
	var cycles uint64
	dispatch := make([]string, len(matrixModels)) // stepDispatch cycles per model
	for i, m := range matrixModels {
		var modelDispatch uint64
		for _, bench := range []string{"gzip", "swim", "mcf", "pointer-chaser", "store-burst"} {
			var sc stepCensus
			c := censusCPU(bench, m.mk)
			c.warming = true
			n := sc.run(t, c, warm)
			c.warming = false
			c.res = Result{}
			measured := sc.run(t, c, insts)
			n += measured

			want, _, _ := censusCPU(bench, m.mk).RunWarmTimed(warm, insts)
			got := c.res
			got.Cycles = measured
			got.IPC, got.L1DMissRate, got.DTLBMissRate = want.IPC, want.L1DMissRate, want.DTLBMissRate
			if got != want {
				t.Fatalf("%s/%s: census run diverged from RunWarmTimed:\n got %+v\nwant %+v", m.name, bench, got, want)
			}
			var stepped uint64
			for j, k := range sc.stepped {
				stepped += k
				total.stepped[j] += k
			}
			if stepped+sc.skipped != n {
				t.Fatalf("%s/%s: %d stepped + %d skipped cycles, ran %d", m.name, bench, stepped, sc.skipped, n)
			}
			total.skipped += sc.skipped
			cycles += n
			modelDispatch += sc.stepped[stepDispatch]
		}
		dispatch[i] = fmt.Sprintf("%s %d", m.name, modelDispatch)
	}
	var stepped uint64
	for _, k := range total.stepped {
		stepped += k
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d cycles: %d stepped, %d skipped\n", cycles, stepped, total.skipped)
	for i, k := range total.stepped {
		fmt.Fprintf(&b, "  %-30s %9d  %5.1f%%\n", stepClassNames[i], k, 100*float64(k)/float64(stepped))
	}
	fmt.Fprintf(&b, "dispatch not a no-op, by model: %s\n", strings.Join(dispatch, ", "))
	t.Log("stepped cycles by cause\n" + b.String())
}
