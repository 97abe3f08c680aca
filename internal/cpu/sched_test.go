package cpu

import (
	"slices"
	"testing"

	"samielsq/internal/core"
	"samielsq/internal/energy"
	"samielsq/internal/isa"
	"samielsq/internal/lsq"
	"samielsq/internal/obs"
	"samielsq/internal/trace"
)

// shortDifferentialSet is the reduced matrix for -short (the race CI
// lane): a pointer chaser (the wakeup scheduler's raison d'être), a
// store-dominated mix, the two adversarial personalities, and two
// FP-heavy programs so both issue lanes see contention.
var shortDifferentialSet = []string{
	"mcf", "gzip", "swim", "art", "pointer-chaser", "store-burst",
}

// TestSchedulerDifferential runs every personality under both issue
// engines — the legacy O(in-flight) active-list walk and the
// event-driven wakeup scheduler — and requires identical per-run
// statistics. The full mode covers all 26 CPU2000 personalities plus
// the adversarial pair; Result equality covers cycles, IPC, every
// stall classification (HeadWaitIssue & co.), flush and forwarding
// counts, so any issue-order or wakeup-timing drift fails loudly.
//
// The legacy walk never skips a cycle, so this is also the oracle for
// the wakeup engine's quiescent-span skip: both engines carry an
// interval sampler whose small odd stride puts sample boundaries
// inside skipped spans, and the timelines, the energy meter and each
// model's own per-cycle statistics must match too.
func TestSchedulerDifferential(t *testing.T) {
	benchmarks := append(append([]string{}, trace.Benchmarks()...), "pointer-chaser", "store-burst")
	insts := uint64(30_000)
	if testing.Short() {
		benchmarks = shortDifferentialSet
		insts = 8_000
	}
	models := map[string]func(m *energy.Meter) lsq.Model{
		"samie":        func(m *energy.Meter) lsq.Model { return core.NewPaper(m) },
		"conventional": func(m *energy.Meter) lsq.Model { return lsq.NewConventional(128, m) },
		"arb64x2":      func(m *energy.Meter) lsq.Model { return lsq.NewARB(64, 2, 128) },
		"unbounded":    func(m *energy.Meter) lsq.Model { return lsq.NewUnbounded() },
	}
	for _, bench := range benchmarks {
		for mname, mk := range models {
			if mname != "samie" && testing.Short() && bench != "mcf" && bench != "store-burst" {
				continue // one model is enough for most of the short matrix
			}
			bench, mname, mk := bench, mname, mk
			t.Run(bench+"/"+mname, func(t *testing.T) {
				t.Parallel()
				p := trace.MustPersonality(bench)
				type run struct {
					res     Result
					meter   energy.Meter
					stats   any
					samples []obs.TimelineSample
					fr      *FlightRecorder
				}
				simulate := func(legacy bool) run {
					cfg := PaperConfig()
					cfg.LegacyIssueWalk = legacy
					m := energy.NewMeter()
					model := mk(m)
					c := New(cfg, trace.NewGenerator(p), model, nil, nil, nil, m)
					fr := NewFlightRecorder(16)
					c.SetFlightRecorder(fr)
					sampler := obs.NewIntervalSampler(37, 1<<14)
					sampler.SetEnabled(true)
					c.SetSampler(sampler)
					r := run{res: c.Run(insts), meter: *m, stats: modelStats(model), fr: fr}
					if tl := sampler.Snapshot(); tl != nil {
						r.samples = tl.Samples
					}
					for i := range r.samples {
						// Scheduler introspection exists only under the
						// wakeup engine; the legacy walk reports zeros.
						s := &r.samples[i]
						s.Waiters, s.Wheel, s.Attn = 0, 0, 0
					}
					return r
				}
				wakeup, legacy := simulate(false), simulate(true)
				if wakeup.res != legacy.res {
					// The flight recorders turn "results differ" into a
					// cycle-level diagnosis: first divergent issue set,
					// plus each engine's last recorded frames.
					if cyc, ok := FirstDivergence(wakeup.fr, legacy.fr); ok {
						t.Errorf("first divergent issue set at cycle %d", cyc)
					}
					t.Fatalf("wakeup scheduler diverged from the legacy walk:\nwakeup: %+v\nlegacy: %+v\nwakeup tail:\n%slegacy tail:\n%s",
						wakeup.res, legacy.res, wakeup.fr.Dump(), legacy.fr.Dump())
				}
				// Energy is part of the contract: LSQ models charge
				// CAM/entry energy per model call, so the wakeup path
				// must preserve the exact call pattern, not just the
				// architectural outcome.
				if wakeup.meter != legacy.meter {
					t.Fatalf("energy accounting diverged:\nwakeup: %+v\nlegacy: %+v", wakeup.meter, legacy.meter)
				}
				if wakeup.stats != legacy.stats {
					t.Fatalf("model statistics diverged:\nwakeup: %+v\nlegacy: %+v", wakeup.stats, legacy.stats)
				}
				if len(wakeup.samples) == 0 || !slices.Equal(wakeup.samples, legacy.samples) {
					t.Fatalf("timelines diverged (%d vs %d samples):\nwakeup: %+v\nlegacy: %+v",
						len(wakeup.samples), len(legacy.samples), firstDiff(wakeup.samples, legacy.samples), firstDiff(legacy.samples, wakeup.samples))
				}
			})
		}
	}
}

// modelStats returns the model's own per-cycle and per-event
// statistics in a comparable form.
func modelStats(m lsq.Model) any {
	switch m := m.(type) {
	case *core.SAMIE:
		return m.Stats()
	case *lsq.Conventional:
		return struct {
			Occupancy     lsq.OccupancyStats
			DispatchFails uint64
		}{m.Occupancy(), m.DispatchFails()}
	case *lsq.ARB:
		return [2]uint64{m.PlaceFails(), m.DispatchStalls()}
	}
	return nil
}

// firstDiff returns the first sample of a that b does not match.
func firstDiff(a, b []obs.TimelineSample) any {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return a[i]
		}
	}
	return nil
}

// TestWakeupObservesRecycledProducer pins the generation-tag protocol
// of the wakeup path: a consumer's wakeup is enqueued on the timing
// wheel when its producer load performs (at the producer's readyAt),
// but the commit stage runs before the issue stage, so when readyAt
// arrives the producer — sitting at the ROB head — has already
// committed and its dynInst slot recycled (generation bumped) before
// the wakeup drains. producerDone must classify the operand as ready
// via the generation mismatch without reading the recycled slot's
// stale state/readyAt.
func TestWakeupObservesRecycledProducer(t *testing.T) {
	var insts []isa.Inst
	insts = append(insts, load(1, 0x900000)) // cold miss: long readyAt
	insts = append(insts, alu(2, 1))         // consumer of the load
	for i := 0; i < 64; i++ {
		insts = append(insts, alu(int16(3+i%8), isa.RegNone))
	}

	c := mk(insts, nil) // default: wakeup scheduler
	if c.ev == nil {
		t.Fatal("wakeup scheduler not active by default")
	}
	// Step until the load commits. The commit happens at the cycle the
	// load's readyAt expires — the same cycle the consumer's wheel
	// entry fires.
	deadline := 10_000
	for c.res.Committed == 0 {
		c.step()
		if deadline--; deadline < 0 {
			t.Fatal("load never committed")
		}
	}
	if c.res.Committed != 1 {
		t.Fatalf("committed %d this cycle, want exactly the producer load", c.res.Committed)
	}
	if len(c.freeInsts) == 0 {
		t.Fatal("producer was not recycled at commit")
	}
	// The consumer is now the ROB head. Its wakeup drained this same
	// cycle, after the recycle: it must have observed the recycled
	// producer as done and issued.
	head := c.rob.front()
	if head.in.Cls != isa.ClassIntALU {
		t.Fatalf("ROB head is %v, want the consumer ALU", head.in.Cls)
	}
	if head.state < stIssued {
		t.Fatalf("consumer state %d after its producer's recycle-cycle wakeup, want issued", head.state)
	}
	if head.srcA != nil {
		t.Fatal("consumer still holds a reference to the recycled producer")
	}

	// The end-to-end run must match the legacy walk exactly.
	run := func(legacy bool) Result {
		cfg := PaperConfig()
		cfg.LegacyIssueWalk = legacy
		cc := New(cfg, isa.NewSliceStream(insts), lsq.NewUnbounded(), nil, nil, nil, nil)
		return cc.Run(uint64(len(insts)))
	}
	if a, b := run(false), run(true); a != b {
		t.Fatalf("recycle scenario diverged:\nwakeup: %+v\nlegacy: %+v", a, b)
	}
}

// TestWheelLapRequeue pins the timing-wheel overflow path: an entry
// whose wake cycle is more than wheelSize cycles ahead must re-queue
// at drain time instead of waking early.
func TestWheelLapRequeue(t *testing.T) {
	c := mk([]isa.Inst{alu(1, isa.RegNone)}, nil)
	c.Run(1)
	d := &dynInst{}
	far := c.cycle + wheelSize + 5
	c.ev.park(d, far)
	for cyc := c.cycle + 1; cyc < far; cyc++ {
		c.ev.drainWheel(cyc)
		if got, ok := c.ev.attn.nextSet(0, c.ev.attn.mask+1); ok {
			t.Fatalf("lapped wheel entry woke early at cycle %d (bit %d)", cyc, got)
		}
	}
	c.ev.drainWheel(far)
	if _, ok := c.ev.attn.nextSet(0, c.ev.attn.mask+1); !ok {
		t.Fatal("wheel entry never fired at its wake cycle")
	}
}

// TestWheelNextEvent pins the occupancy-bitmap search that ends a
// quiescent span: the first non-empty bucket at or after a cycle,
// wrapping round the wheel, including an entry a full lap ahead that
// shares the starting bucket's word.
func TestWheelNextEvent(t *testing.T) {
	ev := newEventSched(256)
	const base = 10 * wheelSize
	if at, ok := ev.nextEvent(base); ok {
		t.Fatalf("empty wheel reports an event at %d", at)
	}
	for _, tc := range []struct {
		park []uint64 // wake cycles, relative to base
		from uint64
		want uint64
	}{
		{[]uint64{5}, 0, 5},
		{[]uint64{5}, 5, 5},
		{[]uint64{5, 900}, 6, 900},
		{[]uint64{3}, 70, wheelSize + 3},       // wraps past the last word
		{[]uint64{66}, 70, wheelSize + 66},     // the starting word, a lap ahead
		{[]uint64{200, 64 + 1000}, 1000, 1064}, // nearest of two
	} {
		ev.reset()
		for _, at := range tc.park {
			ev.park(&dynInst{}, base+at)
		}
		if at, ok := ev.nextEvent(base + tc.from); !ok || at != base+tc.want {
			t.Errorf("parked %v, from %d: nextEvent = %d,%v want %d", tc.park, tc.from, at-base, ok, tc.want)
		}
	}
	ev.reset()
	ev.park(&dynInst{}, base+7)
	ev.drainWheel(base + 7)
	if at, ok := ev.nextEvent(base); ok {
		t.Fatalf("drained bucket still reports an event at %d", at-base)
	}
}

// TestSeqBitmapWindow exercises the bitmap over a wrapping seq window.
func TestSeqBitmapWindow(t *testing.T) {
	b := newSeqBitmap(256)
	base := uint64(1<<40) - 3 // straddles the mask boundary
	b.set(base + 1)
	b.set(base + 200)
	if s, ok := b.nextSet(base, base+256); !ok || s != base+1 {
		t.Fatalf("nextSet = %d,%v want %d", s, ok, base+1)
	}
	if s, ok := b.nextSet(base+2, base+256); !ok || s != base+200 {
		t.Fatalf("nextSet = %d,%v want %d", s, ok, base+200)
	}
	b.clear(base + 200)
	if _, ok := b.nextSet(base+2, base+256); ok {
		t.Fatal("cleared bit still found")
	}
	if _, ok := b.nextSet(base+2, base+100); ok {
		t.Fatal("nextSet ignored its end bound")
	}
}
