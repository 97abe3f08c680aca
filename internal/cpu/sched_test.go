package cpu

import (
	"fmt"
	"math/rand/v2"
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

// differentialTraces are the 28 traces: all 26 CPU2000 personalities
// plus the adversarial pair.
var differentialTraces = slices.Concat(trace.Benchmarks(), []string{"pointer-chaser", "store-burst"})

// TestSchedulerDifferential runs the wakeup scheduler beside the
// ROB-walk oracle (oracle_test.go) and requires identical per-run
// statistics. The fixed matrix covers all 26 CPU2000 personalities
// plus the adversarial pair on the paper configuration and the four
// default LSQ geometries; the random half draws seeded configurations
// from the whole space the validators accept. Result equality covers
// cycles, IPC, every stall classification (HeadWaitIssue & co.), flush
// and forwarding counts, so any issue-order or wakeup-timing drift
// fails loudly.
//
// The two engines run in lockstep: after every advance of the wakeup
// engine (a step, or a quiescent skip and a step) the oracle steps to
// the same cycle, both instruction windows must keep their invariants,
// and results, energy and ROB windows must match, so a failure names
// the first divergent span. The oracle never skips a cycle, so this is
// also the check on the quiescent-span skip: both engines carry an
// interval sampler whose small odd stride puts sample boundaries
// inside skipped spans, and the timelines and each model's own
// per-cycle statistics must match at the end too. The random
// configurations' ROB and fetch-queue sizes are mostly not powers of
// two, so the window's masking is exercised below its capacity.
func TestSchedulerDifferential(t *testing.T) {
	benchmarks := differentialTraces
	insts := uint64(30_000)
	if testing.Short() {
		benchmarks = shortDifferentialSet
		insts = 8_000
	}
	for _, bench := range benchmarks {
		for _, m := range matrixModels {
			mname, mk := m.name, m.mk
			if mname != "samie" && testing.Short() && bench != "mcf" && bench != "store-burst" {
				continue // one model is enough for most of the short matrix
			}
			t.Run(bench+"/"+mname, func(t *testing.T) {
				t.Parallel()
				crossed := checkDifferential(t, diffCase{cfg: PaperConfig(), bench: bench, modelDesc: mname, model: mk}, insts)
				// The pointer-chasing mcf spends long spans waiting on
				// misses: if none of its skips runs on past a sample,
				// the chunked accounting goes unchecked.
				if bench == "mcf" && crossed == 0 {
					t.Fatal("no quiescent skip went on past an interval sample")
				}
			})
		}
	}
	testRandomDifferential(t)
}

// Random differential sizes: full mode, and -short (the race CI lane).
const (
	randomDiffSeed         = 0x5a41_1e15
	randomDiffConfigs      = 600
	randomDiffInsts        = 6_000
	randomDiffShortConfigs = 40
	randomDiffShortInsts   = 3_000
)

// testRandomDifferential draws seeded configurations: widths 1-8, ROB
// 8-256, issue queues 2-128, 1-4 Dcache ports, mispredict penalty 0-20
// and deadlock patience 0-32, with a random SAMIE (all four flags,
// LineBytes up to the 32-byte L1D line), conventional or ARB geometry,
// on one of the 28 traces. Config i uses its own PCG stream, so a
// failure reproduces alone: go test -run 'SchedulerDifferential/random/NNN'.
// The generator cannot be shared with FuzzValidSpec: that fuzz target
// samples experiments.RunSpec, and package experiments imports cpu.
func testRandomDifferential(t *testing.T) {
	n, insts := randomDiffConfigs, uint64(randomDiffInsts)
	if testing.Short() {
		n, insts = randomDiffShortConfigs, randomDiffShortInsts
	}
	for i := 0; i < n; i++ {
		dc := randomDiffCase(rand.New(rand.NewPCG(randomDiffSeed, uint64(i))))
		t.Run(fmt.Sprintf("random/%03d", i), func(t *testing.T) {
			t.Parallel()
			checkDifferential(t, dc, insts)
		})
	}
}

// diffCase is one configuration both engines run.
type diffCase struct {
	cfg       Config
	bench     string
	modelDesc string // the model's geometry, for failure messages
	model     func(m *energy.Meter) lsq.Model
}

func (dc diffCase) String() string {
	return fmt.Sprintf("bench=%s model=%s cpu=%+v", dc.bench, dc.modelDesc, dc.cfg)
}

// randomDiffCase draws one valid diffCase. Fields the validators
// bound are drawn from ranges that include invalid values, and a draw
// is repeated until cpu.Config.Validate and core.Config.Validate
// accept it.
func randomDiffCase(rng *rand.Rand) diffCase {
	in := func(lo, hi int) int { return lo + rng.IntN(hi-lo+1) }
	dc := diffCase{bench: differentialTraces[rng.IntN(len(differentialTraces))]}
	for {
		dc.cfg = Config{
			FetchWidth: in(1, 8), DecodeWidth: in(1, 8),
			IssueInt: in(1, 8), IssueFP: in(1, 8), CommitWidth: in(1, 8),
			FetchQueue: in(0, 64), ROBSize: in(8, 256),
			IQInt: in(2, 128), IQFP: in(2, 128),
			IntALU: in(0, 8), IntMulDiv: in(0, 4), FPALU: in(0, 4), FPMulDiv: in(0, 4),
			DcachePorts:       in(1, 4),
			MispredictPenalty: in(0, 20),
			DeadlockPatience:  in(0, 32),
		}
		if dc.cfg.Validate() == nil {
			break
		}
	}
	switch rng.IntN(3) {
	case 0:
		var sc core.Config
		for {
			sc = core.Config{
				Banks: in(0, 128), EntriesPerBank: in(0, 4), SlotsPerEntry: in(0, 16),
				SharedEntries: in(-1, 16), AddrBufferSlots: in(0, 128), LineBytes: in(0, 32),
				SharedUnbounded: rng.IntN(2) == 0, DisableWayCaching: rng.IntN(2) == 0,
				DisableTLBCaching: rng.IntN(2) == 0, FastWayKnown: rng.IntN(2) == 0,
			}
			if sc.Validate() == nil {
				break
			}
		}
		dc.modelDesc = fmt.Sprintf("samie%+v", sc)
		dc.model = func(m *energy.Meter) lsq.Model { return core.New(sc, m) }
	case 1:
		entries := in(1, 256)
		dc.modelDesc = fmt.Sprintf("conventional(%d)", entries)
		dc.model = func(m *energy.Meter) lsq.Model { return lsq.NewConventional(entries, m) }
	default:
		banks, addrs, inflight := in(1, 128), in(1, 8), in(1, 256)
		dc.modelDesc = fmt.Sprintf("arb(%d,%d,%d)", banks, addrs, inflight)
		dc.model = func(*energy.Meter) lsq.Model { return lsq.NewARB(banks, addrs, inflight) }
	}
	return dc
}

// engine is one side of the differential: a CPU with its LSQ model
// and an interval sampler whose small odd stride puts sample
// boundaries inside quiescent skips.
type engine struct {
	cpu     *CPU
	model   lsq.Model
	sampler *obs.IntervalSampler
}

// build constructs one side of the differential.
func (dc diffCase) build(oracle bool) engine {
	m := energy.NewMeter()
	e := engine{model: dc.model(m), sampler: obs.NewIntervalSampler(37, 1<<14)}
	strm := trace.NewGenerator(trace.MustPersonality(dc.bench))
	if oracle {
		e.cpu = newOracle(dc.cfg, strm, e.model, m)
	} else {
		e.cpu = New(dc.cfg, strm, e.model, nil, nil, nil, m)
	}
	e.cpu.SetSampler(e.sampler)
	return e
}

// samples returns the engine's timeline less the scheduler
// introspection, which exists only under the wakeup engine (the oracle
// reports zeros).
func (e engine) samples() []obs.TimelineSample {
	tl := e.sampler.Snapshot()
	if tl == nil {
		return nil
	}
	for i := range tl.Samples {
		s := &tl.Samples[i]
		s.Waiters, s.Wheel, s.Attn = 0, 0, 0
	}
	return tl.Samples
}

// checkDifferential runs dc under both engines in lockstep, which
// checks both instruction windows and compares the Results, energy
// meters and ROB windows after every advance, then compares what only
// the end of the run shows: each model's own statistics, the cache and
// TLB miss rates and the interval timelines. It fails t on any
// difference. It returns how many quiescent skips went on past an
// interval sample (lockstep's crossed).
func checkDifferential(t *testing.T, dc diffCase, insts uint64) (crossed int) {
	t.Helper()
	wake, oracle := dc.build(false), dc.build(true)
	d, crossed := lockstep(wake.cpu, oracle.cpu, insts)
	if d != nil {
		t.Fatalf("wakeup scheduler diverged from the ROB-walk oracle on %v\n%v", dc, d)
	}
	a, b := wake.cpu, oracle.cpu
	wt, ot := wake.samples(), oracle.samples()
	var what string
	switch {
	case modelStats(wake.model) != modelStats(oracle.model):
		what = fmt.Sprintf("model statistics diverged:\nwakeup: %+v\noracle: %+v", modelStats(wake.model), modelStats(oracle.model))
	case a.hier.L1D.MissRate() != b.hier.L1D.MissRate() || a.dtlb.MissRate() != b.dtlb.MissRate():
		what = fmt.Sprintf("miss rates diverged: L1D %v vs %v, DTLB %v vs %v",
			a.hier.L1D.MissRate(), b.hier.L1D.MissRate(), a.dtlb.MissRate(), b.dtlb.MissRate())
	case len(wt) == 0 || !slices.Equal(wt, ot):
		what = fmt.Sprintf("timelines diverged (%d vs %d samples):\nwakeup: %+v\noracle: %+v",
			len(wt), len(ot), firstDiff(wt, ot), firstDiff(ot, wt))
	default:
		return crossed
	}
	t.Fatalf("wakeup scheduler diverged from the ROB-walk oracle on %v\n%s", dc, what)
	return crossed
}

// modelStats returns the model's own per-cycle and per-event
// statistics in a comparable form.
func modelStats(m lsq.Model) any {
	switch m := m.(type) {
	case *core.SAMIE:
		return m.Stats()
	case *lsq.Conventional:
		return m.Occupancy()
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

// TestWakeupObservesRecycledProducer pins the seq < head rule of the
// wakeup path: a consumer's wakeup is enqueued on the timing wheel
// when its producer load performs (at the producer's readyAt), but the
// commit stage runs before the issue stage, so when readyAt arrives
// the producer — sitting at the ROB head — has already committed and
// the window head has moved past its seq before the wakeup drains.
// producerDone must classify the operand as ready from the seq alone,
// without reading the committed slot, which a later decode may reuse.
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
	if c.res.Committed != 1 || c.win.head != 1 {
		t.Fatalf("committed %d this cycle (window head %d), want exactly the producer load", c.res.Committed, c.win.head)
	}
	// The consumer is now the ROB head. Its wakeup drained this same
	// cycle, after the commit: it must have observed the committed
	// producer as done and issued.
	head := c.win.at(c.win.head)
	if head.in.Cls != isa.ClassIntALU {
		t.Fatalf("ROB head is %v, want the consumer ALU", head.in.Cls)
	}
	if head.state < stIssued {
		t.Fatalf("consumer state %d after its producer's commit-cycle wakeup, want issued", head.state)
	}
	if head.srcA != noSeq {
		t.Fatalf("consumer still bound to producer seq %d", head.srcA)
	}
	// A committed producer is done whatever its slot now holds.
	*c.win.at(0) = dynInst{readyAt: ^uint64(0)}
	if !c.producerDone(0) {
		t.Fatal("producer below the window head classified as outstanding")
	}

	// The end-to-end run must match the ROB-walk oracle exactly.
	a := New(PaperConfig(), isa.NewSliceStream(insts), lsq.NewUnbounded(), nil, nil, nil, nil).Run(uint64(len(insts)))
	b := newOracle(PaperConfig(), isa.NewSliceStream(insts), lsq.NewUnbounded(), nil).Run(uint64(len(insts)))
	if a != b {
		t.Fatalf("commit-cycle wakeup scenario diverged:\nwakeup: %+v\noracle: %+v", a, b)
	}
}

// TestWheelLapRequeue pins the timing-wheel overflow path: an entry
// whose wake cycle is more than wheelSize cycles ahead must re-queue
// at drain time instead of waking early.
func TestWheelLapRequeue(t *testing.T) {
	c := mk([]isa.Inst{alu(1, isa.RegNone)}, nil)
	c.Run(1)
	d := c.win.at(0) // the committed instruction's slot
	far := c.cycle + wheelSize + 5
	c.ev.park(d, far)
	for cyc := c.cycle + 1; cyc < far; cyc++ {
		c.ev.drainWheel(cyc, &c.win)
		if got, ok := c.ev.attn.nextSet(0, c.ev.attn.mask+1); ok {
			t.Fatalf("lapped wheel entry woke early at cycle %d (bit %d)", cyc, got)
		}
	}
	c.ev.drainWheel(far, &c.win)
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
	win := newWindow(256)
	for i := range win.slots {
		win.slots[i].in.Seq = uint64(i)
	}
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
		for i, at := range tc.park {
			ev.park(win.at(uint64(i)), base+at)
		}
		if at, ok := ev.nextEvent(base + tc.from); !ok || at != base+tc.want {
			t.Errorf("parked %v, from %d: nextEvent = %d,%v want %d", tc.park, tc.from, at-base, ok, tc.want)
		}
	}
	ev.reset()
	ev.park(win.at(0), base+7)
	ev.drainWheel(base+7, &win)
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

// failOnceModel is the unbounded LSQ, except that it answers the first
// AddressReady of seq fail with a placement failure (§3.3 scenario 2),
// which no shipped model produces on the traces. onFail, if set, runs
// at that answer.
type failOnceModel struct {
	*lsq.Conventional
	fail   uint64
	onFail func()
}

func (m *failOnceModel) AddressReady(seq uint64, isLoad bool, addr uint64, size uint8) lsq.Placement {
	if seq != m.fail {
		return m.Conventional.AddressReady(seq, isLoad, addr, size)
	}
	m.fail = noSeq // re-executed after the flush, it places
	if m.onFail != nil {
		m.onFail()
	}
	return lsq.Placement{Failed: true}
}

// TestPlacementFailureFlushMidWalk covers the flush completeExec raises
// inside the wakeup scheduler's issue walk. The walk has no flush
// guard of its own: the flush resets the attention set, so the walk
// finds no younger instruction left to visit, as the oracle's ROB walk
// ends on the emptied ROB. The stream keeps the walk busy: each load
// has a consumer parked on it and is followed by more independent
// ALU operations than the ALUs issue, so younger instructions still
// await the walk when the chosen load fails placement. The run must
// match the oracle cycle by cycle, and re-execute to the end.
func TestPlacementFailureFlushMidWalk(t *testing.T) {
	var insts []isa.Inst
	for b := range 128 {
		insts = append(insts, load(1, uint64(b)*64), alu(2, 1))
		for j := range 14 {
			insts = append(insts, alu(int16(3+j%8), isa.RegNone))
		}
	}
	const fail = 40 * 16 // the load of block 40
	wakeModel := &failOnceModel{Conventional: lsq.NewUnbounded(), fail: fail}
	wake := mk(insts, wakeModel)
	oracle := newOracle(PaperConfig(), isa.NewSliceStream(insts), &failOnceModel{Conventional: lsq.NewUnbounded(), fail: fail}, nil)
	younger := false
	wakeModel.onFail = func() {
		_, younger = wake.ev.attn.nextSet(fail+1, wake.win.disp)
	}
	if d, _ := lockstep(wake, oracle, uint64(len(insts))); d != nil {
		t.Fatalf("wakeup scheduler diverged from the ROB-walk oracle around a placement failure\n%v", d)
	}
	if !younger {
		t.Fatal("no younger instruction awaited the walk when the load failed placement")
	}
	for _, c := range []*CPU{wake, oracle} {
		if c.res.PlacementFailures != 1 || c.res.Committed != uint64(len(insts)) {
			t.Fatalf("%d placement failures, %d of %d committed; want 1 and all", c.res.PlacementFailures, c.res.Committed, len(insts))
		}
	}
}
