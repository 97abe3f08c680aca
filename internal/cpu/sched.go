package cpu

import (
	"math/bits"

	"samielsq/internal/isa"
)

// Event-driven wakeup scheduler: the issue/writeback stage.
//
// Its specification is the ROB walk: every cycle, visit every ROB
// entry oldest-first and re-run its issue, completion or memory-access
// check. That walk is O(in-flight) switch dispatches, operand checks
// and LSQ re-probes per cycle, which is exactly the regime low-IPC
// pointer chasers (mcf, the pointer-chaser stress personality) spend
// hundreds of cycles in. It survives only as a test: the oracle in
// oracle_test.go, which TestSchedulerDifferential runs beside this
// scheduler. The wakeup scheduler instead keeps a blocked instruction
// parked on the one event that can unblock it and visits only the
// instructions that might act this cycle, so the issue stage touches
// O(issue width + newly woken) instructions.
//
// Correctness bar: byte-identical simulation results (the golden suite
// and TestSchedulerDifferential are the arbiters). Two properties make
// that achievable:
//
//  1. Age-ordered visiting. The ROB walk's per-cycle order is ROB
//     age order; every same-cycle interaction (a producer completing
//     before its consumer issues, an AGEN consuming LSQ capacity before
//     a younger AGEN's gate check, lane-width cutoffs) follows from it.
//     The scheduler therefore keeps "needs attention this cycle" as a
//     bitmap indexed by seq (the ROB is a contiguous seq window), and
//     the walk scans it in seq order. Wakes raised mid-walk are always
//     for younger instructions — producers wake consumers, stores wake
//     younger loads — so the scan picks them up in their correct age
//     position.
//
//  2. Conservative, never-late wakeups. A woken instruction re-runs the
//     exact per-cycle check the ROB walk ran, so waking too often
//     costs only time. What must never happen is waking late: for every
//     blocking condition there is a hook that fires the first cycle the
//     ROB walk's check could newly pass:
//
//     operand not ready      -> parked on the producer's waiter list;
//                               drained into the wheel/attention at the
//                               producer's stDone transition, at its
//                               readyAt cycle (producerDone's gate)
//     execution latency      -> timing-wheel entry at readyAt
//     not placed in the LSQ  -> drainAddrBuffer wakes the instruction
//                               the cycle the model reports placement
//     readyBit (older store  -> rbWait bitmap; the store-address
//     address unknown)          delivery path wakes every waiter the
//                               frontier advanced past
//     structural hazards     -> attention bit stays set (per-cycle
//     (lane width, FU, ports,   contention must be re-arbitrated
//     AGEN capacity gate,       against age priority every cycle)
//     forwarding data wait)
//
// A load whose forwarding source store has not yet delivered its data
// deliberately stays in the attention set rather than parking on the
// store: the ROB walk re-probes Model.ForwardingSource every cycle,
// and LSQ models charge CAM/entry energy per probe (the paper's
// conventional LSQ burns search energy on every retry). Retrying keeps
// the per-cycle model call sequence — and therefore the metered energy
// — bit-identical. These waits are short (the store's data is already
// the next thing to arrive) and rare on the low-IPC chains the
// scheduler targets. Letting them join quiescent spans (replaying the
// probe's energy per skipped cycle) was tried and rejected: it cut the
// stepped cycles of the core matrix by 12.9% but slowed it, because
// such a cycle costs little to step (docs/performance.md §4).
//
// Every wait structure names instructions by seq, resolved through
// the instruction window. A pipeline flush discards them wholesale;
// flushed instructions re-enter through dispatch, which empties their
// waiter lists and re-parks them as the ROB range refills. A flush
// inside the walk (a §3.3 placement failure) ends the walk: the reset
// attention set has no bit left for it to find.
//
// Quiescent spans. Most cycles of a low-IPC run change no pipeline
// state: the ROB head waits out a load's readyAt while everything
// behind it is parked. Run therefore fast-forwards (skipQuiescent) over
// a span when, after a step, all of these hold:
//
//   - the attention set is empty, so the walk would visit nothing;
//   - the last Model.Tick placed nothing, so by the Tick contract none
//     will until a Commit or Flush, and neither can happen in the span;
//   - the ROB head can neither commit nor deadlock-block (headBlocked
//     counts toward DeadlockPatience, so a blocked head is stepped);
//   - dispatch is a provable no-op: the fetch queue is empty, or its
//     front waits on a full ROB or issue queue (a refused
//     Model.Dispatch touches no state, but skipping a full-LSQ stall
//     has not been shown exact, so such a cycle is stepped);
//   - fetch is a provable no-op: blocked, its queue full, or the
//     stream drained.
//
// The span ends at the earliest of the head's readyAt, the next
// non-empty timing-wheel bucket (found through a 16-word occupancy
// bitmap over the 1024 buckets), fetchBlockedUntil and Run's
// safety-valve cycle limit; that cycle is stepped normally. The span
// replays exactly what its cycles' steps would have done to state and
// statistics, at one call per chunk rather than per cycle: chunks end
// at the interval sampler's due cycles (endOfCycleTelemetry runs at
// each chunk end), and each adds its length once to the head-stall
// class (classifyHeadStall), the dispatch and fetch stall counters and
// Model.AccountCycles. That is exact because no state a step reads
// changes in a span: its end is at most the head's readyAt and
// fetchBlockedUntil, and no Tick, Commit or Flush happens in it. The
// models' occupancy and §4.5 area sums add k*term in one step, exact
// because every term is an integer (an entry count, or an area built
// from integer Table 6 cells, TestCellAreasAreIntegers), so a chunk
// costs the same whatever k. During RunWarmTimed's warm-up neither a
// step nor a span calls Model.AccountCycles at all (accountCycles): the
// warm-up statistics are reset unread. The ROB-walk oracle never skips,
// so TestSchedulerDifferential holds the skip to it too.

// wheelSize bounds the timing wheel. Deltas are execution latencies
// (bounded by a memory-hierarchy miss, well under wheelSize); an entry
// that lapped the wheel anyway is re-queued at drain, so correctness
// does not depend on the bound.
const (
	wheelSize = 1024
	wheelMask = wheelSize - 1
)

// seqBitmap is a bitset over the ROB's contiguous sequence-number
// window, indexed by seq & mask. The backing size is the next power of
// two >= ROBSize, so live sequence numbers never alias.
type seqBitmap struct {
	words []uint64
	mask  uint64
}

func newSeqBitmap(window int) seqBitmap {
	size := 64
	for size < window {
		size <<= 1
	}
	return seqBitmap{words: make([]uint64, size/64), mask: uint64(size - 1)}
}

func (b *seqBitmap) set(seq uint64) {
	i := seq & b.mask
	b.words[i>>6] |= 1 << (i & 63)
}

func (b *seqBitmap) clear(seq uint64) {
	i := seq & b.mask
	b.words[i>>6] &^= 1 << (i & 63)
}

// nextSet returns the smallest set seq in [from, end). The caller
// guarantees end-from is at most the bitmap size (the ROB window).
// Bits set during an in-progress scan at positions >= the cursor are
// observed — the property same-cycle wakeups rely on.
func (b *seqBitmap) nextSet(from, end uint64) (uint64, bool) {
	for seq := from; seq < end; {
		i := seq & b.mask
		w := b.words[i>>6] >> (i & 63)
		if w != 0 {
			s := seq + uint64(bits.TrailingZeros64(w))
			if s < end {
				return s, true
			}
			return 0, false
		}
		seq += 64 - (i & 63)
	}
	return 0, false
}

func (b *seqBitmap) reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// eventSched is the scheduler state. All storage is fixed at
// construction; parking and waking are seq/bit operations on links
// in the window slots, so the steady-state path allocates nothing.
type eventSched struct {
	// attn holds the instructions the walk must visit this cycle (and,
	// for per-cycle structural losers, again next cycle).
	attn seqBitmap
	// rbWait holds loads blocked on the readyBit frontier (an older
	// store's address is unknown).
	rbWait seqBitmap
	// wheel buckets future wakeups by cycle & wheelMask: each holds the
	// seq heading a list chained through dynInst.wheelNext, or noSeq.
	// Bit i of occ is set exactly when bucket i is non-empty.
	wheel [wheelSize]uint64
	occ   [wheelSize / 64]uint64
}

func newEventSched(robSize int) *eventSched {
	ev := &eventSched{
		attn:   newSeqBitmap(robSize),
		rbWait: newSeqBitmap(robSize),
	}
	ev.reset()
	return ev
}

// reset discards every wait structure (pipeline flush). The links in
// the slots need no reset: dispatch empties a waiter list, and parking
// writes the others before they are read.
func (ev *eventSched) reset() {
	ev.attn.reset()
	ev.rbWait.reset()
	for i := range ev.wheel {
		ev.wheel[i] = noSeq
	}
	ev.occ = [wheelSize / 64]uint64{}
}

// park schedules d's next visit at cycle `at`.
//
//samie:hotpath
func (ev *eventSched) park(d *dynInst, at uint64) {
	d.wakeCycle = at
	i := at & wheelMask
	d.wheelNext = ev.wheel[i]
	ev.wheel[i] = d.in.Seq
	ev.occ[i>>6] |= 1 << (i & 63)
}

// nextEvent returns the first cycle at or after from whose wheel
// bucket is non-empty.
//
//samie:hotpath
func (ev *eventSched) nextEvent(from uint64) (uint64, bool) {
	i := from & wheelMask
	if w := ev.occ[i>>6] >> (i & 63); w != 0 {
		return from + uint64(bits.TrailingZeros64(w)), true
	}
	// Whole words after i's, wrapping round to i's own word, whose low
	// bits are the buckets a full lap ahead.
	dist := 64 - (i & 63)
	for k := uint64(1); k <= uint64(len(ev.occ)); k++ {
		if w := ev.occ[((i>>6)+k)%uint64(len(ev.occ))]; w != 0 {
			return from + dist + uint64(bits.TrailingZeros64(w)), true
		}
		dist += 64
	}
	return 0, false
}

// parkOnProducer parks d until producer p's value is available. A
// producer that already wrote back (stDone, waiter list drained) can
// only be waiting out its readyAt, which is a known cycle: wheel. An
// in-flight producer gets d on its waiter list, drained at its stDone
// transition. Callers only park when producerDone reported false, so p
// is in the ROB and, if stDone, readyAt is in the future.
//
//samie:hotpath
func (ev *eventSched) parkOnProducer(d, p *dynInst) {
	if p.state >= stDone {
		ev.park(d, p.readyAt)
		return
	}
	d.waitNext = p.waiterHead
	p.waiterHead = d.in.Seq
}

// drainWheel moves this cycle's bucket into the attention set. Entries
// whose wake cycle lapped the wheel re-queue for their real cycle.
//
//samie:hotpath
func (ev *eventSched) drainWheel(cycle uint64, win *window) {
	i := cycle & wheelMask
	seq := ev.wheel[i]
	ev.wheel[i] = noSeq
	ev.occ[i>>6] &^= 1 << (i & 63)
	for seq != noSeq {
		d := win.at(seq)
		next := d.wheelNext
		if d.wakeCycle > cycle {
			ev.park(d, d.wakeCycle)
		} else {
			ev.attn.set(seq)
		}
		seq = next
	}
}

// wakeWaiters drains d's waiter list at its stDone transition. Waiters
// whose check (producerDone) passes this cycle go straight to the
// attention set — they are younger than d, so the in-progress walk
// still visits them in age order this cycle, exactly as the ROB
// walk would. A result arriving later (a load's readyAt) goes to the
// wheel. The list empties here, before d can ever commit: a waiter
// that drains after the commit re-checks producerDone, which finds d's
// seq below the window head and classifies it done without reading
// the slot, which a later decode may have reused.
//
//samie:hotpath
func (c *CPU) wakeWaiters(d *dynInst) {
	if c.ev == nil {
		return
	}
	seq := d.waiterHead
	d.waiterHead = noSeq
	for seq != noSeq {
		w := c.win.at(seq)
		next := w.waitNext
		if d.readyAt > c.cycle {
			c.ev.park(w, d.readyAt)
		} else {
			c.ev.attn.set(seq)
		}
		seq = next
	}
}

// parkIssueOperands applies the issue gate, parking d on the first
// producer whose value is still outstanding. For a store only SrcA
// (the address register) gates address generation: the data operand
// is needed only to complete, matching real pipelines where the store
// address is computed independently of the data. This is what lets
// the readyBit scheme make progress. A producer observed done is
// severed (the verdict is permanent until a flush, which rebinds
// producers at re-dispatch), so the per-visit recheck degrades to
// noSeq tests.
//
//samie:hotpath
func (c *CPU) parkIssueOperands(d *dynInst) bool {
	if d.srcA != noSeq {
		if !c.producerDone(d.srcA) {
			c.ev.parkOnProducer(d, c.win.at(d.srcA))
			return true
		}
		d.srcA = noSeq
	}
	if d.in.Cls == isa.ClassStore {
		// Only the address register gates a store's AGEN; the data
		// operand is waited on after placement (stepStore).
		return false
	}
	if d.srcB != noSeq {
		if !c.producerDone(d.srcB) {
			c.ev.parkOnProducer(d, c.win.at(d.srcB))
			return true
		}
		d.srcB = noSeq
	}
	return false
}

// schedAdmit registers a freshly dispatched instruction: parked on its
// first outstanding producer, or put up for attention next cycle (the
// ROB walk likewise first considers a new dispatch the following
// cycle, dispatch running after the issue stage).
//
//samie:hotpath
func (c *CPU) schedAdmit(d *dynInst) {
	if !c.parkIssueOperands(d) {
		c.ev.attn.set(d.in.Seq)
	}
}

// wakeReadyBitWaiters wakes every load the advancing readyBit frontier
// unblocked: those older than the new frontier store (newFrontier is
// ^0 when no store address is outstanding). Called from the
// store-address-delivery path whenever the frontier may have moved;
// woken loads re-run tryPerformLoad in their age position this cycle,
// matching the ROB walk's per-cycle recheck.
//
//samie:hotpath
func (c *CPU) wakeReadyBitWaiters(newFrontier uint64) {
	head, end := c.win.head, c.win.disp
	limit := end
	if newFrontier != ^uint64(0) && newFrontier+1 < end {
		limit = newFrontier + 1
	}
	ev := c.ev
	for seq := head; ; {
		s, ok := ev.rbWait.nextSet(seq, limit)
		if !ok {
			return
		}
		ev.rbWait.clear(s)
		ev.attn.set(s)
		seq = s + 1
	}
}

// wakeupIssue is the event-driven issue/writeback stage: drain this
// cycle's wheel bucket, then visit the attention set in age order with
// the same per-instruction actions as the ROB walk. Lane-width and
// structural losers keep their attention bit (contention re-arbitrates
// by age next cycle); everything else leaves the set by parking on its
// blocking event or by completing.
//
//samie:hotpath
func (c *CPU) wakeupIssue(dports *int) {
	ev := c.ev
	ev.drainWheel(c.cycle, &c.win)
	intIssued, fpIssued := 0, 0
	aluUsed := 0
	for seq, end := c.win.head, c.win.disp; ; {
		s, ok := ev.attn.nextSet(seq, end)
		if !ok {
			break
		}
		seq = s + 1
		d := c.win.at(s)
		switch d.state {
		case stIssued:
			if d.readyAt > c.cycle {
				break // early wake; the wheel fires again at readyAt
			}
			// A completeExec that flushes the pipeline (§3.3
			// scenario 2) resets the attention set, which ends the walk.
			c.completeExec(d)
			if d.state >= stDone {
				ev.attn.clear(s)
			}
			// stAGENDone keeps its bit: the first perform attempt is
			// next cycle, as in the ROB walk.
		case stDispatched:
			if d.fp {
				if fpIssued >= c.cfg.IssueFP {
					break // lane spent: stay for next cycle's arbitration
				}
				if c.parkIssueOperands(d) {
					ev.attn.clear(s)
					break
				}
				if c.issueFP(d) {
					fpIssued++
					c.iqFP--
					ev.attn.clear(s)
					ev.park(d, d.readyAt)
				}
				// FU busy: bit stays set, retry next cycle.
			} else {
				if intIssued >= c.cfg.IssueInt {
					break
				}
				if c.parkIssueOperands(d) {
					ev.attn.clear(s)
					break
				}
				if c.issueInt(d, &aluUsed) {
					intIssued++
					c.iqInt--
					ev.attn.clear(s)
					ev.park(d, d.readyAt)
				}
				// ALU/FU busy or AGEN capacity gate: retry next cycle.
			}
		case stAGENDone:
			if d.in.Cls == isa.ClassLoad {
				switch c.tryPerformLoad(d, dports) {
				case loadPerformed:
					ev.attn.clear(s)
				case loadNotPlaced:
					ev.attn.clear(s) // drainAddrBuffer wakes it at placement
				case loadReadyBit:
					ev.attn.clear(s)
					ev.rbWait.set(s)
				case loadFwdWait, loadNoPort:
					// Port contention re-arbitrates by age every cycle,
					// and a forwarding wait must re-probe the model per
					// cycle to keep its metered search energy identical
					// to the ROB walk: bit stays set.
				}
			} else {
				c.stepStore(d, s)
			}
		default:
			// stFetched/stDone have nothing to do here.
			ev.attn.clear(s)
		}
	}
}

// stepStore is the wakeup-scheduler counterpart of the ROB walk's
// placed-store completion: a placed store whose data is available
// completes (it writes the cache at commit). An unplaced store waits
// for the AddrBuffer drain; missing data parks on the data producer.
//
//samie:hotpath
func (c *CPU) stepStore(d *dynInst, s uint64) {
	ev := c.ev
	if !d.placed || d.performed {
		ev.attn.clear(s)
		return
	}
	if !c.dataReady(d) {
		ev.attn.clear(s)
		ev.parkOnProducer(d, c.win.at(d.srcB))
		return
	}
	d.performed = true
	d.state = stDone
	d.readyAt = c.cycle
	c.model.NotePerformed(d.in.Seq)
	ev.attn.clear(s)
	c.wakeWaiters(d)
}

// quiescentEnd returns the first cycle that must be stepped: the cycle
// after the current one unless the pipeline is quiescent (see the file
// comment), else the earliest event ending the span, capped at limit.
//
//samie:hotpath
func (c *CPU) quiescentEnd(limit uint64) uint64 {
	next := c.cycle + 1
	if !c.tickIdle {
		return next
	}
	end := limit
	w := &c.win
	if w.head < w.disp {
		if _, ok := c.ev.attn.nextSet(w.head, w.disp); ok {
			return next
		}
		head := w.at(w.head)
		if head.state >= stDone {
			if head.readyAt <= next {
				return next // commits next cycle
			}
			end = min(end, head.readyAt)
		}
		if c.headStuck(head) {
			return next
		}
	}
	if w.disp < w.fetched && !c.dispatchFull(w.at(w.disp)) {
		return next
	}
	if c.blockingBranch == noSeq {
		if next < c.fetchBlockedUntil {
			end = min(end, c.fetchBlockedUntil)
		} else if w.fetched-w.disp < uint64(c.cfg.FetchQueue) && (w.fetched < w.tail || !c.streamDone) {
			return next
		}
	}
	if at, ok := c.ev.nextEvent(next); ok {
		end = min(end, at)
	}
	return end
}

// skipQuiescent fast-forwards over the quiescent span ahead, accounting
// it in chunks that end at the interval sampler's due cycles, so a
// sample inside the span sees exactly the cycles before it.
//
//samie:hotpath
func (c *CPU) skipQuiescent(limit uint64) {
	end := c.quiescentEnd(limit)
	if c.cycle+1 >= end {
		return
	}
	var head *dynInst
	if c.win.head < c.win.disp {
		head = c.win.at(c.win.head)
	}
	dispatchStall := c.win.disp < c.win.fetched
	c.headBlocked = 0
	for last := end - 1; c.cycle < last; {
		to := min(last, max(c.sampler.Next(), c.cycle+1))
		n := to - c.cycle
		c.cycle = to
		if head != nil {
			c.classifyHeadStall(head, n)
		}
		if dispatchStall {
			c.res.DispatchStalls += n
		}
		c.fetchStalled(n)
		c.accountCycles(n)
		c.endOfCycleTelemetry()
	}
}
