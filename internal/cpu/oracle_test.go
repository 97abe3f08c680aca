package cpu

import (
	"fmt"
	"math/bits"
	"strings"

	"samielsq/internal/energy"
	"samielsq/internal/isa"
	"samielsq/internal/lsq"
)

// The ROB-walk oracle: the issue stage the wakeup scheduler must
// reproduce, kept only as a test. Every cycle it visits every ROB
// entry oldest-first and re-runs that entry's check, so it needs no
// wait structures at all; TestSchedulerDifferential holds the
// scheduler's results, energy, model statistics and timelines to it.
//
// An oracle CPU is an ordinary CPU whose wakeup scheduler was removed
// (newOracle): step then calls testHookIssue, and the nil guards on
// c.ev keep every other scheduler hook out of the run, so the oracle
// shares no scheduler code with the engine it checks.

func init() { testHookIssue = robWalkIssue }

// newOracle builds a CPU that issues through the ROB walk.
func newOracle(cfg Config, strm isa.Stream, model lsq.Model, meter *energy.Meter) *CPU {
	c := New(cfg, strm, model, nil, nil, nil, meter)
	c.ev = nil
	return c
}

// robWalkIssue is the oracle's issue/writeback stage.
func robWalkIssue(c *CPU, dports int) {
	intIssued, fpIssued := 0, 0
	aluUsed := 0
	// A completeExec that flushes the pipeline (§3.3 scenario 2)
	// empties the ROB, which ends the walk.
	for seq := c.win.head; seq < c.win.disp; seq++ {
		d := c.win.at(seq)
		switch d.state {
		case stIssued:
			if d.readyAt <= c.cycle {
				c.completeExec(d)
			}
		case stDispatched:
			// Once a lane's issue width is spent, younger instructions
			// of that lane skip their dependence checks — they could
			// not issue either way.
			if d.fp {
				if fpIssued >= c.cfg.IssueFP || !c.operandsReady(d) {
					break
				}
				if c.issueFP(d) {
					fpIssued++
					c.iqFP--
				}
			} else {
				if intIssued >= c.cfg.IssueInt || !c.operandsReady(d) {
					break
				}
				if c.issueInt(d, &aluUsed) {
					intIssued++
					c.iqInt--
				}
			}
		case stAGENDone:
			// Memory instructions waiting to perform their access.
			if d.in.Cls == isa.ClassLoad {
				c.tryPerformLoad(d, &dports)
			} else if d.placed && !d.performed && c.dataReady(d) {
				// A placed store with its data available is complete:
				// it will write the cache at commit.
				d.performed = true
				d.state = stDone
				d.readyAt = c.cycle
				c.model.NotePerformed(d.in.Seq)
			}
		}
	}
}

// operandsReady is the oracle's issue gate: both producers have
// completed, or for a store only SrcA, the address register (see
// parkIssueOperands). Each producer observed done is severed.
func (c *CPU) operandsReady(d *dynInst) bool {
	if d.srcA != noSeq {
		if !c.producerDone(d.srcA) {
			return false
		}
		d.srcA = noSeq
	}
	return d.in.Cls == isa.ClassStore || c.dataReady(d)
}

// divergence is the first span in which a lockstep re-run found the
// wakeup scheduler and the oracle apart.
type divergence struct {
	from, to uint64 // the first divergent cycle lies in (from, to]
	what     string // the state that differed
	dump     string // both ROB windows at cycle to
}

func (d *divergence) String() string {
	return fmt.Sprintf("first divergence in cycles (%d, %d]: %s\n%s", d.from, d.to, d.what, d.dump)
}

// lockstep re-runs a wakeup CPU and an oracle CPU side by side for up
// to insts committed instructions, the way Run would: the wakeup CPU
// takes one advance at a time (a step, or a quiescent skip plus a
// step), then the oracle steps until it reaches the same cycle. After
// every advance it checks both instruction windows' invariants and
// compares the two Results, energy meters and ROB windows, and returns
// the first span where they differ, or nil. crossed counts the
// quiescent skips that went on past a sample of the wakeup CPU's
// interval sampler, the skips that account a span in several chunks.
func lockstep(wake, oracle *CPU, insts uint64) (d *divergence, crossed int) {
	limit := wake.cycle + insts*40 + 1_000_000
	for wake.res.Committed < insts && wake.cycle < limit {
		if wake.streamDone && wake.win.head == wake.win.tail {
			break
		}
		prev, due := wake.cycle, wake.sampler.Next()
		wake.advance(limit)
		if prev < due && due+1 < wake.cycle {
			crossed++
		}
		for oracle.cycle < wake.cycle {
			oracle.step()
		}
		what := windowFault(wake)
		if what == "" {
			what = windowFault(oracle)
		}
		if what == "" {
			what = stateDiff(wake, oracle)
		}
		if what != "" {
			return &divergence{from: prev, to: wake.cycle, what: what, dump: dumpWindows(wake, oracle)}, crossed
		}
	}
	return nil, crossed
}

// windowFault names the first broken invariant of c's instruction
// window, or returns "": the cursors are ordered, the live range fits
// ROBSize+FetchQueue, every live slot holds its own seq, ROB entries
// are dispatched and fetch-side entries are not, and the timeline
// sample reports the cursor differences.
func windowFault(c *CPU) string {
	w := &c.win
	if !(w.head <= w.disp && w.disp <= w.fetched && w.fetched <= w.tail) {
		return fmt.Sprintf("window cursors out of order: head %d disp %d fetched %d tail %d", w.head, w.disp, w.fetched, w.tail)
	}
	if live := w.tail - w.head; live > uint64(c.cfg.ROBSize+c.cfg.FetchQueue) {
		return fmt.Sprintf("window holds %d instructions, more than ROBSize+FetchQueue = %d", live, c.cfg.ROBSize+c.cfg.FetchQueue)
	}
	for seq := w.head; seq < w.tail; seq++ {
		d := w.at(seq)
		if d.in.Seq != seq || (seq < w.disp) != (d.state >= stDispatched) {
			return fmt.Sprintf("window slot of seq %d holds seq %d in state %d (disp %d)", seq, d.in.Seq, d.state, w.disp)
		}
	}
	ts := c.sample()
	if uint64(ts.ROB) != w.disp-w.head || uint64(ts.FetchQ) != w.fetched-w.disp || uint64(ts.ReplayQ) != w.tail-w.fetched {
		return fmt.Sprintf("timeline sample ROB/FetchQ/ReplayQ %d/%d/%d, cursors %d/%d/%d",
			ts.ROB, ts.FetchQ, ts.ReplayQ, w.disp-w.head, w.fetched-w.disp, w.tail-w.fetched)
	}
	return linkFault(c)
}

// linkFault names the first broken invariant of the wakeup scheduler's
// seq links, or returns "" (always for the oracle, which has no
// scheduler): a bucket's occupancy bit is set exactly when the bucket
// is non-empty, every seq on a wheel chain or an ROB entry's waiter
// list is in the ROB, each waiter is younger than its producer, and
// every chain ends within ROBSize links. A stale seq would otherwise
// resolve silently to whatever instruction reused its slot.
func linkFault(c *CPU) string {
	ev, w := c.ev, &c.win
	if ev == nil {
		return ""
	}
	chain := func(seq, older uint64, next func(*dynInst) uint64) string {
		for n := 0; seq != noSeq; n++ {
			if n == c.cfg.ROBSize {
				return fmt.Sprintf("runs past %d links", n)
			}
			if !w.inROB(seq) || (older != noSeq && seq <= older) {
				return fmt.Sprintf("holds seq %d, outside the ROB [%d, %d) or not younger", seq, w.head, w.disp)
			}
			seq = next(w.at(seq))
		}
		return ""
	}
	wheelNext := func(d *dynInst) uint64 { return d.wheelNext }
	waitNext := func(d *dynInst) uint64 { return d.waitNext }
	for k, occ := range ev.occ {
		var full uint64
		for j, seq := range ev.wheel[k*64 : k*64+64] {
			if seq != noSeq {
				full |= 1 << j
			}
		}
		if diff := full ^ occ; diff != 0 {
			i := k*64 + bits.TrailingZeros64(diff)
			return fmt.Sprintf("wheel bucket %d holds seq %d but its occupancy bit is %d", i, ev.wheel[i], occ>>(i&63)&1)
		}
		for ; full != 0; full &= full - 1 {
			i := k*64 + bits.TrailingZeros64(full)
			if f := chain(ev.wheel[i], noSeq, wheelNext); f != "" {
				return fmt.Sprintf("wheel bucket %d %s", i, f)
			}
		}
	}
	for p := w.head; p < w.disp; p++ {
		if seq := w.at(p).waiterHead; seq != noSeq {
			if f := chain(seq, p, waitNext); f != "" {
				return fmt.Sprintf("waiter list of seq %d %s", p, f)
			}
		}
	}
	return ""
}

// stateDiff names the first observable difference between the two
// CPUs at the same cycle, or returns "".
func stateDiff(a, b *CPU) string {
	if a.res != b.res {
		return fmt.Sprintf("results differ\nwakeup: %+v\noracle: %+v", a.res, b.res)
	}
	// Energy is part of the contract: LSQ models charge CAM/entry
	// energy per model call, so the wakeup path must preserve the exact
	// call pattern, not just the architectural outcome.
	if *a.meter != *b.meter {
		return fmt.Sprintf("energy differs\nwakeup: %+v\noracle: %+v", *a.meter, *b.meter)
	}
	if a.win.head != b.win.head || a.win.disp != b.win.disp {
		return fmt.Sprintf("ROB range differs: wakeup [%d, %d), oracle [%d, %d)", a.win.head, a.win.disp, b.win.head, b.win.disp)
	}
	for seq := a.win.head; seq < a.win.disp; seq++ {
		if rowOf(a.win.at(seq)) != rowOf(b.win.at(seq)) {
			return fmt.Sprintf("ROB entry %d differs", seq-a.win.head)
		}
	}
	return ""
}

// windowRow is the state of one ROB entry the lockstep compares.
type windowRow struct {
	seq, readyAt      uint64
	state             instState
	placed, performed bool
}

func rowOf(d *dynInst) windowRow {
	return windowRow{seq: d.in.Seq, readyAt: d.readyAt, state: d.state, placed: d.placed, performed: d.performed}
}

func (r windowRow) String() string {
	return fmt.Sprintf("seq=%d state=%d readyAt=%d placed=%t performed=%t",
		r.seq, r.state, r.readyAt, r.placed, r.performed)
}

// dumpWindows renders both ROB windows side by side, marking the rows
// that differ with '*'.
func dumpWindows(a, b *CPU) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "ROB windows at cycle %d (wakeup | oracle):\n", a.cycle)
	na, nb := a.win.disp-a.win.head, b.win.disp-b.win.head
	for i := uint64(0); i < max(na, nb); i++ {
		ra, rb := "-", "-"
		if i < na {
			ra = rowOf(a.win.at(a.win.head + i)).String()
		}
		if i < nb {
			rb = rowOf(b.win.at(b.win.head + i)).String()
		}
		mark := ' '
		if ra != rb {
			mark = '*'
		}
		fmt.Fprintf(&sb, "%c %3d  %s | %s\n", mark, i, ra, rb)
	}
	return sb.String()
}
