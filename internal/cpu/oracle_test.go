package cpu

import (
	"fmt"
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
	for i := 0; i < c.rob.len(); i++ {
		d := c.rob.at(i)
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
				if fpIssued >= c.cfg.IssueFP || !d.srcsReady(c.cycle) {
					break
				}
				if c.issueFP(d) {
					fpIssued++
					c.iqFP--
				}
			} else {
				if intIssued >= c.cfg.IssueInt {
					break
				}
				if d.mem {
					if !d.agenReady(c.cycle) {
						break
					}
				} else if !d.srcsReady(c.cycle) {
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
			} else if d.placed && !d.performed && d.dataReady(c.cycle) {
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

// srcsReady reports whether both producers have completed by cycle,
// severing each producer observed done.
func (d *dynInst) srcsReady(cycle uint64) bool {
	if d.srcA != nil {
		if !producerDone(d.srcA, d.genA, cycle) {
			return false
		}
		d.srcA = nil
	}
	return d.dataReady(cycle)
}

// agenReady reports whether the address operands are ready: only SrcA
// for a store (see parkIssueOperands), both sources otherwise.
func (d *dynInst) agenReady(cycle uint64) bool {
	if d.in.Cls != isa.ClassStore {
		return d.srcsReady(cycle)
	}
	if d.srcA != nil {
		if !producerDone(d.srcA, d.genA, cycle) {
			return false
		}
		d.srcA = nil
	}
	return true
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
// every advance it compares the two Results, energy meters and ROB
// windows, and returns the first span where they differ, or nil.
func lockstep(wake, oracle *CPU, insts uint64) *divergence {
	limit := wake.cycle + insts*40 + 1_000_000
	for wake.res.Committed < insts && wake.cycle < limit {
		if wake.streamDone && wake.rob.len() == 0 && wake.fetchQ.len() == 0 && wake.replayQ.len() == 0 {
			break
		}
		prev := wake.cycle
		wake.advance(limit)
		for oracle.cycle < wake.cycle {
			oracle.step()
		}
		if what := stateDiff(wake, oracle); what != "" {
			return &divergence{from: prev, to: wake.cycle, what: what, dump: dumpWindows(wake, oracle)}
		}
	}
	return nil
}

// stateDiff names the first observable difference between the two
// CPUs at the same cycle, or returns "".
func stateDiff(a, b *CPU) string {
	if a.res != b.res {
		return fmt.Sprintf("results differ\nwakeup: %+v\noracle: %+v", a.res, b.res)
	}
	if *a.meter != *b.meter {
		return fmt.Sprintf("energy differs\nwakeup: %+v\noracle: %+v", *a.meter, *b.meter)
	}
	if a.rob.len() != b.rob.len() {
		return fmt.Sprintf("ROB occupancy differs: wakeup %d, oracle %d", a.rob.len(), b.rob.len())
	}
	for i := 0; i < a.rob.len(); i++ {
		if rowOf(a.rob.at(i)) != rowOf(b.rob.at(i)) {
			return fmt.Sprintf("ROB entry %d differs", i)
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
	for i := 0; i < max(a.rob.len(), b.rob.len()); i++ {
		ra, rb := "-", "-"
		if i < a.rob.len() {
			ra = rowOf(a.rob.at(i)).String()
		}
		if i < b.rob.len() {
			rb = rowOf(b.rob.at(i)).String()
		}
		mark := ' '
		if ra != rb {
			mark = '*'
		}
		fmt.Fprintf(&sb, "%c %3d  %s | %s\n", mark, i, ra, rb)
	}
	return sb.String()
}
