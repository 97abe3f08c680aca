package cpu

// Interval telemetry: the per-cycle hook that feeds an attached
// obs.IntervalSampler. The sampler is optional (nil by default) and
// the disabled path is a nil-receiver check plus one atomic load, so
// the hook lives in step() permanently without disturbing the
// zero-allocation hot path (hotpath_test.go pins this).

import (
	"math/bits"

	"samielsq/internal/obs"
)

// sampleBase is the delta baseline of the previous sample: interval
// IPC and the per-structure energy deltas are differences against it.
type sampleBase struct {
	cycle     uint64
	committed uint64

	conv, distrib, shared, addrBuf, bus, dcache, dtlb float64
}

// SetSampler attaches (or with nil detaches) an interval telemetry
// sampler. The baseline resets to the current cycle so the first
// sample's deltas cover only cycles simulated after attachment.
func (c *CPU) SetSampler(s *obs.IntervalSampler) {
	c.sampler = s
	c.resetSampleBase()
}

func (c *CPU) resetSampleBase() {
	m := c.meter
	c.sampBase = sampleBase{
		cycle:     c.cycle,
		committed: c.res.Committed,
		conv:      m.ConvLSQ,
		distrib:   m.Distrib,
		shared:    m.Shared,
		addrBuf:   m.AddrBuffer,
		bus:       m.Bus,
		dcache:    m.Dcache,
		dtlb:      m.DTLB,
	}
}

// endOfCycleTelemetry runs after every simulated cycle (both the
// normal and the deadlock-flush exit of step). It only observes —
// nothing here may touch architectural or metered state.
//
//samie:hotpath
func (c *CPU) endOfCycleTelemetry() {
	if c.sampler.Due(c.cycle) {
		c.recordSample()
	}
}

// addrBuffered is the optional model hook the SAMIE-LSQ implements;
// other models report no AddrBuffer occupancy.
type addrBuffered interface{ AddrBufferLen() int }

// recordSample snapshots the pipeline into the sampler and advances
// the delta baseline. Runs once per stride, so the O(ROB + wheel)
// scheduler introspection is off the per-cycle path.
func (c *CPU) recordSample() {
	ts := c.sample()
	ts.Waiters, ts.Wheel, ts.Attn = c.schedStats()
	c.sampler.Record(ts)
	c.resetSampleBase()
}

// sample reads the pipeline's timeline sample, less the scheduler
// introspection, with deltas against the baseline; it changes nothing.
func (c *CPU) sample() obs.TimelineSample {
	m := c.meter
	ts := obs.TimelineSample{
		Cycle:   c.cycle,
		ROB:     int(c.win.disp - c.win.head),
		FetchQ:  int(c.win.fetched - c.win.disp),
		ReplayQ: int(c.win.tail - c.win.fetched),
		LSQ:     c.model.InFlight(),

		ConvLSQPJ: m.ConvLSQ - c.sampBase.conv,
		DistribPJ: m.Distrib - c.sampBase.distrib,
		SharedPJ:  m.Shared - c.sampBase.shared,
		AddrBufPJ: m.AddrBuffer - c.sampBase.addrBuf,
		BusPJ:     m.Bus - c.sampBase.bus,
		DcachePJ:  m.Dcache - c.sampBase.dcache,
		DTLBPJ:    m.DTLB - c.sampBase.dtlb,
	}
	if cycles := c.cycle - c.sampBase.cycle; cycles > 0 {
		ts.IPC = float64(c.res.Committed-c.sampBase.committed) / float64(cycles)
	}
	if ab, ok := c.model.(addrBuffered); ok {
		ts.AddrBuf = ab.AddrBufferLen()
	}
	return ts
}

// schedStats introspects the event-driven issue scheduler: total
// waiter-list depth (instructions parked on a producer), timing-wheel
// load, and attention-bitmap population. All zero for the test-only
// ROB-walk oracle, which keeps no scheduler state.
func (c *CPU) schedStats() (waiters, wheel, attn int) {
	if c.ev == nil {
		return 0, 0, 0
	}
	for _, w := range c.ev.attn.words {
		attn += bits.OnesCount64(w)
	}
	for i := range c.ev.wheel {
		for d := c.ev.wheel[i]; d != nil; d = d.wheelNext {
			wheel++
		}
	}
	for seq := c.win.head; seq < c.win.disp; seq++ {
		for w := c.win.at(seq).waiterHead; w != nil; w = w.waitNext {
			waiters++
		}
	}
	return waiters, wheel, attn
}
