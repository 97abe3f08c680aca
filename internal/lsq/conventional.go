package lsq

import (
	"samielsq/internal/energy"
)

// Conventional is the baseline LSQ of §4.2: a fully-associative
// structure of Entries entries allocated in program order at dispatch.
// For a fair energy comparison (as the paper assumes), a load address
// is compared only against the addresses of older stores whose address
// is known, and a store address only against younger loads with known
// addresses. Matching loads are forwarded from the store and skip the
// Dcache.
//
// Without a meter (NewUnbounded) it keeps no energy account: no CAM
// search, datum access, area or occupancy is counted.
type Conventional struct {
	Base
	entries int
	meter   *energy.Meter

	occupancy OccupancyStats
}

// OccupancyStats accumulates per-cycle occupancy for reporting.
type OccupancyStats struct {
	Cycles uint64
	SumOcc float64
	MaxOcc int
}

// Mean returns the average occupancy.
func (o *OccupancyStats) Mean() float64 {
	if o.Cycles == 0 {
		return 0
	}
	return o.SumOcc / float64(o.Cycles)
}

// NewConventional builds the baseline with the given capacity
// (the paper uses 128) charging energy to meter. meter may be nil.
func NewConventional(entries int, meter *energy.Meter) *Conventional {
	if entries <= 0 {
		panic("lsq: conventional LSQ needs positive capacity")
	}
	if meter == nil {
		meter = energy.NewMeter()
	}
	return &Conventional{Base: NewBase(NewTracker()), entries: entries, meter: meter}
}

// NewUnbounded builds the idealized LSQ used as the reference for
// Figure 1: the conventional model's forwarding with no capacity limit
// and no energy account, so dispatch never stalls.
func NewUnbounded() *Conventional {
	return &Conventional{Base: NewBase(NewTracker()), entries: int(^uint(0) >> 1)}
}

// Dispatch implements Model; it fails when the queue is full.
//
//samie:hotpath
func (c *Conventional) Dispatch(seq uint64, isLoad bool) bool {
	if c.t.Len() >= c.entries {
		return false
	}
	op := c.t.Add(seq, isLoad)
	c.t.SetPlaced(op) // entry allocated at dispatch
	return true
}

// AddressReady implements Model: the computed address is written into
// the entry and compared associatively per the §4.2 policy.
//
//samie:hotpath
func (c *Conventional) AddressReady(seq uint64, isLoad bool, addr uint64, size uint8) Placement {
	op := c.t.Get(seq)
	if op == nil {
		return Placement{Failed: true}
	}
	c.t.SetAddress(op, addr, size)
	if c.meter == nil {
		return Placement{Placed: true}
	}
	c.meter.ConvRWAddr()
	if isLoad {
		c.meter.ConvCompare(c.t.CountOlderKnownStores(seq))
	} else {
		c.meter.ConvCompare(c.t.CountYoungerKnownLoads(seq))
		// Store data is written into the entry when available; we
		// charge it here (data ready at issue in this model).
		c.meter.ConvRWDatum()
	}
	return Placement{Placed: true}
}

// Tick implements Model (no buffering in the conventional LSQ).
func (c *Conventional) Tick() []uint64 { return nil }

// ForwardingSource implements Model.
//
//samie:hotpath
func (c *Conventional) ForwardingSource(seq uint64) (uint64, bool) {
	s, ok := c.t.ForwardingSource(seq)
	if ok && c.meter != nil {
		// Forwarded loads read the store datum and write their own.
		c.meter.ConvRWDatum()
		c.meter.ConvRWDatum()
	}
	return s, ok
}

// NotePerformed implements Model.
func (c *Conventional) NotePerformed(seq uint64) {
	if op := c.t.Get(seq); op != nil && op.IsLoad && c.meter != nil {
		// The loaded datum is written into the entry.
		c.meter.ConvRWDatum()
	}
}

// Commit implements Model.
func (c *Conventional) Commit(seq uint64) {
	if op := c.t.Remove(seq); !op.IsLoad && c.meter != nil {
		// The store datum is read out to be written to memory.
		c.meter.ConvRWDatum()
	}
}

// Flush implements Model.
func (c *Conventional) Flush() { c.t.Clear() }

// AccountCycles implements Model: occupancy, one add per cycle, and
// §4.5 active area (in-use entries plus four pre-allocated).
//
//samie:hotpath
func (c *Conventional) AccountCycles(n uint64) {
	if c.meter == nil || n == 0 {
		return
	}
	inUse := c.t.Len()
	o := &c.occupancy
	o.Cycles += n
	o.MaxOcc = max(o.MaxOcc, inUse)
	occ, sum := float64(inUse), o.SumOcc
	for k := n; k > 0; k-- {
		sum += occ
	}
	o.SumOcc = sum
	c.meter.AccumulateArea(energy.Activity{ConvInUse: inUse, ConvEntries: c.entries}, n)
}

// ResetStats implements Model.
func (c *Conventional) ResetStats() { c.occupancy = OccupancyStats{} }

// Occupancy returns the accumulated occupancy statistics.
func (c *Conventional) Occupancy() OccupancyStats { return c.occupancy }
