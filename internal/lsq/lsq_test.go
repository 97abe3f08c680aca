package lsq

import (
	"testing"

	"samielsq/internal/energy"
)

func TestTrackerOrderAndLookup(t *testing.T) {
	tr := NewTracker()
	tr.Add(10, true)
	tr.Add(20, false)
	tr.Add(30, true)
	if tr.Len() != 3 {
		t.Fatalf("len = %d", tr.Len())
	}
	if tr.Get(20) == nil || tr.Get(15) != nil || tr.Get(99) != nil {
		t.Fatal("Get wrong")
	}
	tr.Remove(10)
	if tr.Len() != 2 || tr.Get(10) != nil || tr.Get(20).Seq != 20 {
		t.Fatal("Remove broke ordering")
	}
	tr.Clear()
	if tr.Len() != 0 || tr.Get(20) != nil {
		t.Fatal("Clear failed")
	}
}

func TestForwardingSourcePicksYoungest(t *testing.T) {
	tr := NewTracker()
	for seq := uint64(1); seq <= 3; seq++ {
		op := tr.Add(seq, seq == 3)
		tr.SetAddress(op, 0x1000, 4)
		tr.SetPlaced(op)
	}
	src, ok := tr.ForwardingSource(3)
	if !ok || src != 2 {
		t.Fatalf("forwarding source = %d (%v), want 2", src, ok)
	}
	// A store after the load must not forward.
	s3 := tr.Add(4, false)
	tr.SetAddress(s3, 0x1000, 4)
	tr.SetPlaced(s3)
	src, ok = tr.ForwardingSource(3)
	if !ok || src != 2 {
		t.Fatal("younger store forwarded to older load")
	}
	// Stores are never forwarded to.
	if _, ok := tr.ForwardingSource(2); ok {
		t.Fatal("store got a forwarding source")
	}
}

func TestCompareCounts(t *testing.T) {
	tr := NewTracker()
	s1 := tr.Add(1, false)
	tr.SetAddress(s1, 0x100, 4)
	tr.SetPlaced(s1)
	s2 := tr.Add(2, false) // address unknown
	tr.SetPlaced(s2)
	l := tr.Add(3, true)
	tr.SetAddress(l, 0x200, 4)
	tr.SetPlaced(l)
	if n := tr.CountOlderKnownStores(3); n != 1 {
		t.Fatalf("older known stores = %d, want 1", n)
	}
	if n := tr.CountYoungerKnownLoads(1); n != 1 {
		t.Fatalf("younger known loads = %d, want 1", n)
	}
	if n := tr.CountYoungerKnownLoads(999); n != 0 {
		t.Fatalf("unknown seq counted %d loads", n)
	}
}

func TestConventionalCapacity(t *testing.T) {
	c := NewConventional(2, nil)
	if !c.Dispatch(1, true) || !c.Dispatch(2, false) {
		t.Fatal("dispatch below capacity failed")
	}
	if c.Dispatch(3, true) {
		t.Fatal("dispatch above capacity succeeded")
	}
	if c.t.Get(3) != nil || c.InFlight() != 2 {
		t.Fatal("a refused dispatch was tracked")
	}
	c.Commit(1)
	if !c.Dispatch(3, true) {
		t.Fatal("dispatch after commit failed")
	}
	if c.InFlight() != 2 {
		t.Fatalf("in flight = %d", c.InFlight())
	}
}

func TestConventionalEnergyAccounting(t *testing.T) {
	m := energy.NewMeter()
	c := NewConventional(128, m)
	c.Dispatch(1, false)
	c.AddressReady(1, false, 0x1000, 4) // store: compare vs 0 loads + addr write + datum write
	c.Dispatch(2, true)
	c.AddressReady(2, true, 0x1000, 4) // load: compare vs 1 store + addr write
	if m.NConvCompares != 2 {
		t.Fatalf("compares = %d", m.NConvCompares)
	}
	if m.ConvLSQ <= 0 {
		t.Fatal("no energy charged")
	}
	// Forwarding charges datum traffic.
	before := m.ConvLSQ
	if _, ok := c.ForwardingSource(2); !ok {
		t.Fatal("forwarding failed")
	}
	if m.ConvLSQ <= before {
		t.Fatal("forward charged no energy")
	}
}

func TestConventionalOccupancyAndReset(t *testing.T) {
	c := NewConventional(128, nil)
	c.Dispatch(1, true)
	c.AccountCycles(1)
	c.AccountCycles(1)
	occ := c.Occupancy()
	if occ.Cycles != 2 || occ.Mean() != 1 {
		t.Fatalf("occupancy = %+v", occ)
	}
	c.ResetStats()
	if c.Occupancy().Cycles != 0 {
		t.Fatal("ResetStats failed")
	}
	c.Flush()
	if c.InFlight() != 0 {
		t.Fatal("Flush failed")
	}
}

func TestUnboundedNeverStalls(t *testing.T) {
	u := NewUnbounded()
	for i := uint64(0); i < 1000; i++ {
		if !u.Dispatch(i, i%2 == 0) {
			t.Fatal("unbounded LSQ stalled")
		}
		pl := u.AddressReady(i, i%2 == 0, 0x1000+i*8, 8)
		if !pl.Placed {
			t.Fatal("unbounded LSQ failed to place")
		}
	}
	if u.InFlight() != 1000 {
		t.Fatalf("in flight = %d", u.InFlight())
	}
	// The ideal LSQ keeps no energy account and no occupancy.
	u.AccountCycles(1)
	if u.meter != nil || u.Occupancy() != (OccupancyStats{}) {
		t.Fatalf("unbounded LSQ accounted: meter %v, occupancy %+v", u.meter, u.Occupancy())
	}
	for i := uint64(0); i < 1000; i++ {
		u.Commit(i)
	}
	if u.InFlight() != 0 {
		t.Fatal("commits did not drain")
	}
}

func TestARBSameAddressSharing(t *testing.T) {
	a := NewARB(4, 1, 128)
	a.Dispatch(1, false)
	a.Dispatch(2, true)
	// Two instructions to the same word share the single address entry.
	if pl := a.AddressReady(1, false, 0x1000, 8); !pl.Placed {
		t.Fatal("first placement failed")
	}
	if pl := a.AddressReady(2, true, 0x1000, 8); !pl.Placed {
		t.Fatal("same-address placement failed")
	}
	// A different word mapping to the same bank must wait.
	a.Dispatch(3, true)
	pl := a.AddressReady(3, true, 0x1000+4*8, 8) // +4 words: same bank (4 banks)
	if !pl.Buffered {
		t.Fatalf("conflicting placement should buffer: %+v", pl)
	}
	if len(a.pending) != 1 || a.t.Get(3).Placed {
		t.Fatalf("pending = %v, want [3] unplaced", a.pending)
	}
	// Draining the bank lets the pending op in via Tick.
	a.Commit(1)
	a.Commit(2)
	placed := a.Tick()
	if len(placed) != 1 || placed[0] != 3 {
		t.Fatalf("Tick placed %v", placed)
	}
	if !a.t.Get(3).Placed {
		t.Fatal("op not marked placed")
	}
}

func TestARBInflightCap(t *testing.T) {
	a := NewARB(4, 4, 2)
	if !a.Dispatch(1, true) || !a.Dispatch(2, true) {
		t.Fatal("dispatch under cap failed")
	}
	if a.Dispatch(3, true) {
		t.Fatal("dispatch over cap succeeded")
	}
	if a.t.Get(3) != nil || a.InFlight() != 2 {
		t.Fatal("a refused dispatch was tracked")
	}
}

func TestARBFlush(t *testing.T) {
	a := NewARB(2, 1, 128)
	a.Dispatch(1, false)
	a.AddressReady(1, false, 0x1000, 8)
	a.Dispatch(2, true)
	a.AddressReady(2, true, 0x1000+16, 8) // same bank, other word: buffered
	a.Flush()
	if a.InFlight() != 0 {
		t.Fatal("flush left ops")
	}
	if got := a.Tick(); len(got) != 0 {
		t.Fatalf("flushed pending placed: %v", got)
	}
	// Bank state cleared: a fresh op places immediately.
	a.Dispatch(3, true)
	if pl := a.AddressReady(3, true, 0x2000, 8); !pl.Placed {
		t.Fatal("placement after flush failed")
	}
}

func TestARBReleaseFreesAddress(t *testing.T) {
	a := NewARB(1, 1, 128)
	a.Dispatch(1, false)
	a.AddressReady(1, false, 0x1000, 8)
	a.Dispatch(2, false)
	if pl := a.AddressReady(2, false, 0x2000, 8); pl.Placed {
		t.Fatal("second address fit in 1-address bank")
	}
	a.Commit(1)
	if got := a.Tick(); len(got) != 1 {
		t.Fatalf("release did not free the address entry: %v", got)
	}
}
