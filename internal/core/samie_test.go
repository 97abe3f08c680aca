package core

import (
	"math/rand"
	"testing"

	"samielsq/internal/energy"
)

// tiny returns a small configuration that is easy to fill in tests:
// 4 banks x 1 entry x 2 slots, 2 SharedLSQ entries, 4 AddrBuffer slots.
func tiny() Config {
	return Config{
		Banks: 4, EntriesPerBank: 1, SlotsPerEntry: 2,
		SharedEntries: 2, AddrBufferSlots: 4, LineBytes: 32,
	}
}

// addrForBank returns the address of line k within the given bank
// (4 banks x 32-byte lines).
func addrForBank(bank, k int) uint64 {
	return uint64(bank)*32 + uint64(k)*4*32 + 0x10000
}

// distribInUse counts the valid DistribLSQ entries.
func distribInUse(s *SAMIE) int {
	n := 0
	for b := range s.banks {
		for e := range s.banks[b] {
			if s.banks[b][e].valid {
				n++
			}
		}
	}
	return n
}

// sharedInUse counts the valid SharedLSQ entries.
func sharedInUse(s *SAMIE) int {
	n := 0
	for e := range s.shared {
		if s.shared[e].valid {
			n++
		}
	}
	return n
}

func place(t *testing.T, s *SAMIE, seq uint64, isLoad bool, addr uint64) {
	t.Helper()
	s.Dispatch(seq, isLoad)
	pl := s.AddressReady(seq, isLoad, addr, 4)
	if !pl.Placed {
		t.Fatalf("seq %d at %#x not placed: %+v", seq, addr, pl)
	}
}

func TestConfigValidate(t *testing.T) {
	for _, mutate := range []func(*Config){
		func(c *Config) { c.Banks = 0 },
		func(c *Config) { c.EntriesPerBank = 0 },
		func(c *Config) { c.SlotsPerEntry = 0 },
		func(c *Config) { c.SharedEntries = -1 },
		func(c *Config) { c.AddrBufferSlots = 0 },
		func(c *Config) { c.LineBytes = 33 },
	} {
		c := PaperConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("invalid config accepted: %+v", c)
		}
	}
	pc := PaperConfig()
	if err := pc.Validate(); err != nil {
		t.Fatal(err)
	}
	if pc.Banks != 64 || pc.EntriesPerBank != 2 || pc.SlotsPerEntry != 8 ||
		pc.SharedEntries != 8 || pc.AddrBufferSlots != 64 {
		t.Fatal("PaperConfig does not match Table 3")
	}
}

func TestSameLineSharesEntry(t *testing.T) {
	s := New(tiny(), nil)
	place(t, s, 1, true, addrForBank(0, 0))
	place(t, s, 2, false, addrForBank(0, 0)+8) // same line, other offset
	if distribInUse(s) != 1 {
		t.Fatalf("distrib entries = %d, want 1 (shared line)", distribInUse(s))
	}
	if sharedInUse(s) != 0 {
		t.Fatal("SharedLSQ used unnecessarily")
	}
}

func TestPlacementPriorityOrder(t *testing.T) {
	s := New(tiny(), nil)
	// Fill bank 0's single entry with line 0 (2 slots).
	place(t, s, 1, true, addrForBank(0, 0))
	place(t, s, 2, true, addrForBank(0, 0)+4)
	// Third access to the same line: entry full -> SharedLSQ.
	place(t, s, 3, true, addrForBank(0, 0)+8)
	if sharedInUse(s) != 1 {
		t.Fatalf("shared entries = %d, want 1", sharedInUse(s))
	}
	// A different line of bank 0 joins the SharedLSQ too.
	place(t, s, 4, true, addrForBank(0, 1))
	if sharedInUse(s) != 2 {
		t.Fatalf("shared entries = %d, want 2", sharedInUse(s))
	}
	// SharedLSQ full; next conflicting line goes to the AddrBuffer.
	s.Dispatch(5, true)
	pl := s.AddressReady(5, true, addrForBank(0, 2), 4)
	if !pl.Buffered {
		t.Fatalf("expected buffered placement, got %+v", pl)
	}
	if s.AddrBufferLen() != 1 {
		t.Fatalf("addrbuffer len = %d", s.AddrBufferLen())
	}
	// Another line in an empty bank still places directly.
	place(t, s, 6, true, addrForBank(1, 0))
}

func TestPlacementFailureWhenEverythingFull(t *testing.T) {
	cfg := tiny()
	cfg.AddrBufferSlots = 1
	s := New(cfg, nil)
	place(t, s, 1, true, addrForBank(0, 0))
	place(t, s, 2, true, addrForBank(0, 1)) // shared 1
	place(t, s, 3, true, addrForBank(0, 2)) // shared 2
	s.Dispatch(4, true)
	if pl := s.AddressReady(4, true, addrForBank(0, 3), 4); !pl.Buffered {
		t.Fatalf("expected buffer, got %+v", pl)
	}
	s.Dispatch(5, true)
	if pl := s.AddressReady(5, true, addrForBank(0, 4), 4); !pl.Failed {
		t.Fatalf("expected failure with full AddrBuffer, got %+v", pl)
	}
	if s.Stats().PlaceFailures != 1 {
		t.Fatalf("place failures = %d", s.Stats().PlaceFailures)
	}
}

func TestNewOpsPlaceWhileFIFONonEmpty(t *testing.T) {
	// A non-empty AddrBuffer does not block newly computed addresses
	// whose own bank has room; only buffered instructions wait on
	// their FIFO predecessors.
	s := New(tiny(), nil)
	place(t, s, 1, true, addrForBank(0, 0))
	place(t, s, 2, true, addrForBank(0, 1))
	place(t, s, 3, true, addrForBank(0, 2))
	s.Dispatch(4, true)
	if pl := s.AddressReady(4, true, addrForBank(0, 3), 4); !pl.Buffered {
		t.Fatal("op 4 not buffered")
	}
	s.Dispatch(5, true)
	if pl := s.AddressReady(5, true, addrForBank(1, 0), 4); !pl.Placed {
		t.Fatalf("op 5 should place directly in empty bank 1: %+v", pl)
	}
}

func TestCommitFreesEntry(t *testing.T) {
	s := New(tiny(), nil)
	place(t, s, 1, true, addrForBank(0, 0))
	place(t, s, 2, true, addrForBank(0, 0)+4)
	s.Commit(1)
	if distribInUse(s) != 1 {
		t.Fatal("entry freed while a slot is still live")
	}
	s.Commit(2)
	if distribInUse(s) != 0 {
		t.Fatal("entry not freed after last slot committed")
	}
	// The bank is reusable.
	place(t, s, 3, true, addrForBank(0, 5))
}

func TestTickDrainsFIFOInOrder(t *testing.T) {
	s := New(tiny(), nil)
	place(t, s, 1, true, addrForBank(0, 0))
	place(t, s, 2, true, addrForBank(0, 1))
	place(t, s, 3, true, addrForBank(0, 2))
	s.Dispatch(4, true)
	s.AddressReady(4, true, addrForBank(0, 3), 4)
	s.Dispatch(5, true)
	s.AddressReady(5, true, addrForBank(0, 4), 4)
	if s.AddrBufferLen() != 2 {
		t.Fatalf("buffer len = %d", s.AddrBufferLen())
	}
	// Nothing drains while everything is full.
	if got := s.Tick(); len(got) != 0 {
		t.Fatalf("Tick placed %v with full structures", got)
	}
	// Freeing the bank entry lets the FIFO head (and only it: the
	// second element also wants bank 0) place.
	s.Commit(1)
	got := s.Tick()
	if len(got) != 1 || got[0] != 4 {
		t.Fatalf("Tick placed %v, want [4]", got)
	}
	if s.AddrBufferLen() != 1 {
		t.Fatalf("buffer len after drain = %d", s.AddrBufferLen())
	}
}

func TestWayCachingProtocol(t *testing.T) {
	s := New(tiny(), nil)
	place(t, s, 1, true, addrForBank(0, 0))
	place(t, s, 2, true, addrForBank(0, 0)+8)
	// Before any access, no plan.
	if p := s.Plan(1); p.WayKnown || p.TLBCached {
		t.Fatalf("plan before access: %+v", p)
	}
	// First instruction performs a conventional access and records it.
	s.RecordAccess(1, 5, 2, 77)
	p := s.Plan(2)
	if !p.WayKnown || p.Set != 5 || p.Way != 2 {
		t.Fatalf("plan after record: %+v", p)
	}
	if !p.TLBCached {
		t.Fatal("translation not cached")
	}
	if s.Stats().WayKnownHits != 1 || s.Stats().TLBReuses != 1 {
		t.Fatalf("stats: %+v", s.Stats())
	}
	// presentBit flush invalidates locations but keeps translations.
	s.ClearCachedLocations()
	p = s.Plan(2)
	if p.WayKnown {
		t.Fatal("location survived ClearCachedLocations")
	}
	if !p.TLBCached {
		t.Fatal("translation should survive ClearCachedLocations")
	}
}

func TestWayCachingDisabled(t *testing.T) {
	cfg := tiny()
	cfg.DisableWayCaching = true
	cfg.DisableTLBCaching = true
	s := New(cfg, nil)
	place(t, s, 1, true, addrForBank(0, 0))
	place(t, s, 2, true, addrForBank(0, 0)+8)
	s.RecordAccess(1, 5, 2, 77)
	if p := s.Plan(2); p.WayKnown || p.TLBCached {
		t.Fatalf("ablation switches ignored: %+v", p)
	}
}

func TestEntryInvalidationClearsCachedState(t *testing.T) {
	s := New(tiny(), nil)
	place(t, s, 1, true, addrForBank(0, 0))
	s.RecordAccess(1, 3, 1, 9)
	s.Commit(1)
	// Same line again: new entry must not inherit stale state.
	place(t, s, 2, true, addrForBank(0, 0))
	if p := s.Plan(2); p.WayKnown || p.TLBCached {
		t.Fatalf("stale cached state: %+v", p)
	}
}

func TestForwardingWithinSAMIE(t *testing.T) {
	s := New(tiny(), nil)
	place(t, s, 1, false, addrForBank(2, 0)) // store
	place(t, s, 2, true, addrForBank(2, 0))  // load, same address
	src, ok := s.ForwardingSource(2)
	if !ok || src != 1 {
		t.Fatalf("forwarding = %d (%v), want 1", src, ok)
	}
}

func TestFlush(t *testing.T) {
	s := New(tiny(), nil)
	place(t, s, 1, true, addrForBank(0, 0))
	place(t, s, 2, true, addrForBank(0, 1))
	place(t, s, 3, true, addrForBank(0, 2))
	s.Dispatch(4, true)
	s.AddressReady(4, true, addrForBank(0, 3), 4)
	s.Flush()
	if s.InFlight() != 0 || distribInUse(s) != 0 || sharedInUse(s) != 0 || s.AddrBufferLen() != 0 {
		t.Fatal("flush left state")
	}
	// Everything is usable again.
	place(t, s, 10, true, addrForBank(0, 0))
}

func TestEnergyEventsAtPlacement(t *testing.T) {
	m := energy.NewMeter()
	s := New(tiny(), m)
	place(t, s, 1, true, addrForBank(0, 0))
	if m.NBusSends != 1 || m.NDistribCompares != 1 || m.NSharedCompares != 1 {
		t.Fatalf("search events: bus=%d distrib=%d shared=%d",
			m.NBusSends, m.NDistribCompares, m.NSharedCompares)
	}
	if m.Distrib <= 0 {
		t.Fatal("no distrib energy")
	}
	// A buffered placement charges the AddrBuffer.
	place(t, s, 2, true, addrForBank(0, 1))
	place(t, s, 3, true, addrForBank(0, 2))
	s.Dispatch(4, true)
	s.AddressReady(4, true, addrForBank(0, 3), 4)
	if m.AddrBuffer <= 0 {
		t.Fatal("no AddrBuffer energy")
	}
}

func TestOccupancyStats(t *testing.T) {
	s := New(tiny(), nil)
	place(t, s, 1, true, addrForBank(0, 0))
	place(t, s, 2, true, addrForBank(0, 1)) // shared
	s.AccountCycle()
	s.AccountCycle()
	st := s.Stats()
	if st.Cycles != 2 {
		t.Fatalf("cycles = %d", st.Cycles)
	}
	if st.MeanSharedOcc() != 1 {
		t.Fatalf("mean shared occ = %v, want 1", st.MeanSharedOcc())
	}
	if st.ABEmptyFraction() != 1 {
		t.Fatalf("AB empty fraction = %v, want 1", st.ABEmptyFraction())
	}
	s.ResetStats()
	if s.Stats().Cycles != 0 {
		t.Fatal("ResetStats failed")
	}
}

func TestSharedUnboundedGrows(t *testing.T) {
	cfg := tiny()
	cfg.SharedUnbounded = true
	s := New(cfg, nil)
	// Overflow bank 0 far beyond the bounded shared size.
	for i := 0; i < 20; i++ {
		place(t, s, uint64(i+1), true, addrForBank(0, i))
	}
	if sharedInUse(s) < 10 {
		t.Fatalf("unbounded shared only holds %d entries", sharedInUse(s))
	}
	if s.AddrBufferLen() != 0 {
		t.Fatal("unbounded shared still buffered")
	}
}

// TestRandomizedInvariants drives a SAMIE with a random but valid
// operation sequence and checks structural invariants throughout.
func TestRandomizedInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := New(tiny(), nil)
	type live struct {
		seq    uint64
		placed bool
	}
	var ops []live
	seq := uint64(0)
	for step := 0; step < 5000; step++ {
		switch {
		case rng.Intn(3) != 0 && len(ops) < 32:
			seq++
			isLoad := rng.Intn(2) == 0
			s.Dispatch(seq, isLoad)
			addr := addrForBank(rng.Intn(4), rng.Intn(6))
			pl := s.AddressReady(seq, isLoad, addr, 4)
			if pl.Failed {
				s.Flush()
				ops = ops[:0]
				continue
			}
			ops = append(ops, live{seq: seq, placed: pl.Placed})
		case len(ops) > 0:
			// Commit the oldest (program order).
			s.Commit(ops[0].seq)
			ops = ops[1:]
			for _, got := range s.Tick() {
				for i := range ops {
					if ops[i].seq == got {
						ops[i].placed = true
					}
				}
			}
		}
		s.AccountCycle()

		// Invariants.
		if s.InFlight() != len(ops) {
			t.Fatalf("step %d: in-flight %d, tracked %d", step, s.InFlight(), len(ops))
		}
		placed := 0
		for _, o := range ops {
			if o.placed != s.t.Get(o.seq).Placed {
				t.Fatalf("step %d: seq %d placed %v, AddressReady/Tick reported %v",
					step, o.seq, s.t.Get(o.seq).Placed, o.placed)
			}
			if o.placed {
				placed++
			}
		}
		capacity := 4*1*2 + 2*2 // distrib slots + shared slots
		if placed > capacity {
			t.Fatalf("step %d: %d placed ops exceed capacity %d", step, placed, capacity)
		}
		if distribInUse(s) > 4 || sharedInUse(s) > 2 || s.AddrBufferLen() > 4 {
			t.Fatalf("step %d: structure overflow", step)
		}
		if distribInUse(s) != s.distribActive || sharedInUse(s) != s.sharedActive {
			t.Fatalf("step %d: occupancy summaries %d/%d, entries in use %d/%d", step,
				s.distribActive, s.sharedActive, distribInUse(s), sharedInUse(s))
		}
	}
}

func TestFastWayKnownBonus(t *testing.T) {
	cfg := tiny()
	cfg.FastWayKnown = true
	s := New(cfg, nil)
	place(t, s, 1, true, addrForBank(0, 0))
	place(t, s, 2, true, addrForBank(0, 0)+8)
	s.RecordAccess(1, 3, 1, 42)
	p := s.Plan(2)
	if !p.WayKnown || p.LatencyBonus != 1 {
		t.Fatalf("FastWayKnown plan = %+v", p)
	}
	// Without the option the bonus stays zero.
	s2 := New(tiny(), nil)
	place(t, s2, 1, true, addrForBank(0, 0))
	place(t, s2, 2, true, addrForBank(0, 0)+8)
	s2.RecordAccess(1, 3, 1, 42)
	if p := s2.Plan(2); p.LatencyBonus != 0 {
		t.Fatalf("unexpected bonus: %+v", p)
	}
}
