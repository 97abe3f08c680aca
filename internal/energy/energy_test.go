package energy

import (
	"math"
	"testing"

	"samielsq/internal/cacti"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestConvEvents(t *testing.T) {
	m := NewMeter()
	m.ConvCompare(10)
	want := cacti.ConvLSQ.CmpBase + 10*cacti.ConvLSQ.CmpPerAddr
	if !almost(m.ConvLSQ, want) {
		t.Fatalf("ConvCompare: %v, want %v", m.ConvLSQ, want)
	}
	m.ConvRWAddr()
	m.ConvRWDatum()
	want += cacti.ConvLSQ.RWAddr + cacti.ConvLSQ.RWDatum
	if !almost(m.ConvLSQ, want) {
		t.Fatalf("conv total %v, want %v", m.ConvLSQ, want)
	}
	if m.NConvCompares != 1 {
		t.Fatalf("NConvCompares = %d", m.NConvCompares)
	}
}

func TestDistribEvents(t *testing.T) {
	m := NewMeter()
	m.BusSend()
	m.DistribCompare(2)
	m.DistribAgeCompare([]int{3, 5})
	m.DistribRWAddr()
	m.DistribRWAge()
	m.DistribRWDatum()
	m.DistribRWTLB()
	m.DistribRWLineID()
	wantBus := cacti.BusSendAddr
	wantD := cacti.DistribLSQ.CmpBase + 2*cacti.DistribLSQ.CmpPerAddr +
		2*cacti.DistribLSQ.AgeCmpBase + 8*cacti.DistribLSQ.AgeCmpPerID +
		cacti.DistribLSQ.RWAddr + cacti.DistribLSQ.RWAge + cacti.DistribLSQ.RWDatum +
		cacti.DistribLSQ.RWTLB + cacti.DistribLSQ.RWLineID
	if !almost(m.Bus, wantBus) || !almost(m.Distrib, wantD) {
		t.Fatalf("distrib: bus %v/%v distrib %v/%v", m.Bus, wantBus, m.Distrib, wantD)
	}
}

func TestSharedEvents(t *testing.T) {
	m := NewMeter()
	m.SharedCompare(4)
	m.SharedAgeCompare([]int{1})
	m.SharedRWAddr()
	m.SharedRWAge()
	m.SharedRWDatum()
	m.SharedRWTLB()
	m.SharedRWLineID()
	want := cacti.SharedLSQ.CmpBase + 4*cacti.SharedLSQ.CmpPerAddr +
		cacti.SharedLSQ.AgeCmpBase + cacti.SharedLSQ.AgeCmpPerID +
		cacti.SharedLSQ.RWAddr + cacti.SharedLSQ.RWAge + cacti.SharedLSQ.RWDatum +
		cacti.SharedLSQ.RWTLB + cacti.SharedLSQ.RWLineID
	if !almost(m.Shared, want) {
		t.Fatalf("shared %v, want %v", m.Shared, want)
	}
}

func TestAddrBufferAndCacheEvents(t *testing.T) {
	m := NewMeter()
	m.AddrBufferInsert()
	m.AddrBufferRemove()
	want := 2 * (cacti.AddrBufferDatum + cacti.AddrBufferAgeID)
	if !almost(m.AddrBuffer, want) {
		t.Fatalf("addrbuffer %v, want %v", m.AddrBuffer, want)
	}
	m.DcacheFull()
	m.DcacheWayKnown()
	if !almost(m.Dcache, cacti.DcacheFullAccess+cacti.DcacheWayKnown) {
		t.Fatalf("dcache %v", m.Dcache)
	}
	m.DTLBLookup()
	m.DTLBReuse()
	if !almost(m.DTLB, cacti.DTLBAccess) {
		t.Fatalf("dtlb %v (reuse must be free)", m.DTLB)
	}
	if m.NDcacheFull != 1 || m.NDcacheWayKnown != 1 || m.NDTLBLookups != 1 || m.NTLBReuse != 1 {
		t.Fatal("event counters wrong")
	}
}

func TestSAMIETotal(t *testing.T) {
	m := NewMeter()
	m.BusSend()
	m.DistribRWAddr()
	m.SharedRWAddr()
	m.AddrBufferInsert()
	if !almost(m.SAMIETotal(), m.Bus+m.Distrib+m.Shared+m.AddrBuffer) {
		t.Fatal("SAMIETotal wrong")
	}
}

func TestEntryAreas(t *testing.T) {
	m := NewMeter()
	w := m.W
	wantConv := cacti.ConvAreas.AddrCAM*float64(w.AddrBits) + cacti.ConvAreas.Datum*float64(w.DatumBits)
	if !almost(m.ConvEntryArea(), wantConv) {
		t.Fatalf("conv entry area %v, want %v", m.ConvEntryArea(), wantConv)
	}
	if m.DistribEntryArea() <= 0 || m.DistribSlotArea() <= 0 ||
		m.SharedEntryArea() <= 0 || m.SharedSlotArea() <= 0 || m.AddrBufferSlotArea() <= 0 {
		t.Fatal("non-positive area")
	}
	// SAMIE cells are smaller than conventional cells: per-slot area
	// must be below a conventional entry.
	if m.DistribSlotArea() >= m.ConvEntryArea() {
		t.Fatal("distrib slot area not smaller than conventional entry")
	}
}

func TestAccumulateConvArea(t *testing.T) {
	m := NewMeter()
	m.AccumulateArea(Activity{ConvInUse: 10, ConvEntries: 128}, 1)
	want := 14 * m.ConvEntryArea() // 10 in use + 4 reserve
	if !almost(m.ConvArea, want) {
		t.Fatalf("conv area %v, want %v", m.ConvArea, want)
	}
	if m.SAMIEArea() != 0 {
		t.Fatalf("a conventional cycle charged SAMIE area %v", m.SAMIEArea())
	}
	// Capped at capacity.
	m2 := NewMeter()
	m2.AccumulateArea(Activity{ConvInUse: 127, ConvEntries: 128}, 1)
	if !almost(m2.ConvArea, 128*m2.ConvEntryArea()) {
		t.Fatal("conv area not capped at capacity")
	}
}

func TestAccumulateSAMIEArea(t *testing.T) {
	m := NewMeter()
	// Two distrib entries with 2+3 active slots, one shared entry with
	// one slot, 5 AddrBuffer slots in use.
	a := Activity{DistribEntries: 2, DistribSlots: 5, SharedEntries: 1, SharedSlots: 1, AddrBufferInUse: 5, AddrBufferCap: 64}
	m.AccumulateArea(a, 1)
	wantD := 2*m.DistribEntryArea() + 5*m.DistribSlotArea()
	wantS := m.SharedEntryArea() + 1*m.SharedSlotArea()
	wantAB := 9 * m.AddrBufferSlotArea()
	if !almost(m.DistribArea, wantD) || !almost(m.SharedArea, wantS) || !almost(m.AddrBufferArea, wantAB) {
		t.Fatalf("areas %v/%v %v/%v %v/%v",
			m.DistribArea, wantD, m.SharedArea, wantS, m.AddrBufferArea, wantAB)
	}
	if !almost(m.SAMIEArea(), wantD+wantS+wantAB) || m.ConvArea != 0 {
		t.Fatal("SAMIEArea sum wrong")
	}
	// n cycles at once are n one-cycle adds, bit for bit; zero cycles
	// add nothing.
	once := *m
	for i := 0; i < 36; i++ {
		once.AccumulateArea(a, 1)
	}
	m.AccumulateArea(a, 36)
	m.AccumulateArea(a, 0)
	if *m != once {
		t.Fatalf("36 cycles at once %+v, one at a time %+v", *m, once)
	}
}

func TestReset(t *testing.T) {
	m := NewMeter()
	m.ConvCompare(5)
	m.DcacheFull()
	m.AccumulateArea(Activity{ConvInUse: 3, ConvEntries: 128}, 1)
	m.Reset()
	if m.ConvLSQ != 0 || m.Dcache != 0 || m.ConvArea != 0 || m.NConvCompares != 0 {
		t.Fatal("Reset left residue")
	}
	if m.W != DefaultWidths() {
		t.Fatal("Reset lost widths")
	}
}
