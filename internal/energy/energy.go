// Package energy implements the event-driven dynamic-energy and
// active-area accounting of §4.2–§4.5 of the paper.
//
// Dynamic energy: every LSQ, Dcache and DTLB activity is charged with
// the published CACTI-3.0-derived constants (Tables 4 and 5, and the
// cache/TLB access energies quoted in §4.2), accumulated per
// structure so the experiment harnesses can regenerate Figures 7–10
// and the SAMIE breakdown of Figure 8.
//
// Leakage proxy: following §4.5, the active area of each structure is
// accumulated *every cycle* (not averaged), using the Table 6 cell
// areas and the paper's activation policy (in-use entries plus a small
// pre-allocated reserve). Figures 11 and 12 come from these sums.
package energy

import "samielsq/internal/cacti"

// Widths fixes the per-field bit widths used to turn Table 6 cell
// areas into per-entry areas. The paper's configuration implies these
// values: 256-entry ROB -> 9-bit age ids (position + extra bit), 32-bit
// addresses over 32-byte lines, 64-bit data, 10-bit cache line ids for
// a 1024-line cache, ~20-bit cached translations.
type Widths struct {
	AddrBits   int
	LineIDBits int
	AgeBits    int
	DatumBits  int
	TLBBits    int
	OffsetBits int // offset within a cache line kept per slot
}

// DefaultWidths returns the widths implied by the paper configuration.
func DefaultWidths() Widths {
	return Widths{
		AddrBits:   32,
		LineIDBits: 10,
		AgeBits:    9,
		DatumBits:  64,
		TLBBits:    20,
		OffsetBits: 5,
	}
}

// Meter accumulates dynamic energy (pJ) per structure and active area
// (µm² · cycles).
type Meter struct {
	W Widths

	// Dynamic energy, pJ.
	ConvLSQ    float64
	Distrib    float64
	Shared     float64
	AddrBuffer float64
	Bus        float64
	Dcache     float64
	DTLB       float64

	// Accumulated active area, µm² · cycles.
	ConvArea       float64
	DistribArea    float64
	SharedArea     float64
	AddrBufferArea float64

	// Event counters (for tests and reporting).
	NConvCompares, NDistribCompares, NSharedCompares uint64
	NDcacheFull, NDcacheWayKnown, NDTLBLookups       uint64
	NTLBReuse, NBusSends                             uint64
}

// NewMeter returns a Meter with the default widths.
func NewMeter() *Meter { return &Meter{W: DefaultWidths()} }

// Reset zeroes all accumulated energy, area and event counts, keeping
// the configured widths. Used at the end of simulation warm-up.
func (m *Meter) Reset() {
	w := m.W
	*m = Meter{W: w}
}

// ---- Conventional LSQ events (Table 4) --------------------------------

// ConvCompare charges one associative address comparison against n
// addresses.
func (m *Meter) ConvCompare(n int) {
	m.NConvCompares++
	m.ConvLSQ += cacti.ConvLSQ.CmpBase + cacti.ConvLSQ.CmpPerAddr*float64(n)
}

// ConvRWAddr charges one address read or write.
func (m *Meter) ConvRWAddr() { m.ConvLSQ += cacti.ConvLSQ.RWAddr }

// ConvRWDatum charges one datum read or write.
func (m *Meter) ConvRWDatum() { m.ConvLSQ += cacti.ConvLSQ.RWDatum }

// ---- DistribLSQ events (Table 5) --------------------------------------

// BusSend charges broadcasting an address to a DistribLSQ bank.
func (m *Meter) BusSend() {
	m.NBusSends++
	m.Bus += cacti.BusSendAddr
}

// DistribCompare charges an address comparison against n in-use
// entries of one bank.
func (m *Meter) DistribCompare(n int) {
	m.NDistribCompares++
	m.Distrib += cacti.DistribLSQ.CmpBase + cacti.DistribLSQ.CmpPerAddr*float64(n)
}

// DistribAgeCompare charges age-id comparisons: for each entry, a
// fixed cost plus a per-id cost for its in-use slots. slotsPerEntry
// lists the in-use slot count of each compared entry.
func (m *Meter) DistribAgeCompare(slotsPerEntry []int) {
	for _, s := range slotsPerEntry {
		m.Distrib += cacti.DistribLSQ.AgeCmpBase + cacti.DistribLSQ.AgeCmpPerID*float64(s)
	}
}

// DistribRWAddr charges one line-address read/write in a bank.
func (m *Meter) DistribRWAddr() { m.Distrib += cacti.DistribLSQ.RWAddr }

// DistribRWAge charges one age-id read/write.
func (m *Meter) DistribRWAge() { m.Distrib += cacti.DistribLSQ.RWAge }

// DistribRWDatum charges one datum read/write.
func (m *Meter) DistribRWDatum() { m.Distrib += cacti.DistribLSQ.RWDatum }

// DistribRWTLB charges reading or writing the cached translation.
func (m *Meter) DistribRWTLB() { m.Distrib += cacti.DistribLSQ.RWTLB }

// DistribRWLineID charges reading or writing the cached line location.
func (m *Meter) DistribRWLineID() { m.Distrib += cacti.DistribLSQ.RWLineID }

// ---- SharedLSQ events (Table 5) ----------------------------------------

// SharedCompare charges an address comparison against n in-use
// SharedLSQ entries.
func (m *Meter) SharedCompare(n int) {
	m.NSharedCompares++
	m.Shared += cacti.SharedLSQ.CmpBase + cacti.SharedLSQ.CmpPerAddr*float64(n)
}

// SharedAgeCompare charges age-id comparisons over the SharedLSQ.
func (m *Meter) SharedAgeCompare(slotsPerEntry []int) {
	for _, s := range slotsPerEntry {
		m.Shared += cacti.SharedLSQ.AgeCmpBase + cacti.SharedLSQ.AgeCmpPerID*float64(s)
	}
}

// SharedRWAddr charges one line-address read/write.
func (m *Meter) SharedRWAddr() { m.Shared += cacti.SharedLSQ.RWAddr }

// SharedRWAge charges one age-id read/write.
func (m *Meter) SharedRWAge() { m.Shared += cacti.SharedLSQ.RWAge }

// SharedRWDatum charges one datum read/write.
func (m *Meter) SharedRWDatum() { m.Shared += cacti.SharedLSQ.RWDatum }

// SharedRWTLB charges reading or writing the cached translation.
func (m *Meter) SharedRWTLB() { m.Shared += cacti.SharedLSQ.RWTLB }

// SharedRWLineID charges reading or writing the cached line location.
func (m *Meter) SharedRWLineID() { m.Shared += cacti.SharedLSQ.RWLineID }

// ---- AddrBuffer events --------------------------------------------------

// AddrBufferInsert charges writing an instruction into the AddrBuffer.
func (m *Meter) AddrBufferInsert() {
	m.AddrBuffer += cacti.AddrBufferDatum + cacti.AddrBufferAgeID
}

// AddrBufferRemove charges reading an instruction out of the
// AddrBuffer.
func (m *Meter) AddrBufferRemove() {
	m.AddrBuffer += cacti.AddrBufferDatum + cacti.AddrBufferAgeID
}

// ---- Dcache / DTLB events ----------------------------------------------

// DcacheFull charges one conventional L1 Dcache access (all ways read,
// tags compared).
func (m *Meter) DcacheFull() {
	m.NDcacheFull++
	m.Dcache += cacti.DcacheFullAccess
}

// DcacheWayKnown charges one single-way, tag-less access (§3.4).
func (m *Meter) DcacheWayKnown() {
	m.NDcacheWayKnown++
	m.Dcache += cacti.DcacheWayKnown
}

// DTLBLookup charges one DTLB access.
func (m *Meter) DTLBLookup() {
	m.NDTLBLookups++
	m.DTLB += cacti.DTLBAccess
}

// DTLBReuse records a translation served from an LSQ entry (no DTLB
// energy; counted for reporting).
func (m *Meter) DTLBReuse() { m.NTLBReuse++ }

// ---- Per-entry areas (Table 6 cells × Widths bits) ----------------------

// ConvEntryArea returns the area of one conventional LSQ entry.
func (m *Meter) ConvEntryArea() float64 {
	return cacti.ConvAreas.AddrCAM*float64(m.W.AddrBits) +
		cacti.ConvAreas.Datum*float64(m.W.DatumBits)
}

// DistribEntryArea returns the per-entry overhead area of a DistribLSQ
// entry (line address, cached translation, cached line id).
func (m *Meter) DistribEntryArea() float64 {
	return cacti.DistribAreas.AddrCAM*float64(m.W.AddrBits-m.W.OffsetBits) +
		cacti.DistribAreas.TLB*float64(m.W.TLBBits) +
		cacti.DistribAreas.LineID*float64(m.W.LineIDBits)
}

// DistribSlotArea returns the per-slot area (age id, offset, datum).
func (m *Meter) DistribSlotArea() float64 {
	return cacti.DistribAreas.AgeCAM*float64(m.W.AgeBits+m.W.OffsetBits) +
		cacti.DistribAreas.Datum*float64(m.W.DatumBits)
}

// SharedEntryArea returns the per-entry overhead area of a SharedLSQ
// entry.
func (m *Meter) SharedEntryArea() float64 {
	return cacti.SharedAreas.AddrCAM*float64(m.W.AddrBits-m.W.OffsetBits) +
		cacti.SharedAreas.TLB*float64(m.W.TLBBits) +
		cacti.SharedAreas.LineID*float64(m.W.LineIDBits)
}

// SharedSlotArea returns the per-slot area of a SharedLSQ entry.
func (m *Meter) SharedSlotArea() float64 {
	return cacti.SharedAreas.AgeCAM*float64(m.W.AgeBits+m.W.OffsetBits) +
		cacti.SharedAreas.Datum*float64(m.W.DatumBits)
}

// AddrBufferSlotArea returns the area of one AddrBuffer slot.
func (m *Meter) AddrBufferSlotArea() float64 {
	return cacti.AddrBufferAreas.Datum*float64(m.W.AddrBits) +
		cacti.AddrBufferAreas.AgeCAM*float64(m.W.AgeBits)
}

// ---- Per-cycle active-area accumulation (§4.5) ---------------------------

// Activity is what §4.5 counts as active in an LSQ over one cycle.
// Conventional and AddrBuffer entries are active in use plus four
// pre-allocated, capped at their capacity. DistribEntries and
// SharedEntries count active entries, in use plus the pre-allocated
// reserves (one per DistribLSQ bank with room and one in the
// SharedLSQ); DistribSlots and SharedSlots sum those entries' active
// slots (in use + 1 per entry, capped at the slots per entry). The
// models keep these totals incrementally, so accounting is O(1) in the
// LSQ size. A structure a model lacks is left zero and adds no area.
type Activity struct {
	ConvInUse, ConvEntries         int
	DistribEntries, DistribSlots   int
	SharedEntries, SharedSlots     int
	AddrBufferInUse, AddrBufferCap int
}

// AccumulateArea adds n cycles of active area at a, as n times each
// structure's one-cycle area. Table 6's cell areas are integers and so
// are the widths and counts, so every term, product and sum is an
// integer: exact below 2^53, and bit-identical to accounting the
// cycles one at a time.
//
//samie:hotpath
func (m *Meter) AccumulateArea(a Activity, n uint64) {
	k := float64(n)
	m.ConvArea += float64(reserved(a.ConvInUse, a.ConvEntries)) * m.ConvEntryArea() * k
	m.DistribArea += (float64(a.DistribEntries)*m.DistribEntryArea() + float64(a.DistribSlots)*m.DistribSlotArea()) * k
	m.SharedArea += (float64(a.SharedEntries)*m.SharedEntryArea() + float64(a.SharedSlots)*m.SharedSlotArea()) * k
	m.AddrBufferArea += float64(reserved(a.AddrBufferInUse, a.AddrBufferCap)) * m.AddrBufferSlotArea() * k
}

// reserved is §4.5's active count of a structure that keeps four
// entries pre-allocated beyond those in use, capped at its capacity.
func reserved(inUse, capacity int) int {
	return min(inUse+4, capacity)
}

// ---- Totals ---------------------------------------------------------------

// SAMIETotal returns the total SAMIE-LSQ dynamic energy (pJ),
// including the bank bus.
func (m *Meter) SAMIETotal() float64 {
	return m.Distrib + m.Shared + m.AddrBuffer + m.Bus
}

// SAMIEArea returns the total accumulated SAMIE active area.
func (m *Meter) SAMIEArea() float64 {
	return m.DistribArea + m.SharedArea + m.AddrBufferArea
}
