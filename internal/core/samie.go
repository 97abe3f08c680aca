// Package core implements the SAMIE-LSQ: the set-associative,
// multiple-instruction-entry load/store queue that is the paper's
// contribution (§3).
//
// The SAMIE-LSQ groups in-flight memory instructions that access the
// same cache line into a single entry. Three structures cooperate:
//
//   - DistribLSQ: a highly banked queue. The bank is selected
//     direct-mapped from the cache-line address; within a bank the
//     (few) entries are searched fully associatively. Each entry keys
//     one cache line and holds several instruction slots.
//   - SharedLSQ: a small fully-associative spill structure with the
//     same entry format, for lines that find no room in their bank.
//   - AddrBuffer: a simple FIFO where instructions wait when neither
//     structure has room; buffered instructions cannot access the
//     cache and have placement priority over newly computed addresses.
//
// Entries additionally cache the line's physical location in the L1
// Dcache (set and way) and its DTLB translation, letting subsequent
// instructions in the entry skip the tag check, read a single way and
// skip the DTLB (§3.4). The presentBit protocol keeps the cached
// location coherent with replacements.
package core

import (
	"fmt"

	"samielsq/internal/energy"
	"samielsq/internal/lsq"
)

// Config sizes the SAMIE-LSQ structures.
type Config struct {
	Banks           int // DistribLSQ banks (direct-mapped by line address)
	EntriesPerBank  int
	SlotsPerEntry   int
	SharedEntries   int // SharedLSQ entries (ignored if SharedUnbounded)
	AddrBufferSlots int

	LineBytes int // cache line size the entries are keyed on

	// SharedUnbounded removes the SharedLSQ capacity limit; used by the
	// Figure 3 sizing study.
	SharedUnbounded bool

	// Ablation switches (§3.4 extensions).
	DisableWayCaching bool
	DisableTLBCaching bool

	// FastWayKnown enables the paper's future-work optimization
	// (§3.6, Table 1): way-known accesses skip the tag path and
	// complete one cycle earlier.
	FastWayKnown bool
}

// PaperConfig returns the Table 3 configuration: 64 banks x 2 entries
// x 8 slots, 8 SharedLSQ entries x 8 slots, 64 AddrBuffer slots,
// 32-byte lines.
func PaperConfig() Config {
	return Config{
		Banks:           64,
		EntriesPerBank:  2,
		SlotsPerEntry:   8,
		SharedEntries:   8,
		AddrBufferSlots: 64,
		LineBytes:       32,
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.Banks <= 0 || c.EntriesPerBank <= 0 || c.SlotsPerEntry <= 0 {
		return fmt.Errorf("core: banks, entries and slots must be positive")
	}
	if c.SharedEntries < 0 {
		return fmt.Errorf("core: SharedEntries must be >= 0")
	}
	if c.AddrBufferSlots <= 0 {
		return fmt.Errorf("core: AddrBufferSlots must be positive")
	}
	if c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("core: LineBytes must be a positive power of two")
	}
	return nil
}

// location identifies the slot a placed instruction sits in. It is
// packed into the tracker Op's Loc field (kind, bank, entry, slot) so
// the hot path needs no side map from sequence numbers to placements.
type location struct {
	kind  locKind
	bank  int // DistribLSQ bank (locDistrib only)
	entry int // entry index within the bank / SharedLSQ
	slot  int
}

type locKind uint8

const (
	locDistrib locKind = iota
	locShared
)

// locOf unpacks op's placement; ok is false when op has none (it has
// no address yet or waits in the AddrBuffer).
func locOf(op *lsq.Op) (location, bool) {
	if op == nil || op.Loc[0] < 0 {
		return location{}, false
	}
	return location{
		kind:  locKind(op.Loc[0]),
		bank:  op.Loc[1],
		entry: op.Loc[2],
		slot:  op.Loc[3],
	}, true
}

// slot is one instruction within an entry: its age id. The access
// itself (type, offset, size) is read from the tracker op, which the
// forwarding search walks.
type slot struct {
	valid bool
	seq   uint64
}

// entry keys one cache line and holds SlotsPerEntry instructions.
type entry struct {
	valid    bool
	lineAddr uint64
	slots    []slot
	used     int

	// §3.4 cached state.
	locValid bool // physical Dcache location cached (presentBit peer)
	set, way int
	vpnValid bool
	vpn      uint64
}

func (e *entry) freeSlot() int {
	for i := range e.slots {
		if !e.slots[i].valid {
			return i
		}
	}
	return -1
}

// abEntry is one AddrBuffer FIFO element.
type abEntry struct {
	seq  uint64
	addr uint64
}

// abRing is the AddrBuffer FIFO: a fixed-capacity ring so the
// insert/drain cycle never reallocates.
type abRing struct {
	buf  []abEntry
	head int
	n    int
}

func (r *abRing) len() int       { return r.n }
func (r *abRing) front() abEntry { return r.buf[r.head] }

func (r *abRing) push(e abEntry) {
	idx := r.head + r.n
	if idx >= len(r.buf) {
		idx -= len(r.buf)
	}
	r.buf[idx] = e
	r.n++
}

func (r *abRing) pop() {
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
}

func (r *abRing) clear() { r.head, r.n = 0, 0 }

// Stats aggregates SAMIE-specific statistics.
type Stats struct {
	PlacedDistrib  uint64
	PlacedShared   uint64
	Buffered       uint64 // insertions into the AddrBuffer
	PlaceFailures  uint64 // all three structures full (-> CPU flush)
	WayKnownHits   uint64 // accesses performed with a cached location
	TLBReuses      uint64
	PresentFlushes uint64 // ClearCachedLocations invocations

	Cycles            uint64
	SumSharedOcc      float64 // SharedLSQ entry occupancy per cycle
	MaxSharedOcc      int
	CyclesABNonEmpty  uint64 // cycles with at least one AddrBuffer element
	SumABOcc          float64
	SumDistribEntries float64 // in-use DistribLSQ entries per cycle
	SumInFlight       float64
}

// MeanSharedOcc returns the average SharedLSQ occupancy (entries).
func (s *Stats) MeanSharedOcc() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return s.SumSharedOcc / float64(s.Cycles)
}

// ABEmptyFraction returns the fraction of cycles with an empty
// AddrBuffer (the Figure 4 criterion).
func (s *Stats) ABEmptyFraction() float64 {
	if s.Cycles == 0 {
		return 1
	}
	return 1 - float64(s.CyclesABNonEmpty)/float64(s.Cycles)
}

// SAMIE implements lsq.Model. It overrides the lsq.Base location
// cache hooks and FreeCapacity with its own.
type SAMIE struct {
	lsq.Base
	cfg     Config
	banks   [][]entry // [bank][entry]
	shared  []entry
	addrBuf abRing
	t       *lsq.Tracker // the Base's tracker
	meter   *energy.Meter
	areas   energy.EntryAreas // meter's per-entry areas
	stats   Stats

	lineMask uint64
	// scratch buffers reused across calls to avoid per-event allocation
	scratchSlots []int
	tickBuf      []uint64

	// released records a Commit since the last AddrBuffer drain pass.
	// Placements only ever consume room, so an AddrBuffer head that did
	// not fit cannot fit before a retirement frees some (a Flush empties
	// the AddrBuffer): Tick retries only when released is set (the
	// lsq.Model.Tick contract).
	released bool

	// Occupancy summaries maintained incrementally at fill/free so the
	// per-cycle accounting is O(1) instead of a walk over every bank.
	bankUsed        []int // valid entries per DistribLSQ bank
	banksWithFree   int   // banks with at least one free entry
	distribActive   int   // valid DistribLSQ entries
	sumDistribSlots int   // Σ min(used+1, SlotsPerEntry) over valid distrib entries
	sharedActive    int   // valid SharedLSQ entries
	sumSharedSlots  int   // Σ min(used+1, SlotsPerEntry) over valid shared entries
}

var _ lsq.Model = (*SAMIE)(nil)

// New builds a SAMIE-LSQ; meter may be nil. It panics on invalid
// configuration (use Config.Validate for data-driven configs).
func New(cfg Config, meter *energy.Meter) *SAMIE {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if meter == nil {
		meter = energy.NewMeter()
	}
	t := lsq.NewTracker()
	s := &SAMIE{
		Base:     lsq.NewBase(t),
		cfg:      cfg,
		banks:    make([][]entry, cfg.Banks),
		t:        t,
		meter:    meter,
		areas:    meter.EntryAreas(),
		lineMask: ^(uint64(cfg.LineBytes) - 1),
		addrBuf:  abRing{buf: make([]abEntry, cfg.AddrBufferSlots)},
		bankUsed: make([]int, cfg.Banks),
	}
	s.banksWithFree = cfg.Banks
	shared := cfg.SharedEntries
	if cfg.SharedUnbounded {
		shared = 0 // grows on demand
	}
	// Every bank's entries come from one array and every entry's slots
	// from another (pointer-free), each slice capped so no append can
	// run into its neighbour's.
	distrib := cfg.Banks * cfg.EntriesPerBank
	entries := make([]entry, distrib+shared)
	slots := make([]slot, (distrib+shared)*cfg.SlotsPerEntry)
	for i := range entries {
		lo, hi := i*cfg.SlotsPerEntry, (i+1)*cfg.SlotsPerEntry
		entries[i].slots = slots[lo:hi:hi]
	}
	for b := range s.banks {
		lo, hi := b*cfg.EntriesPerBank, (b+1)*cfg.EntriesPerBank
		s.banks[b] = entries[lo:hi:hi]
	}
	s.shared = entries[distrib:]
	return s
}

// NewPaper builds the Table 3 configuration.
func NewPaper(meter *energy.Meter) *SAMIE { return New(PaperConfig(), meter) }

// Config returns the configuration.
func (s *SAMIE) Config() Config { return s.cfg }

// Stats returns the accumulated statistics.
func (s *SAMIE) Stats() Stats { return s.stats }

// Meter returns the energy meter used by this instance.
func (s *SAMIE) Meter() *energy.Meter { return s.meter }

func (s *SAMIE) lineOf(addr uint64) uint64 { return addr & s.lineMask }

func (s *SAMIE) bankOf(lineAddr uint64) int {
	return int((lineAddr / uint64(s.cfg.LineBytes)) % uint64(s.cfg.Banks))
}

// activeSlots is the §4.5 active slot count of an entry with `used`
// in-use slots: the in-use slots plus one pre-allocated, capped at the
// entry's capacity.
func (s *SAMIE) activeSlots(used int) int {
	if used+1 > s.cfg.SlotsPerEntry {
		return s.cfg.SlotsPerEntry
	}
	return used + 1
}

// Dispatch implements lsq.Model. The SAMIE-LSQ never stalls dispatch:
// instructions without a computed address occupy no LSQ resources.
//
//samie:hotpath
func (s *SAMIE) Dispatch(seq uint64, isLoad bool) bool {
	s.t.Add(seq, isLoad)
	return true
}

// chargeSearch accounts the energy of one placement search: the
// address is broadcast to its bank and compared against the in-use
// entries of that bank and of the SharedLSQ in parallel, and the age
// id is compared against the in-use slots of both (§4.2).
func (s *SAMIE) chargeSearch(bank int) {
	s.meter.BusSend()
	inBank := 0
	s.scratchSlots = s.scratchSlots[:0]
	for e := range s.banks[bank] {
		if s.banks[bank][e].valid {
			inBank++
			s.scratchSlots = append(s.scratchSlots, s.banks[bank][e].used)
		}
	}
	s.meter.DistribCompare(inBank)
	s.meter.DistribAgeCompare(s.scratchSlots)

	inShared := 0
	s.scratchSlots = s.scratchSlots[:0]
	for e := range s.shared {
		if s.shared[e].valid {
			inShared++
			s.scratchSlots = append(s.scratchSlots, s.shared[e].used)
		}
	}
	s.meter.SharedCompare(inShared)
	s.meter.SharedAgeCompare(s.scratchSlots)
}

// fillSlot installs the op into (entries, ei, si) and records the
// placement.
func (s *SAMIE) fillSlot(op *lsq.Op, kind locKind, bank, ei, si int) {
	var e *entry
	if kind == locDistrib {
		e = &s.banks[bank][ei]
	} else {
		e = &s.shared[ei]
	}
	newEntry := !e.valid
	if newEntry {
		*e = entry{valid: true, lineAddr: s.lineOf(op.Addr), slots: e.slots}
		for i := range e.slots {
			e.slots[i] = slot{}
		}
	}
	e.slots[si] = slot{valid: true, seq: op.Seq}
	e.used++
	if kind == locDistrib {
		if newEntry {
			s.distribActive++
			s.bankUsed[bank]++
			if s.bankUsed[bank] == s.cfg.EntriesPerBank {
				s.banksWithFree--
			}
			s.sumDistribSlots += s.activeSlots(e.used)
		} else {
			s.sumDistribSlots += s.activeSlots(e.used) - s.activeSlots(e.used-1)
		}
	} else {
		if newEntry {
			s.sharedActive++
			s.sumSharedSlots += s.activeSlots(e.used)
		} else {
			s.sumSharedSlots += s.activeSlots(e.used) - s.activeSlots(e.used-1)
		}
	}
	s.t.SetPlaced(op)
	op.Loc = [4]int{int(kind), bank, ei, si}
	// Energy: write the age id (and the line address for new entries).
	if kind == locDistrib {
		s.stats.PlacedDistrib++
		s.meter.DistribRWAge()
		if newEntry {
			s.meter.DistribRWAddr()
		}
		if !op.IsLoad {
			s.meter.DistribRWDatum() // store data written into the slot
		}
	} else {
		s.stats.PlacedShared++
		s.meter.SharedRWAge()
		if newEntry {
			s.meter.SharedRWAddr()
		}
		if !op.IsLoad {
			s.meter.SharedRWDatum()
		}
	}
}

// tryPlace attempts DistribLSQ then SharedLSQ placement (§3.2).
//
//samie:hotpath
func (s *SAMIE) tryPlace(op *lsq.Op) bool {
	line := s.lineOf(op.Addr)
	bank := s.bankOf(line)

	// 1) Same line in the bank with a free slot.
	for ei := range s.banks[bank] {
		e := &s.banks[bank][ei]
		if e.valid && e.lineAddr == line {
			if si := e.freeSlot(); si >= 0 {
				s.fillSlot(op, locDistrib, bank, ei, si)
				return true
			}
		}
	}
	// 2) Free entry in the bank.
	for ei := range s.banks[bank] {
		if !s.banks[bank][ei].valid {
			s.fillSlot(op, locDistrib, bank, ei, 0)
			return true
		}
	}
	// 3) Same line in the SharedLSQ with a free slot.
	for ei := range s.shared {
		e := &s.shared[ei]
		if e.valid && e.lineAddr == line {
			if si := e.freeSlot(); si >= 0 {
				s.fillSlot(op, locShared, -1, ei, si)
				return true
			}
		}
	}
	// 4) Free SharedLSQ entry.
	for ei := range s.shared {
		if !s.shared[ei].valid {
			s.fillSlot(op, locShared, -1, ei, 0)
			return true
		}
	}
	// 5) Unbounded SharedLSQ grows on demand (Figure 3 study).
	if s.cfg.SharedUnbounded {
		//lint:ignore hotalloc unbounded-study growth is the point of SharedUnbounded; bounded configs never reach here
		s.shared = append(s.shared, entry{slots: make([]slot, s.cfg.SlotsPerEntry)})
		s.fillSlot(op, locShared, -1, len(s.shared)-1, 0)
		return true
	}
	return false
}

// AddressReady implements lsq.Model (§3.2): search the bank and the
// SharedLSQ in parallel; fall back to the AddrBuffer; fail if all
// three structures are full.
//
//samie:hotpath
func (s *SAMIE) AddressReady(seq uint64, isLoad bool, addr uint64, size uint8) lsq.Placement {
	op := s.t.Get(seq)
	if op == nil {
		return lsq.Placement{Failed: true}
	}
	s.t.SetAddress(op, addr, size)
	s.chargeSearch(s.bankOf(s.lineOf(addr)))
	if s.tryPlace(op) {
		return lsq.Placement{Placed: true}
	}
	if s.addrBuf.len() < s.cfg.AddrBufferSlots {
		s.addrBuf.push(abEntry{seq: seq, addr: addr})
		s.stats.Buffered++
		s.meter.AddrBufferInsert()
		return lsq.Placement{Buffered: true}
	}
	s.stats.PlaceFailures++
	return lsq.Placement{Failed: true}
}

// Tick implements lsq.Model: drain the AddrBuffer head-first. The
// AddrBuffer is a strict FIFO (§3.3), so draining stops at the first
// element that still does not fit. A drain pass runs only after a
// Commit: until then the head that stopped the last pass still does
// not fit, so the skipped passes would place nothing.
//
//samie:hotpath
func (s *SAMIE) Tick() []uint64 {
	if s.addrBuf.len() == 0 || !s.released {
		return nil
	}
	s.released = false
	placed := s.tickBuf[:0]
	for s.addrBuf.len() > 0 {
		head := s.addrBuf.front()
		op := s.t.Get(head.seq)
		if op == nil {
			// Flushed or otherwise gone; drop the stale element.
			s.addrBuf.pop()
			continue
		}
		if !s.tryPlace(op) {
			// Waiting in the FIFO costs nothing: the retry is a cheap
			// free-entry availability check, not an associative search.
			break
		}
		// A buffered instruction re-runs the placement search once,
		// when it actually leaves the buffer.
		s.chargeSearch(s.bankOf(s.lineOf(head.addr)))
		s.meter.AddrBufferRemove()
		s.addrBuf.pop()
		//lint:ignore hotalloc appends into the reused tickBuf; capacity amortizes to the drain high-water mark
		placed = append(placed, head.seq)
	}
	s.tickBuf = placed[:0]
	return placed
}

// ForwardingSource implements lsq.Model. Store-to-load forwarding uses
// the slot age links established at placement time; the tracker search
// is the architectural equivalent.
//
//samie:hotpath
func (s *SAMIE) ForwardingSource(seq uint64) (uint64, bool) {
	src, ok := s.t.ForwardingSource(seq)
	if ok {
		// The load reads the store's datum from the slot and records
		// its own.
		loc, _ := locOf(s.t.Get(seq))
		if loc.kind == locShared {
			s.meter.SharedRWDatum()
			s.meter.SharedRWDatum()
		} else {
			s.meter.DistribRWDatum()
			s.meter.DistribRWDatum()
		}
	}
	return src, ok
}

// Plan implements lsq.Model: if the instruction's entry has a cached
// Dcache location (and translation), the access can skip the tag check
// and the DTLB.
func (s *SAMIE) Plan(seq uint64) lsq.AccessPlan {
	loc, ok := locOf(s.t.Get(seq))
	if !ok {
		return lsq.AccessPlan{}
	}
	e := s.entryAt(loc)
	if e == nil || !e.valid {
		return lsq.AccessPlan{}
	}
	plan := lsq.AccessPlan{}
	if e.locValid && !s.cfg.DisableWayCaching {
		plan.WayKnown = true
		plan.Set, plan.Way = e.set, e.way
		if s.cfg.FastWayKnown {
			plan.LatencyBonus = 1
		}
		// Reading the cached line id from the entry.
		if loc.kind == locShared {
			s.meter.SharedRWLineID()
		} else {
			s.meter.DistribRWLineID()
		}
		s.stats.WayKnownHits++
	}
	if e.vpnValid && !s.cfg.DisableTLBCaching {
		plan.TLBCached = true
		if loc.kind == locShared {
			s.meter.SharedRWTLB()
		} else {
			s.meter.DistribRWTLB()
		}
		s.stats.TLBReuses++
		s.meter.DTLBReuse()
	}
	return plan
}

// RecordAccess implements lsq.Model: after a conventional access the
// entry caches the physical location and the translation (§3.4).
func (s *SAMIE) RecordAccess(seq uint64, set, way int, vpn uint64) {
	loc, ok := locOf(s.t.Get(seq))
	if !ok {
		return
	}
	e := s.entryAt(loc)
	if e == nil || !e.valid {
		return
	}
	if !s.cfg.DisableWayCaching {
		e.locValid, e.set, e.way = true, set, way
		if loc.kind == locShared {
			s.meter.SharedRWLineID()
		} else {
			s.meter.DistribRWLineID()
		}
	}
	if !s.cfg.DisableTLBCaching {
		e.vpnValid, e.vpn = true, vpn
		if loc.kind == locShared {
			s.meter.SharedRWTLB()
		} else {
			s.meter.DistribRWTLB()
		}
	}
}

// NotePerformed implements lsq.Model.
func (s *SAMIE) NotePerformed(seq uint64) {
	op := s.t.Get(seq)
	if op == nil || !op.IsLoad {
		return
	}
	loc, ok := locOf(op)
	if !ok {
		return
	}
	if e := s.entryAt(loc); e != nil && e.valid {
		// The loaded datum is written into the slot.
		if loc.kind == locShared {
			s.meter.SharedRWDatum()
		} else {
			s.meter.DistribRWDatum()
		}
	}
}

// ClearCachedLocations implements lsq.Model: the paper's conservative
// presentBit invalidation resets the cached location of every entry.
// Cached translations stay valid (they do not depend on residency).
func (s *SAMIE) ClearCachedLocations() {
	s.stats.PresentFlushes++
	for b := range s.banks {
		for e := range s.banks[b] {
			s.banks[b][e].locValid = false
		}
	}
	for e := range s.shared {
		s.shared[e].locValid = false
	}
}

func (s *SAMIE) entryAt(loc location) *entry {
	switch loc.kind {
	case locDistrib:
		if loc.bank >= 0 && loc.bank < len(s.banks) && loc.entry >= 0 && loc.entry < len(s.banks[loc.bank]) {
			return &s.banks[loc.bank][loc.entry]
		}
	case locShared:
		if loc.entry >= 0 && loc.entry < len(s.shared) {
			return &s.shared[loc.entry]
		}
	}
	return nil
}

// Commit implements lsq.Model: free the slot; the entry frees when its
// last slot goes.
func (s *SAMIE) Commit(seq uint64) {
	s.released = true
	op := s.t.Remove(seq)
	loc, ok := locOf(op)
	if ok {
		if e := s.entryAt(loc); e != nil && e.valid && loc.slot < len(e.slots) && e.slots[loc.slot].valid && e.slots[loc.slot].seq == seq {
			if !op.IsLoad {
				// Store datum read out on its way to the Dcache.
				if loc.kind == locShared {
					s.meter.SharedRWDatum()
				} else {
					s.meter.DistribRWDatum()
				}
			}
			e.slots[loc.slot] = slot{}
			e.used--
			if e.used == 0 {
				e.valid = false
				e.locValid = false
				e.vpnValid = false
				if loc.kind == locShared {
					s.sharedActive--
					s.sumSharedSlots -= s.activeSlots(1)
				} else {
					s.distribActive--
					s.sumDistribSlots -= s.activeSlots(1)
					if s.bankUsed[loc.bank] == s.cfg.EntriesPerBank {
						s.banksWithFree++
					}
					s.bankUsed[loc.bank]--
				}
			} else if loc.kind == locShared {
				s.sumSharedSlots += s.activeSlots(e.used) - s.activeSlots(e.used+1)
			} else {
				s.sumDistribSlots += s.activeSlots(e.used) - s.activeSlots(e.used+1)
			}
		}
	}
	// Buffered instructions that commit (cannot normally happen: the
	// deadlock check fires first) are dropped from the FIFO lazily in
	// Tick.
}

// Flush implements lsq.Model.
func (s *SAMIE) Flush() {
	s.t.Clear()
	s.addrBuf.clear()
	for b := range s.banks {
		for e := range s.banks[b] {
			s.banks[b][e].valid = false
			s.banks[b][e].used = 0
			s.banks[b][e].locValid = false
			s.banks[b][e].vpnValid = false
			for i := range s.banks[b][e].slots {
				s.banks[b][e].slots[i] = slot{}
			}
		}
	}
	if s.cfg.SharedUnbounded {
		s.shared = s.shared[:0]
	} else {
		for e := range s.shared {
			s.shared[e].valid = false
			s.shared[e].used = 0
			s.shared[e].locValid = false
			s.shared[e].vpnValid = false
			for i := range s.shared[e].slots {
				s.shared[e].slots[i] = slot{}
			}
		}
	}
	for b := range s.bankUsed {
		s.bankUsed[b] = 0
	}
	s.banksWithFree = s.cfg.Banks
	s.distribActive, s.sumDistribSlots = 0, 0
	s.sharedActive, s.sumSharedSlots = 0, 0
}

// AccountCycles implements lsq.Model: occupancy statistics and §4.5
// active-area accumulation for n cycles. The entry/slot totals are
// maintained incrementally at fill/free time, so the one-cycle terms
// cost O(1) — no walk over the banks — and each sum adds its term
// times n. Every term is an entry count, an integer, so the product is
// exact below 2^53.
//
//samie:hotpath
func (s *SAMIE) AccountCycles(n uint64) {
	if n == 0 {
		return
	}
	st := &s.stats
	st.Cycles += n
	sharedOcc, abLen := s.sharedActive, s.addrBuf.len()
	st.MaxSharedOcc = max(st.MaxSharedOcc, sharedOcc)
	if abLen > 0 {
		st.CyclesABNonEmpty += n
	}
	k := float64(n)
	st.SumInFlight += float64(s.t.Len()) * k
	st.SumSharedOcc += float64(sharedOcc) * k
	st.SumABOcc += float64(abLen) * k
	st.SumDistribEntries += float64(s.distribActive) * k

	// One extra pre-allocated entry (with one active slot) in the
	// SharedLSQ when it has room, and one per DistribLSQ bank with a
	// free entry.
	sharedEntries, sharedSlots := s.sharedActive, s.sumSharedSlots
	if !s.cfg.SharedUnbounded && sharedOcc < len(s.shared) {
		sharedEntries++
		sharedSlots++
	}
	s.meter.AccumulateArea(energy.Activity{
		DistribEntries:  s.distribActive + s.banksWithFree,
		DistribSlots:    s.sumDistribSlots + s.banksWithFree,
		SharedEntries:   sharedEntries,
		SharedSlots:     sharedSlots,
		AddrBufferInUse: abLen,
		AddrBufferCap:   s.cfg.AddrBufferSlots,
	}, &s.areas, n)
}

// ResetStats implements lsq.Model.
func (s *SAMIE) ResetStats() { s.stats = Stats{} }

// FreeCapacity implements lsq.Model: in the worst case a computed
// address lands in the AddrBuffer, so the remaining FIFO slots bound
// how many address computations may safely be in flight (§3.3's
// alternative deadlock-avoidance rule).
func (s *SAMIE) FreeCapacity() int { return s.cfg.AddrBufferSlots - s.addrBuf.len() }

// AddrBufferLen returns the current AddrBuffer length.
func (s *SAMIE) AddrBufferLen() int { return s.addrBuf.len() }
