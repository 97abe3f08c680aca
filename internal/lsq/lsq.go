// Package lsq defines the load/store-queue model abstraction used by
// the CPU simulator, plus the two baselines of the paper: the
// conventional fully-associative LSQ (§4.2) and the ARB of Franklin &
// Sohi (§2, evaluated in Figure 1). The SAMIE-LSQ itself lives in
// package core and implements the same Model interface.
//
// Protocol between the CPU and a Model, per memory instruction:
//
//	Dispatch(seq, isLoad)        at rename; false stalls dispatch
//	AddressReady(seq, ...)       when the effective address is computed
//	Tick()                       once per cycle; drains placement buffers
//	                             (a Tick that placed nothing places
//	                             nothing until the next Commit or Flush)
//	ForwardingSource(seq)        when a load is ready to perform
//	Plan(seq) / RecordAccess     around the Dcache access (way caching)
//	NotePerformed(seq)           when the access/forward completes
//	Commit(seq)                  in order at retirement
//	Flush()                      on a pipeline flush
//	AccountCycles(n)             for n cycles that change no model state
//	                             (occupancy/area stats); every measured
//	                             cycle is accounted exactly once, and no
//	                             warm-up cycle
//
// Placement is reported only through the AddressReady and Tick
// results: the model answers no query for it, and the CPU keeps its
// own copy for the deadlock check at the ROB head. Commit is only
// called for the oldest sequence number given to Dispatch and not yet
// committed or flushed: the CPU retires non-memory instructions
// without consulting the model, and memory ones in program order.
//
// The conservative readyBit disambiguation scheme (§3.1) is enforced
// by the CPU model: a load only performs once every older store's
// address is known. ForwardingSource searches only placed stores, so
// the rule makes it exact over those alone: a store still waiting in
// the SAMIE AddrBuffer or the ARB pending list is invisible to it.
//
// The ideal LSQ of Figure 1 is a Conventional without a capacity bound
// or an energy account (NewUnbounded). Every model embeds Base, which
// writes once the methods the organizations share, and keeps its
// in-flight memory instructions in a Tracker: one seq-indexed window
// of Op values that answers lookups, store-to-load forwarding and the
// conventional LSQ's compare counts for every organization.
package lsq

import "math/bits"

// AccessPlan tells the CPU how a Dcache access may be performed.
type AccessPlan struct {
	WayKnown  bool // location cached in the LSQ entry: single-way, no tag check
	Set, Way  int
	TLBCached bool // translation cached: skip the DTLB lookup

	// LatencyBonus is the cycles shaved off the access because the
	// way-known path is faster than a conventional access (Table 1;
	// the paper leaves exploiting this to future work, implemented
	// here behind core.Config.FastWayKnown).
	LatencyBonus int
}

// Placement reports where AddressReady put an instruction.
type Placement struct {
	Placed   bool // resident in a searchable LSQ structure
	Buffered bool // waiting (SAMIE AddrBuffer / ARB bank-conflict queue)
	Failed   bool // nowhere to put it: the CPU must flush (§3.3)
}

// Model is a load/store queue organization.
type Model interface {
	// Dispatch reserves space at rename time; false stalls dispatch.
	Dispatch(seq uint64, isLoad bool) bool
	// AddressReady delivers a computed effective address.
	AddressReady(seq uint64, isLoad bool, addr uint64, size uint8) Placement
	// Tick runs once per cycle and returns the sequence numbers that
	// moved from a buffer into the searchable LSQ this cycle. The
	// returned slice is only valid until the next Tick call:
	// implementations reuse it to keep the per-cycle path
	// allocation-free.
	//
	// Contract: after a Tick that placed nothing, Tick places nothing
	// and changes nothing a caller can observe (energy, statistics,
	// occupancy) until the next Commit or Flush, whatever Dispatch,
	// AddressReady, ForwardingSource, NotePerformed, Plan, RecordAccess
	// or ClearCachedLocations calls come in between. Only
	// a retirement or a flush frees room, so a buffered instruction
	// that did not fit cannot fit before one. The CPU relies on this to
	// skip Tick across quiescent cycles (cpu/sched.go).
	Tick() []uint64
	// ForwardingSource returns the youngest older store whose access
	// overlaps the load's bytes, if any.
	ForwardingSource(seq uint64) (storeSeq uint64, ok bool)
	// Plan returns how the Dcache access for seq may be performed.
	Plan(seq uint64) AccessPlan
	// RecordAccess informs the model of a completed conventional
	// access so it can cache the line location and translation.
	RecordAccess(seq uint64, set, way int, vpn uint64)
	// NotePerformed marks the memory access (or forward) complete.
	NotePerformed(seq uint64)
	// ClearCachedLocations invalidates all cached line locations
	// (presentBit flush, §3.4).
	ClearCachedLocations()
	// Commit retires the oldest in-flight instruction, seq. Any other
	// seq is a contract violation: the tracker panics.
	Commit(seq uint64)
	// Flush drops every non-committed instruction.
	Flush()
	// AccountCycles runs the per-cycle statistics (occupancy, active
	// area) for n consecutive cycles over which no other method is
	// called, so the model's state is the same in each; n may be 0.
	// It costs O(1) whatever n: integer counters add n, the maxima take
	// one compare, and every occupancy and area sum adds its one-cycle
	// term times n (energy.Meter.AccumulateArea, with per-entry areas
	// the model computed once at construction). Each term is an
	// integer, so the product is exact below 2^53 and n cycles at once
	// are bit-identical to n calls with 1. The CPU calls it with 1 for
	// a stepped cycle and once per chunk of a quiescent span it skips
	// (cpu/sched.go), and not at all during warm-up, whose statistics
	// ResetStats discards.
	AccountCycles(n uint64)
	// ResetStats zeroes occupancy/event statistics (state is kept);
	// called at the end of simulation warm-up.
	ResetStats()
	// FreeCapacity returns how many additional computed addresses the
	// model can accept without AddressReady failing. The CPU gates
	// address computations on it (the paper's §3.3 alternative to
	// flushing when every structure is full).
	FreeCapacity() int
	// InFlight returns the number of tracked memory instructions.
	InFlight() int
}

// Base is embedded by every model. It owns the Tracker of in-flight
// instructions and implements the Model methods the organizations
// share: the tracker query InFlight, and the defaults of a model that
// caches no Dcache locations and always finds a computed address a
// home. A model overrides what it really implements.
type Base struct {
	t *Tracker
}

// NewBase returns a Base over t.
func NewBase(t *Tracker) Base { return Base{t: t} }

// InFlight implements Model.
func (b *Base) InFlight() int { return b.t.Len() }

// Plan implements Model: no location is cached, so every access is a
// conventional one.
func (b *Base) Plan(seq uint64) AccessPlan { return AccessPlan{} }

// RecordAccess implements Model (no-op).
func (b *Base) RecordAccess(seq uint64, set, way int, vpn uint64) {}

// ClearCachedLocations implements Model (no-op).
func (b *Base) ClearCachedLocations() {}

// FreeCapacity implements Model: AddressReady never fails outright
// (the conventional LSQ allocates entries at dispatch, and the ARB's
// conflicting instructions wait in reservation stations).
func (b *Base) FreeCapacity() int { return int(^uint(0) >> 1) }

// Op is the per-instruction record shared by the LSQ models: the one
// home of an in-flight memory instruction's age, address and
// placement. An op with a known address that is not placed is waiting
// in a placement buffer (the SAMIE AddrBuffer or the ARB pending list).
//
// Ops live by value in the Tracker's ring, so a *Op the tracker
// returns is valid only until the next Add (which may grow the ring)
// or Clear; no model keeps one across calls. Addr/Size/AddrKnown and
// Placed must be changed through the Tracker's SetAddress / SetPlaced
// so its summaries stay coherent. Loc is free for models to use
// directly. The byte fields come last so that an Op fills one 64-byte
// ring slot (TestOpSlotSize).
type Op struct {
	Seq  uint64
	Addr uint64

	// ord is the op's store ordinal (tracker internal): a store's own
	// position in the store ring, and for a load the ordinal the next
	// store will get, so the load's older stores are [storeHead, ord).
	ord uint64

	// Loc holds model-defined placement indices.
	Loc [4]int

	IsLoad    bool
	Size      uint8
	AddrKnown bool
	Placed    bool
	counted   bool // placed with a known address: its count bit is set
}

// storeRec is the compact forwarding record of one in-flight store.
// The tracker keeps them in an age-ordered ring so a forwarding search
// walks contiguous memory instead of every op's slot across the whole
// window.
type storeRec struct {
	seq    uint64
	lo, hi uint64 // accessed bytes [lo, hi)
	live   bool   // placed with a known address: a forwarding candidate
}

// Tracker keeps the in-flight memory instructions in program order.
// It is shared by all LSQ models (including the SAMIE-LSQ in package
// core). Ops live by value in a ring indexed by seq&mask: in-flight
// sequence numbers span at most the ROB window, so every seq in
// [lo, hi) has a slot of its own, and a lookup is a range test plus a
// compare of the slot's Seq (the slot of a seq that is not tracked
// holds an older seq or a Clear mark). The ring doubles only when a
// new seq outgrows it, so steady-state tracking allocates nothing.
// Two bitsets over the same slots mark the placed loads and stores
// with known addresses, so the conventional LSQ's compare counts are
// popcounts. Stores additionally get a record in a store ring, and the
// live records are indexed by the 8-byte words they touch, which is
// all a forwarding search reads.
type Tracker struct {
	ops    []Op // seq s lives at ops[s&mask] while it is tracked
	mask   uint64
	lo, hi uint64 // oldest tracked seq, one past the youngest added; lo == hi when empty
	n      int    // tracked ops: seqs in [lo, hi) may have gaps

	// Placed ops with known addresses, one bit per ring slot.
	loadBits, storeBits []uint64
	nStores             int

	// Store ring: ordinals [storeHead, storeNext) are the in-flight
	// stores, oldest first; ordinal o lives at storeRecs[o&storeMask].
	storeRecs []storeRec
	storeMask uint64
	storeHead uint64
	storeNext uint64

	// fwdIdx is the forwarding index: fwdBuckets bitsets over store-ring
	// slots, fwdWords words each (bucket b's word i is
	// fwdIdx[b*fwdWords+i]). Bit s of bucket b is set exactly when the
	// record at slot s is inside the store window, live, and touches an
	// 8-byte word that hashes to b.
	fwdIdx   []uint64
	fwdWords int
}

const (
	// noSeq marks a slot Clear dropped. No tracked seq equals it: hi,
	// one past the youngest, would wrap.
	noSeq = ^uint64(0)

	fwdBucketBits = 6
	fwdBuckets    = 1 << fwdBucketBits
)

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	t := &Tracker{storeRecs: make([]storeRec, 16), storeMask: 15}
	t.resize(64)
	t.reindex()
	return t
}

// fwdBucket hashes an 8-byte word number to its forwarding-index
// bucket (Fibonacci hashing, so strided addresses spread out).
func fwdBucket(w uint64) int { return int((w * 0x9E3779B97F4A7C15) >> (64 - fwdBucketBits)) }

// wordSpan returns the first and last 8-byte words of the access
// [lo, hi). An empty access counts as touching lo's word, so any pair
// the exact overlap test accepts shares a word.
func wordSpan(lo, hi uint64) (first, last uint64) {
	if hi <= lo {
		return lo >> 3, lo >> 3
	}
	return lo >> 3, (hi - 1) >> 3
}

// index sets (on) or clears the forwarding-index bit of the store
// record at slot in the bucket of every word the record touches.
//
//samie:hotpath
func (t *Tracker) index(slot uint64, r *storeRec, on bool) {
	wi, bit := int(slot>>6), uint64(1)<<(slot&63)
	first, last := wordSpan(r.lo, r.hi)
	for w := first; ; w++ {
		p := &t.fwdIdx[fwdBucket(w)*t.fwdWords+wi]
		if on {
			*p |= bit
		} else {
			*p &^= bit
		}
		if w == last {
			return
		}
	}
}

// setLive moves a store record in or out of the forwarding candidates.
//
//samie:hotpath
func (t *Tracker) setLive(ord uint64, live bool) {
	r := &t.storeRecs[ord&t.storeMask]
	if r.live != live {
		r.live = live
		t.index(ord&t.storeMask, r, live)
	}
}

// reindex rebuilds the forwarding index from the store window, sized
// for the current store ring.
func (t *Tracker) reindex() {
	t.fwdWords = (len(t.storeRecs) + 63) / 64
	if n := fwdBuckets * t.fwdWords; cap(t.fwdIdx) >= n {
		t.fwdIdx = t.fwdIdx[:n]
		clear(t.fwdIdx)
	} else {
		t.fwdIdx = make([]uint64, n)
	}
	for o := t.storeHead; o < t.storeNext; o++ {
		if r := &t.storeRecs[o&t.storeMask]; r.live {
			t.index(o&t.storeMask, r, true)
		}
	}
}

// resize moves the tracked ops, and their count bits, into a ring of
// n slots: a power of two, at least 64, that holds [lo, hi).
func (t *Tracker) resize(n int) {
	old, oldMask := t.ops, t.mask
	t.ops, t.mask = make([]Op, n), uint64(n-1)
	t.loadBits, t.storeBits = make([]uint64, n/64), make([]uint64, n/64)
	for s := t.lo; s < t.hi; s++ {
		if op := &old[s&oldMask]; op.Seq == s {
			slot := s & t.mask
			t.ops[slot] = *op
			if op.counted {
				t.countBits(op)[slot>>6] |= 1 << (slot & 63)
			}
		}
	}
}

// growStores doubles the store ring, keeping every record at its
// ordinal's new position.
func (t *Tracker) growStores() {
	nb := make([]storeRec, 2*len(t.storeRecs))
	mask := uint64(len(nb) - 1)
	for o := t.storeHead; o < t.storeNext; o++ {
		nb[o&mask] = t.storeRecs[o&t.storeMask]
	}
	t.storeRecs, t.storeMask = nb, mask
	t.reindex()
}

// Add registers a new in-flight memory instruction and returns its op.
// A seq must be above every seq added since the last Clear, removed
// ones included, or Add panics: only a Clear rewinds, and only down to
// the oldest seq it dropped, as a flush re-dispatches them. The ring
// doubles when seq lies a ring's length or more past the oldest op.
//
//samie:hotpath
func (t *Tracker) Add(seq uint64, isLoad bool) *Op {
	if seq < t.hi {
		panic("lsq: Add of a seq not above every seq added since the last Clear")
	}
	if t.n == 0 {
		t.lo = seq
	} else if n := uint64(len(t.ops)); seq-t.lo >= n {
		for n <= seq-t.lo {
			n *= 2
		}
		t.resize(int(n))
	}
	t.hi = seq + 1
	t.n++
	op := &t.ops[seq&t.mask]
	*op = Op{Seq: seq, IsLoad: isLoad, Loc: [4]int{-1, -1, -1, -1}, ord: t.storeNext}
	if !isLoad {
		if t.storeNext-t.storeHead == uint64(len(t.storeRecs)) {
			t.growStores()
		}
		t.storeRecs[t.storeNext&t.storeMask] = storeRec{seq: seq}
		t.storeNext++
	}
	return op
}

// Get returns the op for seq, or nil.
//
//samie:hotpath
func (t *Tracker) Get(seq uint64) *Op {
	if seq-t.lo < t.hi-t.lo {
		if op := &t.ops[seq&t.mask]; op.Seq == seq {
			return op
		}
	}
	return nil
}

// storeRec returns the store ring record of a tracked store.
func (t *Tracker) storeRec(op *Op) *storeRec { return &t.storeRecs[op.ord&t.storeMask] }

// countBits returns the bitset op's count bit lives in.
func (t *Tracker) countBits(op *Op) []uint64 {
	if op.IsLoad {
		return t.loadBits
	}
	return t.storeBits
}

// flip moves op in or out of the counted ops: its count bit, and for
// a store the forwarding candidates.
//
//samie:hotpath
func (t *Tracker) flip(op *Op) {
	op.counted = !op.counted
	slot := op.Seq & t.mask
	t.countBits(op)[slot>>6] ^= 1 << (slot & 63)
	if !op.IsLoad {
		t.setLive(op.ord, op.counted)
		if op.counted {
			t.nStores++
		} else {
			t.nStores--
		}
	}
}

// recount flips op if a state transition changed whether it is placed
// with a known address.
//
//samie:hotpath
func (t *Tracker) recount(op *Op) {
	if (op.Placed && op.AddrKnown) != op.counted {
		t.flip(op)
	}
}

// SetAddress records the computed effective address for op.
//
//samie:hotpath
func (t *Tracker) SetAddress(op *Op, addr uint64, size uint8) {
	op.Addr, op.Size, op.AddrKnown = addr, size, true
	if !op.IsLoad {
		// A live store whose address changes moves its index bits.
		r, slot := t.storeRec(op), op.ord&t.storeMask
		if r.live {
			t.index(slot, r, false)
		}
		r.lo, r.hi = addr, addr+uint64(size)
		if r.live {
			t.index(slot, r, true)
		}
	}
	t.recount(op)
}

// SetPlaced marks op resident in a searchable LSQ structure.
func (t *Tracker) SetPlaced(op *Op) {
	op.Placed = true
	t.recount(op)
}

// Remove drops seq, which must be the oldest tracked op, and returns
// it: the CPU commits in order, so any other seq is a contract
// violation and panics. The returned op keeps its fields until the
// next Add reuses its slot; read what you need from it immediately.
//
//samie:hotpath
func (t *Tracker) Remove(seq uint64) *Op {
	if t.n == 0 || seq != t.lo {
		panic("lsq: Remove of a seq that is not the oldest in flight")
	}
	op := &t.ops[seq&t.mask]
	if op.counted {
		t.flip(op)
	}
	if !op.IsLoad {
		t.storeHead++ // the oldest op is the oldest store
	}
	t.n--
	if t.n == 0 {
		t.lo = t.hi
		return op
	}
	// Step lo over the gaps to the next tracked op.
	for t.lo++; t.ops[t.lo&t.mask].Seq != t.lo; t.lo++ {
	}
	return op
}

// Clear drops every op. A flush re-dispatches the same seqs, so every
// slot of [lo, hi) is marked, a seq the new stream skips must not find
// the dropped op there, and the next Add may rewind to lo.
func (t *Tracker) Clear() {
	for s := t.lo; s < t.hi; s++ {
		t.ops[s&t.mask].Seq = noSeq
	}
	t.hi, t.n = t.lo, 0
	clear(t.loadBits)
	clear(t.storeBits)
	t.nStores = 0
	t.storeHead = t.storeNext
	clear(t.fwdIdx)
}

// Len returns the number of tracked ops.
func (t *Tracker) Len() int { return t.n }

// ForwardingSource returns the youngest older store that is placed
// with a known address and overlaps the bytes of the load identified
// by seq. The forwarding index narrows the older store window to the
// records sharing a word bucket with the load; those come out youngest
// first, one 64-slot bitset word at a time, and each is confirmed with
// the exact byte-overlap test.
//
//samie:hotpath
func (t *Tracker) ForwardingSource(seq uint64) (uint64, bool) {
	op := t.Get(seq)
	if op == nil || !op.IsLoad || !op.AddrKnown || t.nStores == 0 {
		return 0, false
	}
	lo, hi := op.Addr, op.Addr+uint64(op.Size)
	first, last := wordSpan(lo, hi)
	// The load's older stores are ordinals [storeHead, op.ord). Each
	// pass takes the bitset word holding ordinal o-1, restricted to the
	// ordinals [max(base, storeHead), o) it covers.
	for o := op.ord; o > t.storeHead; {
		slot := (o - 1) & t.storeMask
		bit := slot & 63
		base := o - 1 - bit // ordinal of bit 0
		m := uint64(2)<<bit - 1
		if base < t.storeHead {
			m &^= uint64(1)<<(t.storeHead-base) - 1
		}
		wi := int(slot >> 6)
		cand := uint64(0)
		for w := first; ; w++ {
			cand |= t.fwdIdx[fwdBucket(w)*t.fwdWords+wi]
			if w == last {
				break
			}
		}
		for cand &= m; cand != 0; {
			b := uint64(63 - bits.LeadingZeros64(cand))
			cand &^= 1 << b
			if r := &t.storeRecs[slot-bit+b]; r.live && r.lo < hi && lo < r.hi {
				return r.seq, true
			}
		}
		o = base
	}
	return 0, false
}

// countSeqs counts the set bits of set over the slots of seqs
// [from, to), a subrange of [lo, hi). The ring is a whole number of
// 64-slot words, so each pass reads one word, up to its end or to.
//
//samie:hotpath
func (t *Tracker) countSeqs(set []uint64, from, to uint64) int {
	c := 0
	for from < to {
		slot := from & t.mask
		n := min(64-slot&63, to-from)
		c += bits.OnesCount64(set[slot>>6] & (^uint64(0) >> (64 - n) << (slot & 63)))
		from += n
	}
	return c
}

// CountOlderKnownStores counts placed older stores with known
// addresses (conventional-LSQ comparison set for a load).
func (t *Tracker) CountOlderKnownStores(seq uint64) int {
	if t.Get(seq) == nil {
		return 0
	}
	return t.countSeqs(t.storeBits, t.lo, seq)
}

// CountYoungerKnownLoads counts placed younger loads with known
// addresses (conventional-LSQ comparison set for a store).
func (t *Tracker) CountYoungerKnownLoads(seq uint64) int {
	if t.Get(seq) == nil {
		return 0
	}
	return t.countSeqs(t.loadBits, seq+1, t.hi)
}
