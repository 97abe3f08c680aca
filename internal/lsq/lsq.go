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
// writes once the methods the organizations share.
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
// Addr/Size/AddrKnown and Placed must be changed through the owning
// Tracker's SetAddress / SetPlaced so the tracker's incremental
// summary counters (which replace per-op rescans on the simulator hot
// path) stay coherent. Loc is free for models to use directly.
type Op struct {
	Seq       uint64
	IsLoad    bool
	Addr      uint64
	Size      uint8
	AddrKnown bool
	Placed    bool
	// Loc holds model-defined placement indices.
	Loc [4]int

	slot    int  // physical ring slot (tracker internal)
	counted bool // contributes to the known+placed summary trees

	// ord is the op's store ordinal (tracker internal): a store's own
	// position in the store ring, and for a load the ordinal the next
	// store will get, so the load's older stores are [storeHead, ord).
	ord uint64
}

// storeRec is the compact forwarding record of one in-flight store.
// The tracker keeps them in an age-ordered ring so a forwarding search
// walks contiguous memory instead of chasing *Op pointers across the
// whole window.
type storeRec struct {
	seq    uint64
	lo, hi uint64 // accessed bytes [lo, hi)
	live   bool   // placed with a known address: a forwarding candidate
}

// fenwick is a binary indexed tree over the tracker's physical ring
// slots; it answers "how many counted ops in this slot range" in
// O(log n) so the conventional-LSQ CAM-energy counts need no rescan.
// A tree that was never initialized (a tracker that keeps no CAM
// counts) is empty, and add on it does nothing.
type fenwick struct {
	tree []int32
}

func (f *fenwick) init(n int) {
	if cap(f.tree) >= n+1 {
		f.tree = f.tree[:n+1]
		for i := range f.tree {
			f.tree[i] = 0
		}
	} else {
		f.tree = make([]int32, n+1)
	}
}

func (f *fenwick) add(i int, delta int32) {
	for i++; i < len(f.tree); i += i & (-i) {
		f.tree[i] += delta
	}
}

// prefix returns the count in physical slots [0, i).
func (f *fenwick) prefix(i int) int {
	s := int32(0)
	for ; i > 0; i -= i & (-i) {
		s += f.tree[i]
	}
	return int(s)
}

// Tracker keeps the in-flight memory instructions in program order.
// It is shared by all LSQ models (including the SAMIE-LSQ in package
// core). Storage is an age-ordered ring with a free list of Op
// records, so steady-state tracking allocates nothing; lookups are one
// probe of a seq-indexed hint table, falling back to an O(log n)
// binary search over the seq-sorted ring. Stores additionally get a
// record in a store ring, and the live records are indexed by the
// 8-byte words they touch, which is all a forwarding search reads.
type Tracker struct {
	ops  []*Op // ring storage; an op's physical slot is stable for its lifetime
	head int
	n    int
	free []*Op

	// Incremental summaries of placed ops with known addresses. The
	// per-slot trees exist only when cam is set (NewCAMTracker).
	cam     bool
	stores  fenwick // counted stores per slot
	loads   fenwick // counted loads per slot
	nStores int
	nLoads  int

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

	// seqHint is a direct-mapped pointer table indexed by seq&seqHintMask.
	// In-flight sequence numbers span at most the ROB window, so for the
	// simulator this turns Get into one array probe; arbitrary seq
	// patterns (tests) fall back to the binary search on a miss.
	seqHint [seqHintSize]*Op
}

const (
	seqHintSize = 1024
	seqHintMask = seqHintSize - 1

	fwdBucketBits = 6
	fwdBuckets    = 1 << fwdBucketBits
)

// NewTracker returns an empty tracker that keeps no CAM counts: the
// models that charge no conventional-LSQ compare energy never pay for
// them.
func NewTracker() *Tracker {
	t := &Tracker{ops: make([]*Op, 16), storeRecs: make([]storeRec, 16), storeMask: 15}
	t.reindex()
	return t
}

// NewCAMTracker returns an empty tracker that also keeps the counts
// CountOlderKnownStores and CountYoungerKnownLoads answer: the
// conventional LSQ's comparison sets, which only its energy account
// reads.
func NewCAMTracker() *Tracker {
	t := NewTracker()
	t.cam = true
	t.stores.init(len(t.ops))
	t.loads.init(len(t.ops))
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

func (t *Tracker) physical(logical int) int {
	i := t.head + logical
	if i >= len(t.ops) {
		i -= len(t.ops)
	}
	return i
}

// opAt returns the op at a logical (age-ordered) position.
func (t *Tracker) opAt(logical int) *Op { return t.ops[t.physical(logical)] }

func (t *Tracker) grow() {
	old := t.ops
	nb := make([]*Op, 2*len(old))
	for i := 0; i < t.n; i++ {
		op := t.opAt(i)
		op.slot = i
		nb[i] = op
	}
	t.ops, t.head = nb, 0
	if !t.cam {
		return
	}
	t.stores.init(len(nb))
	t.loads.init(len(nb))
	for i := 0; i < t.n; i++ {
		if op := nb[i]; op.counted {
			if op.IsLoad {
				t.loads.add(op.slot, 1)
			} else {
				t.stores.add(op.slot, 1)
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

// Add registers a new in-flight memory instruction. Sequence numbers
// must be strictly increasing across Adds.
//
//samie:hotpath
func (t *Tracker) Add(seq uint64, isLoad bool) *Op {
	if t.n == len(t.ops) {
		t.grow()
	}
	var op *Op
	if k := len(t.free); k > 0 {
		op = t.free[k-1]
		t.free = t.free[:k-1]
	} else {
		op = &Op{}
	}
	*op = Op{Seq: seq, IsLoad: isLoad, Loc: [4]int{-1, -1, -1, -1}, ord: t.storeNext}
	if !isLoad {
		if t.storeNext-t.storeHead == uint64(len(t.storeRecs)) {
			t.growStores()
		}
		t.storeRecs[t.storeNext&t.storeMask] = storeRec{seq: seq}
		t.storeNext++
	}
	slot := t.physical(t.n)
	op.slot = slot
	t.ops[slot] = op
	t.n++
	t.seqHint[seq&seqHintMask] = op
	return op
}

// Get returns the op for seq, or nil.
//
//samie:hotpath
func (t *Tracker) Get(seq uint64) *Op {
	if op := t.seqHint[seq&seqHintMask]; op != nil && op.Seq == seq {
		return op
	}
	i := t.search(seq)
	if i < t.n {
		if op := t.opAt(i); op.Seq == seq {
			t.seqHint[seq&seqHintMask] = op
			return op
		}
	}
	return nil
}

// search returns the first logical position whose Seq >= seq.
func (t *Tracker) search(seq uint64) int {
	lo, hi := 0, t.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.opAt(mid).Seq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// indexOf returns the position of seq in the ordered list, or -1.
func (t *Tracker) indexOf(seq uint64) int {
	op := t.Get(seq)
	if op == nil {
		return -1
	}
	i := op.slot - t.head
	if i < 0 {
		i += len(t.ops)
	}
	return i
}

// storeRec returns the store ring record of a tracked store.
func (t *Tracker) storeRec(op *Op) *storeRec { return &t.storeRecs[op.ord&t.storeMask] }

// recount moves op in or out of the known+placed summaries after a
// state transition.
//
//samie:hotpath
func (t *Tracker) recount(op *Op) {
	want := op.Placed && op.AddrKnown
	if want == op.counted {
		return
	}
	op.counted = want
	delta := int32(1)
	if !want {
		delta = -1
	}
	if op.IsLoad {
		t.loads.add(op.slot, delta)
		t.nLoads += int(delta)
	} else {
		t.stores.add(op.slot, delta)
		t.nStores += int(delta)
		t.setLive(op.ord, want)
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

// uncount removes op from the summaries (at removal time).
//
//samie:hotpath
func (t *Tracker) uncount(op *Op) {
	if !op.counted {
		return
	}
	op.counted = false
	if op.IsLoad {
		t.loads.add(op.slot, -1)
		t.nLoads--
	} else {
		t.stores.add(op.slot, -1)
		t.nStores--
		t.setLive(op.ord, false)
	}
}

// Remove drops seq, which must be the oldest tracked op, and returns
// it: the CPU commits in order, so any other seq is a contract
// violation and panics. The returned op is recycled on the next Add —
// read what you need from it immediately.
//
//samie:hotpath
func (t *Tracker) Remove(seq uint64) *Op {
	if t.n == 0 || t.ops[t.head].Seq != seq {
		panic("lsq: Remove of a seq that is not the oldest in flight")
	}
	front := t.ops[t.head]
	t.uncount(front)
	if t.seqHint[seq&seqHintMask] == front {
		t.seqHint[seq&seqHintMask] = nil
	}
	t.ops[t.head] = nil
	t.head++
	if t.head == len(t.ops) {
		t.head = 0
	}
	t.n--
	if !front.IsLoad {
		t.storeHead++ // the oldest op is the oldest store
	}
	//lint:ignore hotalloc free list is bounded by tracker capacity, preallocated at construction
	t.free = append(t.free, front)
	return front
}

// Clear drops every op.
func (t *Tracker) Clear() {
	for i := 0; i < t.n; i++ {
		p := t.physical(i)
		op := t.ops[p]
		if t.seqHint[op.Seq&seqHintMask] == op {
			t.seqHint[op.Seq&seqHintMask] = nil
		}
		t.free = append(t.free, op)
		t.ops[p] = nil
	}
	t.head, t.n = 0, 0
	if t.cam {
		t.stores.init(len(t.ops))
		t.loads.init(len(t.ops))
	}
	t.nStores, t.nLoads = 0, 0
	t.storeHead = t.storeNext
	clear(t.fwdIdx)
}

// Len returns the number of tracked ops.
func (t *Tracker) Len() int { return t.n }

// olderCounted returns how many counted ops of the given tree sit at
// logical positions [0, i).
//
//samie:hotpath
func (t *Tracker) olderCounted(f *fenwick, i int) int {
	end := t.head + i
	if end <= len(t.ops) {
		return f.prefix(end) - f.prefix(t.head)
	}
	return f.prefix(len(t.ops)) - f.prefix(t.head) + f.prefix(end-len(t.ops))
}

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

// CountOlderKnownStores counts placed older stores with known
// addresses (conventional-LSQ comparison set for a load). Only a
// tracker from NewCAMTracker keeps the counts.
func (t *Tracker) CountOlderKnownStores(seq uint64) int {
	i := t.indexOf(seq)
	if i < 0 {
		return 0
	}
	return t.olderCounted(&t.stores, i)
}

// CountYoungerKnownLoads counts placed younger loads with known
// addresses (conventional-LSQ comparison set for a store). Only a
// tracker from NewCAMTracker keeps the counts.
func (t *Tracker) CountYoungerKnownLoads(seq uint64) int {
	i := t.indexOf(seq)
	if i < 0 {
		return 0
	}
	return t.nLoads - t.olderCounted(&t.loads, i+1)
}
