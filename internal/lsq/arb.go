package lsq

// ARB models the Address Resolution Buffer of Franklin & Sohi as
// evaluated in Figure 1 of the paper: the LSQ is distributed over N
// banks, each bank holds M different addresses, and each address has
// room for up to P instructions, where P is also the total number of
// in-flight memory instructions allowed (the paper's configurations
// are "banks x addresses" with P = 128, and a "half" variant with
// P = 64).
//
// An instruction whose bank has no free address entry waits and
// retries; dispatch stalls when P instructions are in flight. A waiting
// instruction can only place after some bank address entry is released
// (its own word cannot appear in a full bank before that), so Tick
// retries only on its first call after a release — the same placements
// as retrying every cycle. As with the SAMIE-LSQ, a blocked oldest
// instruction is resolved by the CPU's deadlock-avoidance flush.
type ARB struct {
	Base
	banks     int
	addrs     int       // addresses per bank
	inflight  int       // P: maximum in-flight memory instructions
	bankAddrs []arbBank // per bank: address -> #instructions using it
	pending   []uint64  // seqs waiting for a bank slot, oldest first
	placedBuf []uint64  // reused by Tick (see Model.Tick contract)
	released  bool      // an address entry was freed since the last retry pass
}

// arbBank tracks the in-use addresses of one bank. Banks hold few
// addresses in the paper's geometries, so a linear array of
// (word, refcount) pairs is faster than a hash map for the per-cycle
// placement retries; large-M geometries fall back to a map.
type arbBank struct {
	words []arbWord
	m     map[uint64]int // non-nil only when addrs > arbBankLinearMax
}

type arbWord struct {
	w uint64
	n int
}

// arbBankLinearMax is the largest per-bank address count served by the
// linear representation.
const arbBankLinearMax = 16

func (b *arbBank) len() int {
	if b.m != nil {
		return len(b.m)
	}
	return len(b.words)
}

// incr bumps the refcount of w if present, reporting whether it was.
func (b *arbBank) incr(w uint64) bool {
	if b.m != nil {
		if _, ok := b.m[w]; ok {
			b.m[w]++
			return true
		}
		return false
	}
	for i := range b.words {
		if b.words[i].w == w {
			b.words[i].n++
			return true
		}
	}
	return false
}

func (b *arbBank) insert(w uint64) {
	if b.m != nil {
		b.m[w] = 1
		return
	}
	b.words = append(b.words, arbWord{w: w, n: 1})
}

// release drops one reference to w, reporting whether that freed its
// address entry.
func (b *arbBank) release(w uint64) bool {
	if b.m != nil {
		if n, ok := b.m[w]; ok {
			if n <= 1 {
				delete(b.m, w)
				return true
			}
			b.m[w] = n - 1
		}
		return false
	}
	for i := range b.words {
		if b.words[i].w == w {
			b.words[i].n--
			if b.words[i].n <= 0 {
				last := len(b.words) - 1
				b.words[i] = b.words[last]
				b.words = b.words[:last]
				return true
			}
			return false
		}
	}
	return false
}

func (b *arbBank) clear() {
	if b.m != nil {
		clear(b.m)
		return
	}
	b.words = b.words[:0]
}

// NewARB builds an ARB with banks x addrs geometry and an in-flight
// cap of inflight instructions.
func NewARB(banks, addrs, inflight int) *ARB {
	if banks <= 0 || addrs <= 0 || inflight <= 0 {
		panic("lsq: ARB parameters must be positive")
	}
	a := &ARB{
		Base:      NewBase(NewTracker()),
		banks:     banks,
		addrs:     addrs,
		inflight:  inflight,
		bankAddrs: make([]arbBank, banks),
	}
	if addrs > arbBankLinearMax {
		for i := range a.bankAddrs {
			a.bankAddrs[i].m = make(map[uint64]int)
		}
	}
	return a
}

// word returns the 8-byte-aligned address the ARB disambiguates on.
func word(addr uint64) uint64 { return addr &^ 7 }

func (a *ARB) bankOf(addr uint64) int {
	return int((word(addr) >> 3) % uint64(a.banks))
}

// Dispatch implements Model; it enforces the total in-flight cap P.
//
//samie:hotpath
func (a *ARB) Dispatch(seq uint64, isLoad bool) bool {
	if a.t.Len() >= a.inflight {
		return false
	}
	a.t.Add(seq, isLoad)
	return true
}

// tryPlace attempts to put op into its bank.
//
//samie:hotpath
func (a *ARB) tryPlace(op *Op) bool {
	b := a.bankOf(op.Addr)
	w := word(op.Addr)
	bank := &a.bankAddrs[b]
	if !bank.incr(w) {
		if bank.len() >= a.addrs {
			return false
		}
		bank.insert(w)
	}
	a.t.SetPlaced(op)
	op.Loc[0] = b
	return true
}

// AddressReady implements Model.
//
//samie:hotpath
func (a *ARB) AddressReady(seq uint64, isLoad bool, addr uint64, size uint8) Placement {
	op := a.t.Get(seq)
	if op == nil {
		return Placement{Failed: true}
	}
	a.t.SetAddress(op, addr, size)
	if a.tryPlace(op) {
		return Placement{Placed: true}
	}
	//lint:ignore hotalloc pending is bounded by in-flight memory ops; capacity amortizes to that bound
	a.pending = append(a.pending, seq)
	return Placement{Buffered: true}
}

// Tick implements Model: retry pending placements, oldest first.
// Unlike the SAMIE AddrBuffer, the ARB's waiting instructions sit in
// reservation stations, so any of them may proceed when its own bank
// has room. Retries run only after an address entry was released.
//
//samie:hotpath
func (a *ARB) Tick() []uint64 {
	if len(a.pending) == 0 || !a.released {
		return nil
	}
	a.released = false
	placed := a.placedBuf[:0]
	remaining := a.pending[:0]
	for _, seq := range a.pending {
		op := a.t.Get(seq)
		if op == nil {
			continue // flushed or committed
		}
		if a.tryPlace(op) {
			//lint:ignore hotalloc appends into the reused placedBuf
			placed = append(placed, seq)
		} else {
			//lint:ignore hotalloc in-place filter of pending; never exceeds its existing capacity
			remaining = append(remaining, seq)
		}
	}
	a.pending = remaining
	a.placedBuf = placed
	return placed
}

// ForwardingSource implements Model.
//
//samie:hotpath
func (a *ARB) ForwardingSource(seq uint64) (uint64, bool) {
	return a.t.ForwardingSource(seq)
}

// NotePerformed implements Model (the ARB charges no energy).
func (a *ARB) NotePerformed(seq uint64) {}

// Commit implements Model: a placed instruction frees its share of
// its bank's address entry.
func (a *ARB) Commit(seq uint64) {
	op := a.t.Remove(seq)
	if op.Placed && a.bankAddrs[op.Loc[0]].release(word(op.Addr)) {
		a.released = true
	}
}

// Flush implements Model.
func (a *ARB) Flush() {
	a.t.Clear()
	for i := range a.bankAddrs {
		a.bankAddrs[i].clear() // reuse the storage: flushes are frequent under pressure
	}
	a.pending = a.pending[:0]
}

// AccountCycle implements Model (the ARB experiments measure IPC
// only).
func (a *ARB) AccountCycle() {}

// ResetStats implements Model (the ARB keeps no statistics).
func (a *ARB) ResetStats() {}
