package trace

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

	"samielsq/internal/isa"
)

// A Slab lazily materializes the deterministic instruction stream of
// one Params into a shared list of fixed-size chunks. Many simulations
// of the same workload (the conventional/SAMIE/ARB variants every
// figure sweeps over) replay the same prefix instead of re-running the
// generator per simulation. A chunk is filled completely before it is
// published and never changes or moves afterwards, so growing the slab
// copies nothing and readers take the lock only to fetch a chunk they
// have not seen yet.
type Slab struct {
	mu     sync.Mutex
	gen    *Generator
	chunks []*[slabChunk]slabRec
	bytes  atomic.Int64 // materialized footprint, for the cache bound
}

// slabChunk is the number of instructions per chunk: the unit of
// materialization.
const slabChunk = 16 * 1024

// slabRec is one instruction packed into 12 bytes (isa.Inst is 48).
// Seq is the record's index in the slab. Addresses are offsets from
// the generator's bases: word holds Addr−dataBase when recAddr is set,
// or Target−codeBase when recTarget is, since no generated instruction
// carries both, and neither flag is set for an instruction with
// neither. pcSize holds PC−codeBase in its low 24 bits and Size in its
// top 8. Register numbers fit int8 (NumLogicalRegs is 64, RegNone is
// -1), and meta holds the class in its low 4 bits beside the flags.
// Params.Validate keeps every generated address inside these windows.
type slabRec struct {
	word             uint32
	pcSize           uint32
	dest, srcA, srcB int8
	meta             uint8 // class | recTaken | recTarget | recAddr
}

// The record's windows above each base: a PC offset has codePCBits
// bits, an Addr or Target offset the 32 bits of word.
const (
	codePCBits = 24
	codeWindow = 1 << codePCBits
	dataWindow = 1 << 32
)

// meta's bits: the class in the low four, then the flags (bit 4 is
// unused).
const (
	recClass  = 1<<4 - 1
	recTaken  = 1 << 5 // Inst.Taken
	recTarget = 1 << 6 // word is Inst.Target − codeBase
	recAddr   = 1 << 7 // word is Inst.Addr − dataBase
)

// pack encodes in, the instruction at index seq, into r. It panics on
// an instruction the record cannot reproduce exactly, so a generator
// change that outgrows the layout fails loudly instead of replaying a
// different trace. One combined test guards the common case: an
// address outside its window leaves a bit set above the field's width
// (an address below its base wraps to a huge offset), and word takes
// the two offsets or'ed since at most one of them is set. The flags
// come from (x | −x) >> 63, which is 1 just when x is not 0, so the
// instruction mix costs no mispredicted branch.
//
//samie:hotpath
func (r *slabRec) pack(in *isa.Inst, seq uint64) {
	hasAddr := (in.Addr | -in.Addr) >> 63
	hasTarget := (in.Target | -in.Target) >> 63
	addr := (in.Addr - dataBase) & -hasAddr
	target := (in.Target - codeBase) & -hasTarget
	pc := in.PC - codeBase
	if in.Seq != seq || hasAddr&hasTarget != 0 ||
		pc>>codePCBits|(addr|target)>>32|uint64(in.Cls)&^recClass != 0 ||
		uint16(in.Dest-math.MinInt8)|uint16(in.SrcA-math.MinInt8)|uint16(in.SrcB-math.MinInt8) > math.MaxUint8 {
		panic(unpackable(in, seq))
	}
	var taken uint8
	if in.Taken {
		taken = recTaken
	}
	r.word, r.pcSize = uint32(addr|target), uint32(pc)|uint32(in.Size)<<codePCBits
	r.dest, r.srcA, r.srcB = int8(in.Dest), int8(in.SrcA), int8(in.SrcB)
	r.meta = uint8(in.Cls) | taken | uint8(hasTarget)*recTarget | uint8(hasAddr)*recAddr
}

// unpackable returns the first reason pack cannot encode in. pack
// panics with it; the panic in pack, not here, tells the compiler that
// nothing pack computed is needed after the call.
func unpackable(in *isa.Inst, seq uint64) string {
	switch {
	case in.Seq != seq:
		return fmt.Sprintf("trace: slab record %d holds instruction Seq %d", seq, in.Seq)
	case in.Addr != 0 && in.Target != 0:
		return fmt.Sprintf("trace: slab record %d sets both Addr and Target", seq)
	case in.PC-codeBase >= codeWindow:
		return fmt.Sprintf("trace: slab record %d has PC %#x outside the code window", seq, in.PC)
	case in.Addr != 0 && in.Addr-dataBase >= dataWindow:
		return fmt.Sprintf("trace: slab record %d has Addr %#x outside the data window", seq, in.Addr)
	case in.Target != 0 && in.Target-codeBase >= dataWindow:
		return fmt.Sprintf("trace: slab record %d has Target %#x outside the target window", seq, in.Target)
	case in.Cls > recClass:
		return fmt.Sprintf("trace: slab record %d has class %d beyond 4 bits", seq, in.Cls)
	}
	for _, r := range [...]int16{in.Dest, in.SrcA, in.SrcB} {
		if r < math.MinInt8 || r > math.MaxInt8 {
			return fmt.Sprintf("trace: slab record %d has register %d outside int8", seq, r)
		}
	}
	return fmt.Sprintf("trace: slab record %d: pack refused %+v for no named reason", seq, *in)
}

// unpack decodes r, the record at index seq, into out. It is
// branch-free: each address flag, shifted down from its bit (recAddr
// is the top one), becomes a mask selecting whether its field receives
// the rebased word. Fields are stored one by one, since a composite
// literal is built on the stack and copied, and that copy's wide loads
// stall on the narrow stores just made. The two multiple assignments
// keep unpack within the compiler's inlining budget (cost 80 of 80),
// so Next runs it without a call; one more operation or statement here
// would lose that.
//
//samie:hotpath
func (r *slabRec) unpack(seq uint64, out *isa.Inst) {
	out.Seq, out.PC, out.Cls, out.Dest, out.SrcA, out.SrcB =
		seq, codeBase+uint64(r.pcSize&(codeWindow-1)), isa.Class(r.meta&recClass),
		int16(r.dest), int16(r.srcA), int16(r.srcB)
	out.Addr, out.Size, out.Taken, out.Target =
		(dataBase+uint64(r.word))&-uint64(r.meta>>7), uint8(r.pcSize>>codePCBits),
		r.meta&recTaken != 0, (codeBase+uint64(r.word))&-uint64(r.meta>>6&1)
}

// NewSlab builds an empty slab for p.
func NewSlab(p Params) *Slab { return &Slab{gen: NewGenerator(p)} }

// chunk returns chunk i, materializing every chunk up to it.
func (s *Slab) chunk(i int) *[slabChunk]slabRec {
	s.mu.Lock()
	defer s.mu.Unlock()
	var in isa.Inst
	for len(s.chunks) <= i {
		c := new([slabChunk]slabRec)
		base := uint64(len(s.chunks)) * slabChunk
		for j := range c {
			s.gen.Next(&in)
			c[j].pack(&in, base+uint64(j))
		}
		s.chunks = append(s.chunks, c)
		s.bytes.Store(int64(len(s.chunks)) * int64(unsafe.Sizeof(*c)))
	}
	return s.chunks[i]
}

// Bytes returns the materialized footprint of the slab.
func (s *Slab) Bytes() int64 { return s.bytes.Load() }

// Stream returns a fresh cursor over the slab from instruction 0.
// Streams are independent; a slab may serve any number concurrently.
func (s *Slab) Stream() *SlabStream { return &SlabStream{slab: s, off: slabChunk} }

// SlabStream is an isa.Stream cursor over a Slab. Next is
// allocation-free and lock-free within a chunk the cursor holds.
type SlabStream struct {
	slab *Slab
	cur  *[slabChunk]slabRec
	next int    // index of the next chunk to fetch
	off  int    // position in cur; slabChunk when cur is used up
	seq  uint64 // Seq of the next instruction
}

// Next implements isa.Stream. It runs once per fetched instruction.
//
//samie:hotpath
func (ss *SlabStream) Next(out *isa.Inst) bool {
	if ss.off == slabChunk {
		ss.cur = ss.slab.chunk(ss.next)
		ss.next++
		ss.off = 0
	}
	ss.cur[ss.off].unpack(ss.seq, out)
	ss.off++
	ss.seq++
	return true
}

// slabCache memoizes slabs per Params with an approximate byte bound,
// evicting least-recently-acquired slabs. Eviction only drops the
// cache's reference: streams over an evicted slab stay valid.
var slabCache = struct {
	mu    sync.Mutex
	m     map[Params]*slabEntry
	limit int64
	tick  int64
}{m: make(map[Params]*slabEntry), limit: 256 << 20}

type slabEntry struct {
	slab    *Slab
	lastUse int64
}

// SharedStream returns a stream replaying the deterministic trace for
// p, backed by a process-wide cache of materialized instructions. The
// sequence is identical to NewGenerator(p); only the generation work
// is shared.
func SharedStream(p Params) *SlabStream {
	c := &slabCache
	c.mu.Lock()
	e, ok := c.m[p]
	if !ok {
		e = &slabEntry{slab: NewSlab(p)}
		c.m[p] = e
	}
	c.tick++
	e.lastUse = c.tick
	// Approximate LRU bound: evict coldest slabs while over budget.
	// The footprint is re-summed here (acquisition is rare relative to
	// generation) and lags in-flight growth by design.
	var used int64
	//lint:ordered commutative integer sum
	for _, v := range c.m {
		used += v.slab.Bytes()
	}
	for used > c.limit && len(c.m) > 1 {
		var coldK Params
		var cold *slabEntry
		//lint:ordered eviction victim choice is cache policy, invisible in any replayed instruction sequence
		for k, v := range c.m {
			if v != e && (cold == nil || v.lastUse < cold.lastUse) {
				coldK, cold = k, v
			}
		}
		if cold == nil {
			break
		}
		used -= cold.slab.Bytes()
		delete(c.m, coldK)
	}
	c.mu.Unlock()
	return e.slab.Stream()
}

// SetSlabCacheLimit adjusts the byte bound of the shared slab cache
// (0 restores the default) and returns the previous value. Intended
// for tests and long-lived services tuning memory.
func SetSlabCacheLimit(bytes int64) int64 {
	c := &slabCache
	c.mu.Lock()
	prev := c.limit
	if bytes <= 0 {
		bytes = 256 << 20
	}
	c.limit = bytes
	c.mu.Unlock()
	return prev
}

// SlabCacheLen returns the number of cached slabs (test hook).
func SlabCacheLen() int {
	c := &slabCache
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
