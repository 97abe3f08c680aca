// Package trace generates deterministic synthetic instruction streams
// that stand in for the SPEC CPU2000 workloads of the paper.
//
// The SAMIE-LSQ evaluation depends on the *structure* of each
// program's dynamic memory reference stream — how many in-flight
// memory instructions share a cache line, how line addresses spread
// over the DistribLSQ banks, how much LSQ capacity the program needs —
// plus the instruction mix and branch behaviour that set the baseline
// IPC. This package models exactly those properties.
//
// Each of the 26 SPEC2000 programs is given a Personality: a parameter
// set calibrated to the qualitative facts the paper reports per
// benchmark (see personalities.go). Streams are seeded from the benchmark
// name, so every simulation in this repository is bit-reproducible.
package trace

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"samielsq/internal/isa"
)

// Params configures a synthetic workload generator.
type Params struct {
	Name string // benchmark name (also the default seed source)
	Seed int64  // if zero, derived from Name
	FP   bool   // floating-point program (affects compute-op classes)

	// Instruction mix: fractions of the dynamic stream. The remainder
	// after loads, stores and branches is compute (INT or FP per FP and
	// MulFrac/DivFrac).
	LoadFrac   float64
	StoreFrac  float64
	BranchFrac float64
	MulFrac    float64 // fraction of compute ops that are multiplies
	DivFrac    float64 // fraction of compute ops that are divides

	// Memory reference stream structure.
	Streams     int     // number of concurrent sequential streams
	StrideBytes uint64  // distance between consecutive lines of a stream
	RunLen      int     // accesses issued to a line before advancing
	RandFrac    float64 // fraction of accesses to random working-set addresses
	Revisit     float64 // probability of re-touching one of the last lines
	WorkingSet  uint64  // bytes, bounds random accesses
	AccessSize  uint8   // bytes per access (4 or 8)

	// BankSpread > 0 pins the streams into exactly BankSpread distinct
	// DistribLSQ banks (assuming 64 banks and 32-byte lines): stream i
	// starts i%BankSpread lines into a region and StrideBytes must then
	// be a multiple of 64 lines so every access of the stream stays in
	// its starting bank. This models the paper's observation that some
	// FP programs (ammp, apsi, art, facerec, mgrid) concentrate their
	// in-flight lines in very few banks. BankSpread == 0 uses natural
	// spacing, spreading streams evenly.
	BankSpread int

	// Branch behaviour.
	StaticBranches   int     // size of the static branch pool
	RandomBranchFrac float64 // fraction of branch instances with random outcome
	TakenBias        float64 // P(taken) for random-outcome branches

	// CodeBytes bounds the instruction-address footprint (the "loop
	// body"): fetch PCs wrap within it, so it controls L1 I-cache and
	// ITLB pressure. Zero means 16 KiB.
	CodeBytes uint64

	// Register dependences: each source register is drawn from the
	// last-writer history with geometric distance; higher DepGeom means
	// tighter chains and less ILP.
	DepGeom float64

	// FarSrcFrac is the probability that a source operand is a
	// long-dead value (loop invariant, base pointer, constant-like):
	// such operands are almost always ready, providing the
	// instruction-level parallelism real programs exhibit.
	FarSrcFrac float64
}

// Validate reports a descriptive error for out-of-range parameters.
func (p *Params) Validate() error {
	sum := p.LoadFrac + p.StoreFrac + p.BranchFrac
	if sum >= 1.0 {
		return fmt.Errorf("trace: %s: load+store+branch fractions %.2f >= 1", p.Name, sum)
	}
	for _, f := range [...]struct {
		n string
		v float64
	}{
		{"LoadFrac", p.LoadFrac}, {"StoreFrac", p.StoreFrac},
		{"BranchFrac", p.BranchFrac}, {"MulFrac", p.MulFrac},
		{"DivFrac", p.DivFrac}, {"RandFrac", p.RandFrac},
		{"Revisit", p.Revisit}, {"RandomBranchFrac", p.RandomBranchFrac},
		{"TakenBias", p.TakenBias},
		{"FarSrcFrac", p.FarSrcFrac},
	} {
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("trace: %s: %s=%v out of [0,1]", p.Name, f.n, f.v)
		}
	}
	if p.Streams <= 0 {
		return fmt.Errorf("trace: %s: Streams must be positive", p.Name)
	}
	if p.RunLen <= 0 {
		return fmt.Errorf("trace: %s: RunLen must be positive", p.Name)
	}
	if p.StrideBytes == 0 {
		return fmt.Errorf("trace: %s: StrideBytes must be positive", p.Name)
	}
	if p.WorkingSet < 4096 {
		return fmt.Errorf("trace: %s: WorkingSet too small", p.Name)
	}
	switch p.AccessSize {
	case 1, 2, 4, 8:
	default:
		return fmt.Errorf("trace: %s: AccessSize %d invalid", p.Name, p.AccessSize)
	}
	if p.StaticBranches <= 0 {
		return fmt.Errorf("trace: %s: StaticBranches must be positive", p.Name)
	}
	if p.BankSpread < 0 {
		return fmt.Errorf("trace: %s: BankSpread must be >= 0", p.Name)
	}
	if p.BankSpread > 0 && p.StrideBytes%(64*LineBytes) != 0 {
		return fmt.Errorf("trace: %s: BankSpread requires StrideBytes to be a multiple of %d", p.Name, 64*LineBytes)
	}
	if p.DepGeom <= 0 || p.DepGeom >= 1 {
		return fmt.Errorf("trace: %s: DepGeom=%v out of (0,1)", p.Name, p.DepGeom)
	}
	return nil
}

// seedFor derives a stable 63-bit seed from a benchmark name.
func seedFor(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// stream is one sequential reference stream.
type stream struct {
	base    uint64
	lineIdx uint64
	inRun   int
}

// branchSite is one static branch with a deterministic local pattern
// and a fixed target (so the BTB can learn it).
type branchSite struct {
	pc     uint64
	target uint64
	period int // taken (period-1) times, then not taken once; 0 = random
	count  int
}

// Generator produces a deterministic instruction stream per Params.
// It implements isa.Stream.
type Generator struct {
	p        Params
	rng      *rand.Rand
	seq      uint64
	pc       uint64
	streams  []stream
	branches []branchSite
	recent   []uint64 // ring of recently touched line addresses
	recentN  int
	lastW    [isa.NumLogicalRegs]int16 // ring of recently written regs
	lastWLen int
	nextDest int16
	lineMask uint64
}

// LineBytes is the cache line size assumed by the generators; it
// matches the paper's 32-byte L1 lines.
const LineBytes = 32

// NewGenerator builds a generator for the given parameters. It panics
// on invalid parameters (programming error); use Params.Validate to
// check data-driven configurations first.
func NewGenerator(p Params) *Generator {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	seed := p.Seed
	if seed == 0 {
		seed = seedFor(p.Name)
	}
	if p.CodeBytes == 0 {
		p.CodeBytes = 16 << 10
	}
	g := &Generator{
		p:        p,
		rng:      rand.New(rand.NewSource(seed)),
		pc:       0x120000000, // Alpha-style text base
		recent:   make([]uint64, 16),
		lineMask: ^(uint64(LineBytes) - 1),
	}
	// Give streams distinct bases spread over a large virtual region so
	// different streams touch different pages and lines. Base spacing is
	// offset by one line per stream so that, with bank-aliasing strides,
	// distinct streams can still start in distinct banks when desired.
	g.streams = make([]stream, p.Streams)
	for i := range g.streams {
		if p.BankSpread > 0 {
			// Pin stream i to bank i%BankSpread: regions are 1 MiB apart
			// (a multiple of 64 lines, so bank-preserving) and the
			// in-region offset selects the bank.
			g.streams[i].base = 0x200000000 +
				uint64(i%p.BankSpread)*LineBytes +
				uint64(i/p.BankSpread)*0x100000
		} else {
			g.streams[i].base = 0x200000000 + uint64(i)*(p.WorkingSet/uint64(p.Streams)+LineBytes)
		}
	}
	g.branches = make([]branchSite, p.StaticBranches)
	for i := range g.branches {
		// Branch sites live inside the code footprint, with fixed
		// backward targets, like loop back-edges.
		g.branches[i].pc = 0x120000000 + (uint64(i)*257*4)%p.CodeBytes
		back := uint64(4 + g.rng.Intn(64)*4)
		if back > g.branches[i].pc-0x120000000 {
			back = g.branches[i].pc - 0x120000000
		}
		g.branches[i].target = g.branches[i].pc - back
		if g.rng.Float64() < p.RandomBranchFrac {
			g.branches[i].period = 0 // random outcome
		} else {
			g.branches[i].period = 6 + g.rng.Intn(42) // loop-like pattern
		}
	}
	for i := range g.lastW {
		g.lastW[i] = int16(i % isa.NumLogicalRegs)
	}
	g.lastWLen = 8
	return g
}

// Params returns the generator's parameters (a copy).
func (g *Generator) Params() Params { return g.p }

// hotRegs is the number of registers used as round-robin destinations
// (the actively renamed values); the remaining registers hold
// long-lived values (base pointers, loop invariants) that are almost
// never in flight — the source of real programs' ILP.
const hotRegs = 24

// srcReg draws a source register: either a far (long-ready) operand
// from the cold registers or one at a geometric dependence distance
// from the most recent writes.
func (g *Generator) srcReg() int16 {
	if g.rng.Float64() < g.p.FarSrcFrac {
		return g.coldReg()
	}
	dist := 1
	for g.rng.Float64() < g.p.DepGeom && dist < g.lastWLen {
		dist++
	}
	idx := (int(g.nextDest) - dist + hotRegs) % hotRegs
	return int16(idx)
}

// coldReg picks a long-lived register.
func (g *Generator) coldReg() int16 {
	return int16(hotRegs + g.rng.Intn(isa.NumLogicalRegs-hotRegs))
}

// memAddrReg picks the address-base register of a memory operation:
// predominantly a long-lived base pointer (array base, stack pointer),
// occasionally a freshly computed value (indexed/pointer-chasing
// accesses). mcf-style personalities raise DepGeom, which lowers the
// cold fraction here. Store addresses are even more often
// base-relative than load addresses; this matters because under the
// conservative readyBit scheme one slow store address blocks every
// younger load.
func (g *Generator) memAddrReg(isStore bool) int16 {
	coldP := 0.8 - 0.4*g.p.DepGeom
	if isStore {
		coldP = 0.95 - 0.2*g.p.DepGeom
	}
	if g.rng.Float64() < coldP {
		return g.coldReg()
	}
	return g.srcReg()
}

// destReg allocates the next destination register round-robin over the
// hot set, keeping WAW pressure low so dependences are dominated by
// RAW via srcReg. Occasionally a cold register is refreshed.
func (g *Generator) destReg() int16 {
	if g.rng.Float64() < 0.02 {
		return g.coldReg()
	}
	d := g.nextDest
	g.nextDest = (g.nextDest + 1) % hotRegs
	if g.lastWLen < hotRegs {
		g.lastWLen++
	}
	return d
}

// nextAddr produces the next memory effective address.
func (g *Generator) nextAddr() uint64 {
	// Temporal revisit of a recently touched line.
	if g.recentN > 0 && g.rng.Float64() < g.p.Revisit {
		line := g.recent[g.rng.Intn(min(g.recentN, len(g.recent)))]
		return line + uint64(g.rng.Intn(LineBytes/int(g.p.AccessSize)))*uint64(g.p.AccessSize)
	}
	// Random working-set access.
	if g.rng.Float64() < g.p.RandFrac {
		off := (g.rng.Uint64() % g.p.WorkingSet) &^ (uint64(g.p.AccessSize) - 1)
		addr := 0x200000000 + off
		g.remember(addr & g.lineMask)
		return addr
	}
	// Sequential stream access.
	s := &g.streams[g.rng.Intn(len(g.streams))]
	line := s.base + s.lineIdx*g.p.StrideBytes
	off := uint64(s.inRun%g.p.RunLen) * uint64(g.p.AccessSize) % LineBytes
	s.inRun++
	if s.inRun >= g.p.RunLen {
		s.inRun = 0
		s.lineIdx++
		// Wrap the stream within its share of the working set so the
		// footprint stays bounded.
		span := g.p.WorkingSet / uint64(len(g.streams))
		if span < g.p.StrideBytes {
			span = g.p.StrideBytes
		}
		if s.lineIdx*g.p.StrideBytes >= span {
			s.lineIdx = 0
		}
	}
	addr := line + off
	g.remember(addr & g.lineMask)
	return addr
}

func (g *Generator) remember(line uint64) {
	g.recent[g.recentN%len(g.recent)] = line
	g.recentN++
}

// Next implements isa.Stream.
func (g *Generator) Next(out *isa.Inst) bool {
	*out = isa.Inst{Seq: g.seq, PC: g.pc, Dest: isa.RegNone, SrcA: isa.RegNone, SrcB: isa.RegNone}
	g.seq++
	g.pc += 4
	if g.pc >= 0x120000000+g.p.CodeBytes {
		g.pc = 0x120000000 // wrap within the code footprint
	}

	r := g.rng.Float64()
	switch {
	case r < g.p.LoadFrac:
		out.Cls = isa.ClassLoad
		out.Addr = g.nextAddr()
		out.Size = g.p.AccessSize
		out.SrcA = g.memAddrReg(false)
		out.Dest = g.destReg()
	case r < g.p.LoadFrac+g.p.StoreFrac:
		out.Cls = isa.ClassStore
		out.Addr = g.nextAddr()
		out.Size = g.p.AccessSize
		out.SrcA = g.memAddrReg(true)
		out.SrcB = g.srcReg()
	case r < g.p.LoadFrac+g.p.StoreFrac+g.p.BranchFrac:
		b := &g.branches[g.rng.Intn(len(g.branches))]
		out.Cls = isa.ClassBranch
		out.PC = b.pc
		// Branch conditions mostly compare induction variables or
		// other quickly available values, so they resolve fast.
		if g.rng.Float64() < 0.75 {
			out.SrcA = g.coldReg()
		} else {
			out.SrcA = g.srcReg()
		}
		if b.period == 0 {
			out.Taken = g.rng.Float64() < g.p.TakenBias
		} else {
			b.count++
			out.Taken = b.count%b.period != 0
		}
		out.Target = b.target
	default:
		c := g.rng.Float64()
		switch {
		case c < g.p.DivFrac:
			if g.p.FP {
				out.Cls = isa.ClassFPDiv
			} else {
				out.Cls = isa.ClassIntDiv
			}
		case c < g.p.DivFrac+g.p.MulFrac:
			if g.p.FP {
				out.Cls = isa.ClassFPMul
			} else {
				out.Cls = isa.ClassIntMul
			}
		default:
			if g.p.FP && g.rng.Float64() < 0.7 {
				out.Cls = isa.ClassFPALU
			} else {
				out.Cls = isa.ClassIntALU
			}
		}
		out.SrcA = g.srcReg()
		out.SrcB = g.srcReg()
		out.Dest = g.destReg()
	}
	return true
}

// Generate materialises n instructions into a slice (handy for tests
// and for replaying the identical stream into several simulators).
func Generate(p Params, n int) []isa.Inst {
	g := NewGenerator(p)
	out := make([]isa.Inst, n)
	for i := range out {
		g.Next(&out[i])
	}
	return out
}

// Benchmarks returns the 26 SPEC2000 program names in the paper's
// (alphabetical) order. The adversarial stress workloads are not
// included (see AdversarialBenchmarks); the paper suite is exactly
// these 26.
func Benchmarks() []string {
	names := make([]string, 0, len(personalities))
	for n := range personalities {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// AdversarialBenchmarks returns the names of the adversarial stress
// personalities, sorted. They resolve through Personality like the
// SPEC programs but never join the default suite.
func AdversarialBenchmarks() []string {
	names := make([]string, 0, len(adversarialPersonalities))
	for n := range adversarialPersonalities {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Personality returns the calibrated parameters for a benchmark name —
// the 26 SPEC2000 programs or an adversarial workload — or an error
// for unknown names.
func Personality(name string) (Params, error) {
	if p, ok := personalities[name]; ok {
		return p, nil
	}
	if p, ok := adversarialPersonalities[name]; ok {
		return p, nil
	}
	return Params{}, fmt.Errorf("trace: unknown benchmark %q", name)
}

// MustPersonality is Personality, panicking on unknown names.
func MustPersonality(name string) Params {
	p, err := Personality(name)
	if err != nil {
		panic(err)
	}
	return p
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
