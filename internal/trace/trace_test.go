package trace

import (
	"math"
	"testing"

	"samielsq/internal/isa"
)

func TestAllPersonalitiesValid(t *testing.T) {
	names := Benchmarks()
	if len(names) != 26 {
		t.Fatalf("suite has %d benchmarks, want 26", len(names))
	}
	for _, n := range names {
		p := MustPersonality(n)
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", n, err)
		}
		if p.Name != n {
			t.Errorf("%s: Name field is %q", n, p.Name)
		}
	}
}

func TestPersonalityUnknown(t *testing.T) {
	if _, err := Personality("nonesuch"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustPersonality should panic on unknown names")
		}
	}()
	MustPersonality("nonesuch")
}

func TestDeterminism(t *testing.T) {
	a := Generate(MustPersonality("gzip"), 5000)
	b := Generate(MustPersonality("gzip"), 5000)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("instruction %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestDistinctSeeds(t *testing.T) {
	a := Generate(MustPersonality("gzip"), 1000)
	b := Generate(MustPersonality("bzip2"), 1000)
	same := 0
	for i := range a {
		if a[i].Cls == b[i].Cls && a[i].Addr == b[i].Addr {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different benchmarks generated identical streams")
	}
}

func TestInstructionMix(t *testing.T) {
	p := MustPersonality("gzip")
	const n = 60000
	insts := Generate(p, n)
	var loads, stores, branches int
	for i := range insts {
		switch insts[i].Cls {
		case isa.ClassLoad:
			loads++
		case isa.ClassStore:
			stores++
		case isa.ClassBranch:
			branches++
		}
	}
	check := func(name string, got int, want float64) {
		frac := float64(got) / n
		if math.Abs(frac-want) > 0.02 {
			t.Errorf("%s fraction %.3f, want %.3f ± 0.02", name, frac, want)
		}
	}
	check("load", loads, p.LoadFrac)
	check("store", stores, p.StoreFrac)
	check("branch", branches, p.BranchFrac)
}

func TestValidInstructions(t *testing.T) {
	for _, b := range []string{"gzip", "ammp", "mcf", "swim"} {
		insts := Generate(MustPersonality(b), 20000)
		for i := range insts {
			if err := insts[i].Validate(); err != nil {
				t.Fatalf("%s: %v", b, err)
			}
			if insts[i].Seq != uint64(i) {
				t.Fatalf("%s: seq %d at position %d", b, insts[i].Seq, i)
			}
		}
	}
}

func TestBankSpreadPinning(t *testing.T) {
	// ammp pins its streams to BankSpread banks; non-random,
	// non-revisit accesses must land in at most BankSpread banks.
	p := MustPersonality("ammp")
	p.RandFrac = 0
	p.Revisit = 0
	insts := Generate(p, 30000)
	banks := map[uint64]bool{}
	for i := range insts {
		if insts[i].Cls.IsMem() {
			banks[(insts[i].Addr/LineBytes)%64] = true
		}
	}
	if len(banks) > p.BankSpread {
		t.Fatalf("ammp streams touch %d banks, want <= %d", len(banks), p.BankSpread)
	}
}

func TestEvenSpreadTouchesManyBanks(t *testing.T) {
	p := MustPersonality("swim")
	insts := Generate(p, 30000)
	banks := map[uint64]bool{}
	for i := range insts {
		if insts[i].Cls.IsMem() {
			banks[(insts[i].Addr/LineBytes)%64] = true
		}
	}
	if len(banks) < 32 {
		t.Fatalf("swim touches only %d banks", len(banks))
	}
}

func TestCodeFootprintWrap(t *testing.T) {
	p := MustPersonality("gzip")
	insts := Generate(p, 100000)
	lo := uint64(codeBase)
	hi := lo + p.CodeBytes
	if p.CodeBytes == 0 {
		hi = lo + 16<<10
	}
	for i := range insts {
		if insts[i].PC < lo || insts[i].PC >= hi {
			t.Fatalf("PC %#x outside code footprint [%#x, %#x)", insts[i].PC, lo, hi)
		}
	}
}

func TestBranchTargetsStable(t *testing.T) {
	// Each static branch PC must always use the same target so the BTB
	// can learn it.
	insts := Generate(MustPersonality("gzip"), 50000)
	targets := map[uint64]uint64{}
	for i := range insts {
		if insts[i].Cls != isa.ClassBranch {
			continue
		}
		if prev, ok := targets[insts[i].PC]; ok && prev != insts[i].Target {
			t.Fatalf("branch %#x has targets %#x and %#x", insts[i].PC, prev, insts[i].Target)
		}
		targets[insts[i].PC] = insts[i].Target
	}
	if len(targets) == 0 {
		t.Fatal("no branches generated")
	}
}

func TestLineSharing(t *testing.T) {
	// swim (unit-stride, RunLen 8) must exhibit much higher
	// consecutive-window line sharing than mcf (pointer chasing).
	sharing := func(name string) float64 {
		insts := Generate(MustPersonality(name), 40000)
		var mem []uint64
		for i := range insts {
			if insts[i].Cls.IsMem() {
				mem = append(mem, insts[i].Addr&^uint64(LineBytes-1))
			}
		}
		// Count distinct lines per window of 64 memory ops.
		const w = 64
		var windows, totalDistinct int
		for i := 0; i+w <= len(mem); i += w {
			set := map[uint64]bool{}
			for _, l := range mem[i : i+w] {
				set[l] = true
			}
			windows++
			totalDistinct += len(set)
		}
		return float64(w) / (float64(totalDistinct) / float64(windows))
	}
	sw, mc := sharing("swim"), sharing("mcf")
	if sw <= mc {
		t.Fatalf("swim sharing %.2f should exceed mcf sharing %.2f", sw, mc)
	}
	if sw < 2 {
		t.Fatalf("swim sharing %.2f too low for a streaming workload", sw)
	}
}

func TestParamsValidate(t *testing.T) {
	base := MustPersonality("gzip")
	cases := []func(*Params){
		func(p *Params) { p.LoadFrac = 0.9; p.StoreFrac = 0.2 }, // sum >= 1
		func(p *Params) { p.LoadFrac = -0.1 },
		func(p *Params) { p.Streams = 0 },
		func(p *Params) { p.RunLen = 0 },
		func(p *Params) { p.StrideBytes = 0 },
		func(p *Params) { p.WorkingSet = 128 },
		func(p *Params) { p.AccessSize = 3 },
		func(p *Params) { p.StaticBranches = 0 },
		func(p *Params) { p.DepGeom = 1.0 },
		func(p *Params) { p.DepGeom = 0 },
		func(p *Params) { p.BankSpread = -1 },
		func(p *Params) { p.BankSpread = 2; p.StrideBytes = 64 }, // not bank-preserving
		func(p *Params) { p.CodeBytes = codeWindow + 4 },         // PCs past the record's window
		func(p *Params) { p.WorkingSet = dataWindow },            // data past the record's window
		func(p *Params) { p.WorkingSet = 1 << 63 },               // no overflowing extent
		func(p *Params) { p.StrideBytes = 1 << 40 },
		func(p *Params) { p.BankSpread = 1; p.StrideBytes = 64 * LineBytes; p.Streams = 1 << 13 },
	}
	for i, mutate := range cases {
		p := base
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

// TestParamsWindowEdges grows a plain and a bank-pinned personality's
// working set, and its code footprint, to the largest Validate accepts:
// every generated address stays below the extent Validate bounds, and
// the slab replays the stream exactly, so no valid Params reaches
// pack's panic.
func TestParamsWindowEdges(t *testing.T) {
	for _, name := range []string{"gzip", "ammp"} {
		p := MustPersonality(name)
		p.CodeBytes = codeWindow
		p.RandFrac = 0.5                             // spread accesses over the whole working set
		lo, hi := p.WorkingSet, uint64(dataWindow)+1 // Validate accepts lo, refuses hi
		for hi-lo > 1 {
			p.WorkingSet = lo + (hi-lo)/2
			if p.Validate() == nil {
				lo = p.WorkingSet
			} else {
				hi = p.WorkingSet
			}
		}
		p.WorkingSet = lo
		if p.Validate() != nil || lo < dataWindow-1<<20 {
			t.Fatalf("%s: largest valid WorkingSet %#x, want within 1 MiB of the window", name, lo)
		}
		want := Generate(p, 2*slabChunk)
		ss := NewSlab(p).Stream()
		var in isa.Inst
		for i := range want {
			ss.Next(&in)
			if in != want[i] {
				t.Fatalf("%s: slab inst %d is %+v, generator %+v", name, i, in, want[i])
			}
			if in.Addr != 0 && in.Addr-dataBase >= p.dataExtent() {
				t.Fatalf("%s: address %#x beyond the validated extent %#x", name, in.Addr, p.dataExtent())
			}
		}
	}
}

func TestGeneratorPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewGenerator should panic on invalid params")
		}
	}()
	NewGenerator(Params{Name: "bad"})
}

func TestFPClassesOnlyInFPPrograms(t *testing.T) {
	insts := Generate(MustPersonality("gzip"), 20000) // integer program
	for i := range insts {
		if insts[i].Cls.IsFP() {
			t.Fatalf("integer program generated FP op at %d", i)
		}
	}
	insts = Generate(MustPersonality("swim"), 20000)
	fp := 0
	for i := range insts {
		if insts[i].Cls.IsFP() {
			fp++
		}
	}
	if fp == 0 {
		t.Fatal("FP program generated no FP ops")
	}
}

func TestWorkingSetBounded(t *testing.T) {
	p := MustPersonality("gzip")
	insts := Generate(p, 50000)
	// All data addresses live in the stream/working-set region and
	// within a generous bound of the configured footprint.
	for i := range insts {
		if !insts[i].Cls.IsMem() {
			continue
		}
		if insts[i].Addr < dataBase {
			t.Fatalf("data address %#x below data base", insts[i].Addr)
		}
		if insts[i].Addr > dataBase+4*p.WorkingSet+1<<22 {
			t.Fatalf("data address %#x far outside working set", insts[i].Addr)
		}
	}
}
