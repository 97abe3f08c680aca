package cpu

import (
	"math/rand"
	"strings"
	"testing"

	"samielsq/internal/core"
	"samielsq/internal/energy"
	"samielsq/internal/isa"
	"samielsq/internal/lsq"
	"samielsq/internal/trace"
)

// mk builds a CPU over a slice trace with an unbounded LSQ unless a
// model is given.
func mk(insts []isa.Inst, model lsq.Model) *CPU {
	if model == nil {
		model = lsq.NewUnbounded()
	}
	return New(PaperConfig(), isa.NewSliceStream(insts), model, nil, nil, nil, nil)
}

func alu(dest, src int16) isa.Inst {
	return isa.Inst{Cls: isa.ClassIntALU, Dest: dest, SrcA: src, SrcB: isa.RegNone}
}

func load(dest int16, addr uint64) isa.Inst {
	return isa.Inst{Cls: isa.ClassLoad, Dest: dest, SrcA: isa.RegNone, SrcB: isa.RegNone, Addr: addr, Size: 4}
}

func store(addr uint64, dataSrc int16) isa.Inst {
	return isa.Inst{Cls: isa.ClassStore, Dest: isa.RegNone, SrcA: isa.RegNone, SrcB: dataSrc, Addr: addr, Size: 4}
}

func TestConfigValidate(t *testing.T) {
	c := PaperConfig()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	c.FetchWidth = 0
	if err := c.Validate(); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestRunsToCompletion(t *testing.T) {
	var insts []isa.Inst
	for i := 0; i < 100; i++ {
		insts = append(insts, alu(int16(i%8), isa.RegNone))
	}
	r := mk(insts, nil).Run(1000)
	if r.Committed != 100 {
		t.Fatalf("committed %d, want 100", r.Committed)
	}
	if r.Cycles == 0 || r.IPC <= 0 {
		t.Fatalf("degenerate result: %+v", r)
	}
}

func TestIndependentALUsSuperscalar(t *testing.T) {
	// 600 independent ALU ops on a 6-ALU, 8-wide machine: IPC must be
	// well above scalar.
	var insts []isa.Inst
	for i := 0; i < 600; i++ {
		insts = append(insts, alu(int16(i%32), isa.RegNone))
	}
	r := mk(insts, nil).Run(600)
	if r.IPC < 3 {
		t.Fatalf("independent ALU IPC = %.2f, want >= 3", r.IPC)
	}
}

func TestSerialChainBoundByLatency(t *testing.T) {
	// A pure dependence chain of N 1-cycle ALU ops takes at least N
	// cycles.
	const n = 200
	var insts []isa.Inst
	for i := 0; i < n; i++ {
		insts = append(insts, alu(0, 0)) // r0 = f(r0)
	}
	r := mk(insts, nil).Run(n)
	if r.Cycles < n {
		t.Fatalf("serial chain finished in %d cycles (< %d)", r.Cycles, n)
	}
	if r.IPC > 1.05 {
		t.Fatalf("serial chain IPC = %.2f > 1", r.IPC)
	}
}

func TestDivNonPipelined(t *testing.T) {
	// Four independent divides on 3 mul/div units: the fourth must wait
	// for a unit (20-cycle occupancy), so total > 40.
	var insts []isa.Inst
	for i := 0; i < 4; i++ {
		insts = append(insts, isa.Inst{Cls: isa.ClassIntDiv, Dest: int16(i), SrcA: isa.RegNone, SrcB: isa.RegNone})
	}
	r := mk(insts, nil).Run(4)
	if r.Cycles < 40 {
		t.Fatalf("4 divides on 3 units took %d cycles, want >= 40", r.Cycles)
	}
}

func TestLoadLatency(t *testing.T) {
	// A single load (cold caches): its consumer sees L1+L2+mem latency.
	insts := []isa.Inst{
		load(1, 0x100000),
		alu(2, 1),
	}
	r := mk(insts, nil).Run(2)
	if r.Cycles < 130 {
		t.Fatalf("cold load chain took %d cycles, want >= 130", r.Cycles)
	}
	if r.Loads != 1 {
		t.Fatalf("loads = %d", r.Loads)
	}
}

func TestStoreForwarding(t *testing.T) {
	// A load overlapping an older store gets its data forwarded and
	// never touches the Dcache.
	insts := []isa.Inst{
		store(0x200000, isa.RegNone),
		load(1, 0x200000),
	}
	c := mk(insts, nil)
	r := c.Run(2)
	if r.ForwardedLoads != 1 {
		t.Fatalf("forwarded = %d, want 1", r.ForwardedLoads)
	}
	// The only full Dcache access is the store's commit write.
	if c.Meter().NDcacheFull != 1 {
		t.Fatalf("dcache accesses = %d, want 1 (store commit only)", c.Meter().NDcacheFull)
	}
}

func TestReadyBitBlocksLoad(t *testing.T) {
	// A load behind a store whose *address* depends on a long-latency
	// op cannot perform before the store's address is known: the
	// conservative readyBit scheme (§3.1).
	slowAddr := isa.Inst{Cls: isa.ClassIntDiv, Dest: 5, SrcA: isa.RegNone, SrcB: isa.RegNone}
	st := isa.Inst{Cls: isa.ClassStore, Dest: isa.RegNone, SrcA: 5, SrcB: isa.RegNone, Addr: 0x300000, Size: 4}
	ld := load(1, 0x400000) // different address: no forwarding
	r := mk([]isa.Inst{slowAddr, st, ld}, nil).Run(3)
	// div 20 + store AGEN + load access (cold, >=130).
	if r.Cycles < 150 {
		t.Fatalf("readyBit not enforced: %d cycles", r.Cycles)
	}
}

func TestBranchMispredictPenalty(t *testing.T) {
	// Unpredictable branch directions throttle fetch; compare IPC of a
	// predictable vs an alternating-direction stream with the same mix.
	mkStream := func(period int) []isa.Inst {
		rng := rand.New(rand.NewSource(3))
		var insts []isa.Inst
		for i := 0; i < 2000; i++ {
			if i%5 == 4 {
				taken := false
				if period > 0 {
					taken = (i/5)%period != 0
				} else {
					taken = rng.Intn(2) == 0
				}
				insts = append(insts, isa.Inst{
					Cls: isa.ClassBranch, PC: 0x120000040, Dest: isa.RegNone,
					SrcA: isa.RegNone, SrcB: isa.RegNone,
					Taken: taken, Target: 0x120000000,
				})
			} else {
				insts = append(insts, alu(int16(i%32), isa.RegNone))
			}
		}
		return insts
	}
	good := mk(mkStream(64), nil).Run(2000)
	bad := mk(mkStream(-1), nil).Run(2000)
	if bad.IPC >= good.IPC {
		t.Fatalf("mispredicts did not hurt: good %.2f, bad %.2f", good.IPC, bad.IPC)
	}
	if bad.BranchMispredicts <= good.BranchMispredicts {
		t.Fatalf("mispredict counts: good %d, bad %d", good.BranchMispredicts, bad.BranchMispredicts)
	}
}

func TestDeadlockFlushForwardProgress(t *testing.T) {
	// Construct the genuine §3.3 deadlock: the oldest memory
	// instruction's address resolves late (behind a divide), by which
	// time younger instructions have filled every structure its line
	// could occupy. The pipeline must flush and still complete.
	cfg := core.Config{
		Banks: 1, EntriesPerBank: 1, SlotsPerEntry: 1,
		SharedEntries: 1, AddrBufferSlots: 8, LineBytes: 32,
	}
	s := core.New(cfg, nil)
	var insts []isa.Inst
	insts = append(insts, isa.Inst{Cls: isa.ClassIntDiv, Dest: 5, SrcA: isa.RegNone, SrcB: isa.RegNone})
	// Oldest load: address register depends on the divide.
	insts = append(insts, isa.Inst{Cls: isa.ClassLoad, Dest: 1, SrcA: 5, SrcB: isa.RegNone, Addr: 0x500000, Size: 4})
	// Younger loads to distinct lines fill the bank entry and the
	// SharedLSQ long before the oldest load's address is known; they
	// cannot commit (the oldest blocks the ROB head), so the oldest
	// cannot be placed: deadlock.
	for i := 0; i < 30; i++ {
		insts = append(insts, load(int16(2+i%6), uint64(0x500040+i*64)))
	}
	c := mk(insts, s)
	r := c.Run(32)
	if r.Committed != 32 {
		t.Fatalf("committed %d, want 32 (no forward progress)", r.Committed)
	}
	if r.DeadlockFlushes == 0 {
		t.Fatal("expected a deadlock-avoidance flush")
	}
}

func TestDeterminism(t *testing.T) {
	p := trace.MustPersonality("gzip")
	run := func() Result {
		m := core.NewPaper(nil)
		c := New(PaperConfig(), trace.NewGenerator(p), m, nil, nil, nil, nil)
		return c.Run(20000)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic results:\n%+v\n%+v", a, b)
	}
}

func TestRunWarmResetsStats(t *testing.T) {
	p := trace.MustPersonality("gzip")
	c := New(PaperConfig(), trace.NewGenerator(p), lsq.NewConventional(128, nil), nil, nil, nil, nil)
	r := c.RunWarm(10000, 10000)
	// The last commit group may overshoot by up to the commit width.
	if r.Committed < 10000 || r.Committed > 10000+8 {
		t.Fatalf("measured %d, want ~10000", r.Committed)
	}
	// Measured cycles must not include the warm-up.
	if r.Cycles > 10000*40 {
		t.Fatalf("cycles %d look like they include warm-up", r.Cycles)
	}
	if r.IPC <= 0 {
		t.Fatal("IPC not computed")
	}
}

func TestROBCapacityStalls(t *testing.T) {
	// A long-latency head op with hundreds of followers fills the ROB:
	// dispatch stalls must be recorded.
	var insts []isa.Inst
	insts = append(insts, load(1, 0x600000)) // cold: >=130 cycles
	insts = append(insts, alu(2, 1))         // consumer keeps it at head
	for i := 0; i < 500; i++ {
		insts = append(insts, alu(int16(3+i%8), isa.RegNone))
	}
	r := mk(insts, nil).Run(502)
	if r.DispatchStalls == 0 {
		t.Fatal("no dispatch stalls with a blocked ROB head")
	}
}

func TestWayKnownStorePath(t *testing.T) {
	// With the SAMIE, a second access to the same line uses the cached
	// way: NDcacheWayKnown must rise.
	m := energy.NewMeter()
	s := core.NewPaper(m)
	// The store's address depends on the first load's data, so the
	// readyBit keeps the later same-line loads from performing until
	// the first access has cached the line's location and translation.
	// They still *place* early, sharing the first load's entry.
	insts := []isa.Inst{
		load(1, 0x700000),
		{Cls: isa.ClassStore, Dest: isa.RegNone, SrcA: 1, SrcB: isa.RegNone, Addr: 0x800000, Size: 4},
		load(2, 0x700008),
		load(3, 0x700010),
	}
	c := New(PaperConfig(), isa.NewSliceStream(insts), s, nil, nil, nil, m)
	c.Run(4)
	if c.Meter().NDcacheWayKnown == 0 {
		t.Fatal("no way-known accesses for same-line loads")
	}
	if c.Meter().NTLBReuse == 0 {
		t.Fatal("no TLB reuses for same-line loads")
	}
}

// seqStream delivers ALU instructions carrying the given sequence
// numbers.
type seqStream struct{ seqs []uint64 }

func (s *seqStream) Next(out *isa.Inst) bool {
	if len(s.seqs) == 0 {
		return false
	}
	*out = alu(1, isa.RegNone)
	out.Seq, s.seqs = s.seqs[0], s.seqs[1:]
	return true
}

// TestNonConsecutiveSeqsPanic pins isa.Stream's contract: sequence
// numbers start at 0 and never skip, since they index the instruction
// window. A stream that breaks it must panic at decode, in the first
// fetch cycle, before the bad instruction takes a slot.
func TestNonConsecutiveSeqsPanic(t *testing.T) {
	for _, tc := range []struct {
		name    string
		seqs    []uint64
		decoded uint64 // instructions decoded before the bad one
	}{
		{"first seq not 0", []uint64{1, 2, 3}, 0},
		{"skipped seq", []uint64{0, 1, 3, 4}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(PaperConfig(), &seqStream{tc.seqs}, lsq.NewUnbounded(), nil, nil, nil, nil)
			msg := func() (r any) {
				defer func() { r = recover() }()
				c.Run(10)
				return nil
			}()
			if s, _ := msg.(string); !strings.Contains(s, "non-consecutive sequence numbers") {
				t.Fatalf("panic = %v, want the non-consecutive sequence numbers panic", msg)
			}
			if c.cycle != 1 || c.win.tail != tc.decoded {
				t.Fatalf("panicked in cycle %d after %d decodes, want cycle 1 after %d", c.cycle, c.win.tail, tc.decoded)
			}
		})
	}
}
