// Package cpu implements the cycle-level out-of-order superscalar
// processor model used by the paper's evaluation: an enhanced
// sim-outorder-style pipeline with a reorder buffer separate from the
// issue queues, modeled structure ports, the Table 2 configuration by
// default, and pluggable load/store-queue models (lsq.Model).
//
// The pipeline stages are fetch -> dispatch (decode/rename) -> issue ->
// execute -> writeback -> commit. Memory disambiguation follows the
// paper's conservative readyBit scheme (§3.1): a load performs its
// access only when every older store's address is known; a store whose
// address is computed sets the readyBits of younger instructions up to
// the next unknown-address store.
//
// The per-instruction path is allocation-free in steady state (see
// docs/performance.md): dynamic instructions come from a free list
// recycled at commit, the ROB/fetch/replay queues are ring buffers, and
// in-flight lookups are direct seq-indexed ring addressing instead of
// maps. This requires streams to deliver consecutive sequence numbers
// (isa.Stream's contract), which makes the ROB a contiguous seq window.
package cpu

import (
	"fmt"
	"time"

	"samielsq/internal/bpred"
	"samielsq/internal/energy"
	"samielsq/internal/isa"
	"samielsq/internal/lsq"
	"samielsq/internal/mem"
	"samielsq/internal/obs"
	"samielsq/internal/tlb"
)

// Config is the processor configuration (Table 2).
type Config struct {
	FetchWidth  int
	DecodeWidth int
	IssueInt    int // INT issue width per cycle
	IssueFP     int // FP issue width per cycle
	CommitWidth int

	FetchQueue int
	ROBSize    int
	IQInt      int
	IQFP       int

	IntALU    int // 1-cycle latency, pipelined
	IntMulDiv int // mult 3 cycles pipelined; div 20 cycles non-pipelined
	FPALU     int // 2 cycles, pipelined
	FPMulDiv  int // mult 4 cycles pipelined; div 12 cycles non-pipelined

	DcachePorts int

	// MispredictPenalty is the front-end redirect/refill delay after a
	// branch misprediction resolves (and after a deadlock flush).
	MispredictPenalty int

	// DeadlockPatience is how many consecutive cycles the ROB head may
	// sit unplaced in the LSQ before the §3.3 deadlock-avoidance flush
	// fires.
	DeadlockPatience int

	// LegacyIssueWalk selects the pre-wakeup issue engine: the
	// per-cycle compacting walk over the age-ordered active list,
	// O(in-flight) per cycle. The default (false) is the event-driven
	// wakeup scheduler (see sched.go), which produces bit-identical
	// results while touching only O(issue width + newly woken)
	// instructions per cycle and fast-forwarding quiescent spans; the
	// walk, which steps every cycle, is kept as the reference for
	// differential testing (TestSchedulerDifferential).
	LegacyIssueWalk bool
}

// PaperConfig returns the Table 2 configuration.
func PaperConfig() Config {
	return Config{
		FetchWidth:        8,
		DecodeWidth:       8,
		IssueInt:          8,
		IssueFP:           8,
		CommitWidth:       8,
		FetchQueue:        64,
		ROBSize:           256,
		IQInt:             128,
		IQFP:              128,
		IntALU:            6,
		IntMulDiv:         3,
		FPALU:             4,
		FPMulDiv:          2,
		DcachePorts:       4,
		MispredictPenalty: 8,
		DeadlockPatience:  32,
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	for _, v := range [...]struct {
		n string
		v int
	}{
		{"FetchWidth", c.FetchWidth}, {"DecodeWidth", c.DecodeWidth},
		{"IssueInt", c.IssueInt}, {"IssueFP", c.IssueFP},
		{"CommitWidth", c.CommitWidth}, {"FetchQueue", c.FetchQueue},
		{"ROBSize", c.ROBSize}, {"IQInt", c.IQInt}, {"IQFP", c.IQFP},
		{"IntALU", c.IntALU}, {"IntMulDiv", c.IntMulDiv},
		{"FPALU", c.FPALU}, {"FPMulDiv", c.FPMulDiv},
		{"DcachePorts", c.DcachePorts},
	} {
		if v.v <= 0 {
			return fmt.Errorf("cpu: %s must be positive", v.n)
		}
	}
	if c.MispredictPenalty < 0 || c.DeadlockPatience < 0 {
		return fmt.Errorf("cpu: penalties must be non-negative")
	}
	return nil
}

// Instruction latencies (Table 2).
const (
	latIntALU = 1
	latIntMul = 3
	latIntDiv = 20
	latFPALU  = 2
	latFPMul  = 4
	latFPDiv  = 12
	latAGEN   = 1 // address generation on an integer ALU
	latFwd    = 1 // store-to-load forward
)

type instState uint8

const (
	stFetched instState = iota
	stDispatched
	stAGENDone // memory only: address computed, in LSQ placement flow
	stIssued   // execution latency counting down
	stDone     // result ready / access performed
	stCommitted
)

// dynInst is one in-flight dynamic instruction. Instances are recycled
// through the CPU's free list at commit; gen disambiguates a recycled
// slot from the instruction a stale reference was bound to.
type dynInst struct {
	in    isa.Inst
	state instState
	gen   uint32 // bumped every time the slot is recycled

	// Class lanes, precomputed at allocation: the issue walk consults
	// them every cycle per in-flight instruction.
	mem bool
	fp  bool

	// Producers still in flight at rename (nil = ready). genA/genB are
	// the producers' generations at bind time: a mismatch means the
	// producer has committed and its slot was recycled — i.e. the value
	// is long since ready.
	srcA, srcB *dynInst
	genA, genB uint32

	readyAt uint64 // cycle the result becomes available (once issued)

	pred       bpred.Prediction
	mispredict bool
	predMade   bool

	// Memory state.
	placed      bool
	buffered    bool
	performed   bool
	addrUnknown bool // store dispatched, address not yet computed

	// Wakeup-scheduler links (nil/0 under LegacyIssueWalk). waiterHead
	// anchors the intrusive list of consumers parked on this
	// instruction as a producer (chained through their waitNext);
	// wheelNext/wakeCycle place this instruction in a timing-wheel
	// bucket. A recycled instruction never carries live links: its
	// waiter list drains at the stDone transition, which precedes any
	// commit.
	waiterHead *dynInst
	waitNext   *dynInst
	wheelNext  *dynInst
	wakeCycle  uint64
}

func (d *dynInst) isMem() bool { return d.mem }

func producerDone(p *dynInst, gen uint32, cycle uint64) bool {
	return p == nil || p.gen != gen || (p.state >= stDone && p.readyAt <= cycle)
}

// srcsReady reports whether both producers have completed by cycle.
// A producer observed done is severed (the verdict is permanent until
// a flush, which rebinds producers at re-dispatch), so the repeated
// per-cycle rechecks of a waiting instruction degrade to nil tests
// instead of pointer chases.
func (d *dynInst) srcsReady(cycle uint64) bool {
	if d.srcA != nil {
		if !producerDone(d.srcA, d.genA, cycle) {
			return false
		}
		d.srcA = nil
	}
	if d.srcB != nil {
		if !producerDone(d.srcB, d.genB, cycle) {
			return false
		}
		d.srcB = nil
	}
	return true
}

// agenReady reports whether the address operands are ready. For
// stores only SrcA (the address register) gates address generation:
// the data operand (SrcB) is needed only to complete, matching real
// pipelines where the store address is computed independently of the
// data. This is what lets the readyBit scheme make progress.
func (d *dynInst) agenReady(cycle uint64) bool {
	if d.in.Cls == isa.ClassStore {
		if d.srcA != nil {
			if !producerDone(d.srcA, d.genA, cycle) {
				return false
			}
			d.srcA = nil
		}
		return true
	}
	return d.srcsReady(cycle)
}

// dataReady reports whether a store's data operand is available.
func (d *dynInst) dataReady(cycle uint64) bool {
	if d.srcB != nil {
		if !producerDone(d.srcB, d.genB, cycle) {
			return false
		}
		d.srcB = nil
	}
	return true
}

// writerRef is a generation-tagged reference to the last architectural
// writer of a register. The writer may have committed (and its slot
// been recycled) by the time a consumer renames against it; the
// generation check classifies that case as "value ready".
type writerRef struct {
	d   *dynInst
	gen uint32
}

// fuPool models a pool of functional units that may be occupied for
// multiple cycles (non-pipelined operations).
type fuPool struct {
	busyUntil []uint64
	// minBusy caches min(busyUntil): when it is still in the future the
	// whole pool is busy and acquire fails without scanning.
	minBusy uint64
}

func newFUPool(n int) *fuPool { return &fuPool{busyUntil: make([]uint64, n)} }

// acquire reserves a unit until cycle+occupancy; it returns false when
// every unit is busy. The all-busy path is O(1) via the min-tracking
// index; a successful acquire rescans the (small) pool to refresh it.
func (p *fuPool) acquire(cycle uint64, occupancy int) bool {
	if p.minBusy > cycle {
		return false
	}
	acquired := false
	newMin := ^uint64(0)
	for i := range p.busyUntil {
		if !acquired && p.busyUntil[i] <= cycle {
			p.busyUntil[i] = cycle + uint64(occupancy)
			acquired = true
		}
		if p.busyUntil[i] < newMin {
			newMin = p.busyUntil[i]
		}
	}
	if acquired {
		p.minBusy = newMin
	}
	return acquired
}

func (p *fuPool) reset() {
	for i := range p.busyUntil {
		p.busyUntil[i] = 0
	}
	p.minBusy = 0
}

// Result summarizes a simulation.
type Result struct {
	Cycles            uint64
	Committed         uint64
	IPC               float64
	Loads, Stores     uint64
	ForwardedLoads    uint64
	BranchLookups     uint64
	BranchMispredicts uint64
	DeadlockFlushes   uint64
	PlacementFailures uint64 // §3.3 scenario 2 flushes
	L1DMissRate       float64
	DTLBMissRate      float64
	FetchStallCycles  uint64
	DispatchStalls    uint64 // cycles dispatch blocked by ROB/IQ/LSQ

	// Head-of-ROB stall classification (cycles where nothing
	// committed, by the state of the head instruction).
	HeadWaitIssue    uint64 // head not yet issued (sources or FU)
	HeadWaitExec     uint64 // head executing (latency)
	HeadLoadReadyBit uint64 // head load blocked by an older store address
	HeadLoadNoPort   uint64 // head load blocked on a Dcache port
	HeadLoadData     uint64 // head load access in flight
	HeadStoreWait    uint64 // head store waiting (placement or data)
	HeadUnplaced     uint64 // head memory op not placed in the LSQ

	FetchStallBranch uint64 // fetch blocked by an unresolved mispredict
	FetchStallOther  uint64 // fetch blocked by I-cache/ITLB/redirect delay
}

// CPU is one simulator instance. Construct with New and call Run once.
type CPU struct {
	cfg   Config
	strm  isa.Stream
	model lsq.Model
	hier  *mem.Hierarchy
	dtlb  *tlb.TLB
	itlb  *tlb.TLB
	bp    *bpred.Predictor
	meter *energy.Meter

	cycle      uint64
	rob        instRing // contiguous seq window; index = seq - headSeq
	robNextSeq uint64   // expected seq of the next dispatch (contiguity check)
	fetchQ     instRing
	replayQ    instRing // flushed instructions awaiting re-fetch
	iqInt      int
	iqFP       int

	lastWriter [isa.NumLogicalRegs]writerRef

	intMulDiv *fuPool
	fpMulDiv  *fuPool

	// readyBit frontier: stores dispatched whose address is still
	// uncomputed, tracked on the instructions themselves plus a count
	// and a monotone min-seq cursor (recomputed lazily by a forward
	// ring scan from the previous frontier).
	unknownCount  int
	minUnknownSeq uint64 // last computed frontier; ^0 when none
	minUnknownOK  bool

	pendingAgens      int // memory AGENs issued, address not yet delivered
	fetchBlockedUntil uint64
	blockingBranch    *dynInst // mispredicted branch gating fetch
	lastFetchLine     uint64

	headBlocked int // consecutive cycles the ROB head sat unplaced

	// tickIdle records that the last Model.Tick placed nothing, so by
	// the Tick contract none will until the next Commit or Flush.
	tickIdle bool

	streamDone bool

	// dynInst arena: committed instructions return here and are handed
	// back out by nextInst, so the steady-state pipeline allocates
	// nothing per instruction.
	freeInsts []*dynInst

	flushScratch []*dynInst // reused by flushPipeline
	flushEpoch   uint64     // bumped per flush; guards in-progress ROB walks

	// nextScratch receives Stream.Next output. A local would escape to
	// the heap through the interface call — one boxed isa.Inst per
	// fetched instruction; a field costs nothing.
	nextScratch isa.Inst

	// active is the age-ordered subset of the ROB that still needs
	// per-cycle attention (dispatched, executing, or waiting on the
	// memory system). Instructions leave it when they reach stDone, so
	// the writeback/issue walk skips completed instructions piling up
	// behind a blocked head. Compaction preserves age order, keeping
	// issue priority identical to a full ROB walk. Only maintained
	// under LegacyIssueWalk.
	active []*dynInst

	// ev is the event-driven wakeup scheduler (sched.go); nil under
	// LegacyIssueWalk.
	ev *eventSched

	// sampler is the optional interval telemetry collector
	// (telemetry.go); nil unless attached, and free when disabled.
	sampler  *obs.IntervalSampler
	sampBase sampleBase

	// flight is the optional per-cycle issue recorder (flight.go),
	// attached only by diagnostic tests.
	flight *FlightRecorder

	res Result
}

// SetFlightRecorder attaches (or with nil detaches) a flight recorder.
func (c *CPU) SetFlightRecorder(f *FlightRecorder) { c.flight = f }

// New wires a CPU together. Nil subsystems get paper defaults; meter
// may be nil (a fresh meter is created).
func New(cfg Config, strm isa.Stream, model lsq.Model, hier *mem.Hierarchy, dtlbU *tlb.TLB, bp *bpred.Predictor, meter *energy.Meter) *CPU {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if strm == nil {
		panic("cpu: nil instruction stream")
	}
	if model == nil {
		panic("cpu: nil LSQ model")
	}
	if hier == nil {
		hier = mem.NewPaper()
	}
	if dtlbU == nil {
		dtlbU = tlb.New(tlb.PaperDTLB())
	}
	if bp == nil {
		bp = bpred.New(bpred.PaperConfig())
	}
	if meter == nil {
		meter = energy.NewMeter()
	}
	c := &CPU{
		cfg:       cfg,
		strm:      strm,
		model:     model,
		hier:      hier,
		dtlb:      dtlbU,
		itlb:      tlb.New(tlb.PaperITLB()),
		bp:        bp,
		meter:     meter,
		intMulDiv: newFUPool(cfg.IntMulDiv),
		fpMulDiv:  newFUPool(cfg.FPMulDiv),
		rob:       newInstRing(cfg.ROBSize),
		fetchQ:    newInstRing(cfg.FetchQueue + cfg.FetchWidth),
		replayQ:   newInstRing(4),
		freeInsts: make([]*dynInst, 0, cfg.ROBSize+cfg.FetchQueue),
		active:    make([]*dynInst, 0, cfg.ROBSize),
	}
	if !cfg.LegacyIssueWalk {
		c.ev = newEventSched(cfg.ROBSize)
	}
	return c
}

// Meter returns the energy meter.
func (c *CPU) Meter() *energy.Meter { return c.meter }

// Cycle returns the current cycle (for tests).
func (c *CPU) Cycle() uint64 { return c.cycle }

// allocInst hands out a dynInst for in, recycling a committed one when
// available.
//
//samie:hotpath
func (c *CPU) allocInst(in isa.Inst) *dynInst {
	if n := len(c.freeInsts); n > 0 {
		d := c.freeInsts[n-1]
		c.freeInsts = c.freeInsts[:n-1]
		gen := d.gen
		*d = dynInst{in: in, gen: gen, mem: in.Cls.IsMem(), fp: in.Cls.IsFP()}
		return d
	}
	return &dynInst{in: in, mem: in.Cls.IsMem(), fp: in.Cls.IsFP()}
}

// recycleInst returns a committed instruction to the arena. The
// generation bump retires every outstanding reference (rename bindings,
// lastWriter entries) to the old occupant.
//
//samie:hotpath
func (c *CPU) recycleInst(d *dynInst) {
	d.gen++
	//lint:ignore hotalloc freeInsts is preallocated to ROBSize+FetchQueue, the max ever recycled
	c.freeInsts = append(c.freeInsts, d)
}

// RunWarm simulates warmInsts instructions to warm the caches, TLBs
// and predictor (as the paper does before measuring), resets every
// statistic, then simulates and reports measureInsts more.
func (c *CPU) RunWarm(warmInsts, measureInsts uint64) Result {
	res, _, _ := c.RunWarmTimed(warmInsts, measureInsts)
	return res
}

// RunWarmTimed is RunWarm plus wall-clock attribution: it reports how
// long the warmup and measured portions each took on the host, so the
// profiling layer can split a run's simulation time into its phases.
// The simulated result is identical to RunWarm's.
func (c *CPU) RunWarmTimed(warmInsts, measureInsts uint64) (Result, time.Duration, time.Duration) {
	var warmDur time.Duration
	if warmInsts > 0 {
		start := time.Now()
		c.Run(warmInsts)
		warmDur = time.Since(start)
		c.res = Result{}
		c.meter.Reset()
		c.hier.ResetStats()
		c.dtlb.ResetStats()
		c.itlb.ResetStats()
		c.bp.ResetStats()
		c.model.ResetStats()
		// Telemetry covers the measured portion only: drop warmup
		// samples and re-baseline the deltas against the reset meter.
		c.sampler.Reset(c.cycle)
		c.resetSampleBase()
	}
	start := time.Now()
	res := c.Run(measureInsts)
	return res, warmDur, time.Since(start)
}

// Run simulates until maxInsts instructions commit (or the stream
// drains) and returns the result summary.
func (c *CPU) Run(maxInsts uint64) Result {
	// Safety valve: a bounded simulation must terminate even if a
	// model bug wedges the pipeline.
	startCycle := c.cycle
	maxCycles := startCycle + maxInsts*40 + 1_000_000
	for c.res.Committed < maxInsts && c.cycle < maxCycles {
		if c.streamDone && c.rob.len() == 0 && c.fetchQ.len() == 0 && c.replayQ.len() == 0 {
			break
		}
		c.advance(maxCycles)
	}
	c.res.Cycles = c.cycle - startCycle
	if c.res.Cycles > 0 {
		c.res.IPC = float64(c.res.Committed) / float64(c.res.Cycles)
	}
	c.res.L1DMissRate = c.hier.L1D.MissRate()
	c.res.DTLBMissRate = c.dtlb.MissRate()
	return c.res
}

// advance is Run's loop body: under the wakeup scheduler it first
// fast-forwards across the quiescent span ahead (never reaching
// limit), then steps the cycle that ends it.
//
//samie:hotpath
func (c *CPU) advance(limit uint64) {
	if c.ev != nil {
		c.skipQuiescent(limit)
	}
	c.step()
}

// step advances one cycle, running the stages in reverse order so that
// same-cycle structural effects propagate like hardware.
//
//samie:hotpath
func (c *CPU) step() {
	c.cycle++
	dports := c.cfg.DcachePorts

	c.commit(&dports)
	if c.checkDeadlock() {
		c.model.AccountCycle()
		c.endOfCycleTelemetry()
		return
	}
	c.drainAddrBuffer()
	if c.ev != nil {
		c.wakeupIssue(&dports)
	} else {
		c.writebackAndIssue(&dports)
	}
	c.dispatch()
	c.fetch()
	c.model.AccountCycle()
	c.endOfCycleTelemetry()
}

// ---- Commit ---------------------------------------------------------------

//samie:hotpath
func (c *CPU) commit(dports *int) {
	n := 0
	for n < c.cfg.CommitWidth && c.rob.len() > 0 {
		d := c.rob.front()
		if d.state < stDone || d.readyAt > c.cycle {
			if n == 0 {
				c.classifyHeadStall(d)
			}
			break
		}
		if d.isMem() {
			if d.in.Cls == isa.ClassStore {
				// Stores write the Dcache at commit and need a port.
				if *dports <= 0 {
					break
				}
				*dports--
				c.performStoreCommit(d)
			}
			// Only memory instructions were dispatched to the model.
			c.model.Commit(d.in.Seq)
		}
		d.state = stCommitted
		c.rob.popFront()
		c.recycleInst(d)
		c.res.Committed++
		n++
	}
}

// classifyHeadStall records why the ROB head could not commit this
// cycle (profiling aid; no architectural effect).
func (c *CPU) classifyHeadStall(d *dynInst) {
	switch {
	case d.state == stDispatched || d.state == stFetched:
		c.res.HeadWaitIssue++
	case d.state == stIssued:
		c.res.HeadWaitExec++
	case d.state == stAGENDone && !d.placed:
		c.res.HeadUnplaced++
	case d.state == stAGENDone && d.in.Cls == isa.ClassLoad && !d.performed:
		if c.minUnknownStore() < d.in.Seq {
			c.res.HeadLoadReadyBit++
		} else {
			c.res.HeadLoadNoPort++
		}
	case d.state == stAGENDone && d.in.Cls == isa.ClassStore:
		c.res.HeadStoreWait++
	case d.state == stDone && d.readyAt > c.cycle:
		if d.in.Cls == isa.ClassLoad {
			c.res.HeadLoadData++
		} else {
			c.res.HeadWaitExec++
		}
	}
}

// performStoreCommit runs the store's Dcache write, with the SAMIE
// way/TLB shortcuts when available.
func (c *CPU) performStoreCommit(d *dynInst) {
	plan := c.model.Plan(d.in.Seq)
	if plan.WayKnown {
		c.meter.DcacheWayKnown()
		if _, ok := c.hier.DataDirect(d.in.Addr, plan.Set, plan.Way, true); !ok {
			// The presentBit protocol makes this unreachable; treat a
			// violation loudly in development.
			panic("cpu: way-known store access missed (presentBit protocol violated)")
		}
		if !plan.TLBCached {
			c.meter.DTLBLookup()
			c.dtlb.Lookup(d.in.Addr)
		}
		return
	}
	if !plan.TLBCached {
		c.meter.DTLBLookup()
		c.dtlb.Lookup(d.in.Addr)
	}
	c.meter.DcacheFull()
	res := c.hier.Data(d.in.Addr, true)
	c.handleEviction(res.L1.Evicted, res.L1.EvictedHadPB)
	c.model.RecordAccess(d.in.Seq, res.L1.Set, res.L1.Way, tlb.VPN(d.in.Addr))
	c.hier.L1D.SetPresentBit(res.L1.Set, res.L1.Way)
}

// handleEviction applies the §3.4 conservative presentBit
// invalidation.
func (c *CPU) handleEviction(evicted, hadPB bool) {
	if evicted && hadPB {
		c.model.ClearCachedLocations()
		c.hier.L1D.ClearAllPresentBits()
	}
}

// ---- Deadlock avoidance (§3.3) --------------------------------------------

func (c *CPU) checkDeadlock() bool {
	if c.rob.len() == 0 {
		c.headBlocked = 0
		return false
	}
	if c.headStuck(c.rob.front()) {
		c.headBlocked++
		if c.headBlocked >= c.cfg.DeadlockPatience {
			c.res.DeadlockFlushes++
			c.flushPipeline()
			return true
		}
		return false
	}
	c.headBlocked = 0
	return false
}

// headStuck reports whether the ROB head is deadlock-blocked: its
// address is computed but no LSQ structure can hold it, or the
// address-computation gate itself is closed (AddrBuffer full) so its
// address can never be computed.
func (c *CPU) headStuck(head *dynInst) bool {
	return head.isMem() && !head.placed &&
		(head.state == stAGENDone ||
			(head.state == stDispatched && c.model.FreeCapacity() <= 0))
}

// flushPipeline resets every non-committed instruction and queues it
// for re-fetch in program order (the oldest instruction re-enters
// first, guaranteeing forward progress).
func (c *CPU) flushPipeline() {
	all := c.flushScratch[:0]
	for i := 0; i < c.rob.len(); i++ {
		all = append(all, c.rob.at(i))
	}
	for i := 0; i < c.fetchQ.len(); i++ {
		all = append(all, c.fetchQ.at(i))
	}
	for i := 0; i < c.replayQ.len(); i++ {
		all = append(all, c.replayQ.at(i))
	}
	for _, d := range all {
		d.state = stFetched
		d.placed = false
		d.buffered = false
		d.performed = false
		d.predMade = false
		d.mispredict = false
		d.addrUnknown = false
		d.readyAt = 0
		d.waiterHead = nil
		d.waitNext = nil
		d.wheelNext = nil
		d.wakeCycle = 0
	}
	c.rob.clear()
	c.fetchQ.clear()
	c.replayQ.clear()
	c.active = c.active[:0]
	if c.ev != nil {
		c.ev.reset()
	}
	for _, d := range all {
		c.replayQ.pushBack(d)
	}
	c.flushScratch = all[:0]
	c.iqInt, c.iqFP = 0, 0
	for i := range c.lastWriter {
		c.lastWriter[i] = writerRef{}
	}
	c.intMulDiv.reset()
	c.fpMulDiv.reset()
	c.unknownCount = 0
	c.minUnknownSeq = 0
	c.minUnknownOK = false
	c.pendingAgens = 0
	c.model.Flush()
	c.blockingBranch = nil
	c.fetchBlockedUntil = c.cycle + uint64(c.cfg.MispredictPenalty)
	c.headBlocked = 0
	c.flushEpoch++
}

// ---- LSQ buffer drain -------------------------------------------------------

//samie:hotpath
func (c *CPU) drainAddrBuffer() {
	placed := c.model.Tick()
	c.tickIdle = len(placed) == 0
	for _, seq := range placed {
		if d := c.findROB(seq); d != nil {
			d.placed = true
			d.buffered = false
			if c.ev != nil {
				// The instruction was parked on placement: perform (or
				// complete) attempts resume this cycle, like the legacy
				// walk's per-cycle recheck.
				c.ev.attn.set(seq)
			}
		}
	}
}

// findROB locates an in-flight instruction by sequence number. The ROB
// is a contiguous window of sequence numbers, so this is direct ring
// addressing, not a search.
func (c *CPU) findROB(seq uint64) *dynInst {
	if c.rob.len() == 0 {
		return nil
	}
	head := c.rob.front().in.Seq
	if seq < head || seq-head >= uint64(c.rob.len()) {
		return nil
	}
	return c.rob.at(int(seq - head))
}

// ---- Issue / execute / writeback -------------------------------------------

// minUnknownStore returns the lowest sequence number among stores with
// uncomputed addresses (^0 when none): the readyBit frontier. The
// frontier is monotone between flushes, so the lazy recompute resumes
// the ring scan from the previous frontier instead of rescanning.
func (c *CPU) minUnknownStore() uint64 {
	if c.minUnknownOK {
		return c.minUnknownSeq
	}
	c.minUnknownOK = true
	if c.unknownCount == 0 || c.rob.len() == 0 {
		c.minUnknownSeq = ^uint64(0)
		return c.minUnknownSeq
	}
	head := c.rob.front().in.Seq
	start := 0
	if c.minUnknownSeq != ^uint64(0) && c.minUnknownSeq > head {
		start = int(c.minUnknownSeq - head)
		if start > c.rob.len() {
			start = c.rob.len()
		}
	}
	for i := start; i < c.rob.len(); i++ {
		if d := c.rob.at(i); d.addrUnknown {
			c.minUnknownSeq = d.in.Seq
			return c.minUnknownSeq
		}
	}
	c.minUnknownSeq = ^uint64(0)
	return c.minUnknownSeq
}

//samie:hotpath
func (c *CPU) writebackAndIssue(dports *int) {
	intIssued, fpIssued := 0, 0
	aluUsed := 0
	epoch := c.flushEpoch

	// Walk the active instructions oldest-first, compacting in place:
	// an instruction that reaches stDone drops out and is never
	// revisited, so completed work piling up behind a blocked head
	// costs nothing per cycle.
	act := c.active
	w := 0
	for i := 0; i < len(act); i++ {
		d := act[i]
		switch d.state {
		case stIssued:
			if d.readyAt <= c.cycle {
				c.completeExec(d)
				if c.flushEpoch != epoch {
					// completeExec flushed the pipeline (§3.3 scenario
					// 2): flushPipeline rebuilt the active list; do not
					// touch it here.
					return
				}
			}
		case stDispatched:
			// Once a lane's issue width is spent, younger instructions
			// of that lane skip their (costlier) dependence checks —
			// they could not issue either way.
			if d.fp {
				if fpIssued >= c.cfg.IssueFP {
					break
				}
				if !d.srcsReady(c.cycle) {
					break
				}
				if c.issueFP(d) {
					fpIssued++
					c.iqFP--
				}
			} else {
				if intIssued >= c.cfg.IssueInt {
					break
				}
				if d.mem {
					if !d.agenReady(c.cycle) {
						break
					}
				} else if !d.srcsReady(c.cycle) {
					break
				}
				if c.issueInt(d, &aluUsed) {
					intIssued++
					c.iqInt--
				}
			}
		case stAGENDone:
			// Memory instructions waiting to perform their access.
			if d.in.Cls == isa.ClassLoad {
				c.tryPerformLoad(d, dports)
			} else if d.placed && !d.performed && d.dataReady(c.cycle) {
				// A placed store with its data available is complete:
				// it will write the cache at commit.
				d.performed = true
				d.state = stDone
				d.readyAt = c.cycle
				c.model.NotePerformed(d.in.Seq)
			}
		}
		if d.state < stDone {
			act[w] = d
			w++
		}
	}
	c.active = act[:w]
}

// completeExec handles writeback for a finished instruction.
func (c *CPU) completeExec(d *dynInst) {
	if d.in.Cls == isa.ClassBranch {
		miss := c.bp.Resolve(d.in.PC, d.pred, d.in.Taken, d.in.Target)
		if miss {
			c.res.BranchMispredicts++
		}
		if c.blockingBranch == d {
			c.blockingBranch = nil
			c.fetchBlockedUntil = c.cycle + uint64(c.cfg.MispredictPenalty)
		}
		d.state = stDone
		c.wakeWaiters(d)
		return
	}
	if d.isMem() {
		// AGEN finished: hand the address to the LSQ.
		d.state = stAGENDone
		if c.pendingAgens > 0 {
			c.pendingAgens--
		}
		pl := c.model.AddressReady(d.in.Seq, d.in.Cls == isa.ClassLoad, d.in.Addr, d.in.Size)
		if d.in.Cls == isa.ClassStore && d.addrUnknown {
			wasOK, wasFront := c.minUnknownOK, c.minUnknownSeq
			d.addrUnknown = false
			c.unknownCount--
			if wasOK && d.in.Seq == wasFront {
				// The frontier store resolved: recompute lazily from
				// here (the next frontier can only be younger).
				c.minUnknownOK = false
			}
			if c.ev != nil && (!wasOK || d.in.Seq == wasFront) {
				// The readyBit frontier may have advanced: wake every
				// load it passed. A resolve behind a still-valid
				// frontier cannot unblock anyone and wakes nothing.
				c.wakeReadyBitWaiters(c.minUnknownStore())
			}
		}
		switch {
		case pl.Placed:
			d.placed = true
		case pl.Buffered:
			d.buffered = true
		case pl.Failed:
			// §3.3 scenario 2: nothing had room.
			c.res.PlacementFailures++
			c.res.DeadlockFlushes++
			c.flushPipeline()
		}
		return
	}
	d.state = stDone
	c.wakeWaiters(d)
}

// issueInt starts an integer-side instruction (including AGEN for
// memory operations). Returns false on a structural hazard.
func (c *CPU) issueInt(d *dynInst, aluUsed *int) bool {
	switch d.in.Cls {
	case isa.ClassIntALU, isa.ClassBranch, isa.ClassNop:
		if *aluUsed >= c.cfg.IntALU {
			return false
		}
		*aluUsed++
		d.state = stIssued
		d.readyAt = c.cycle + latIntALU
	case isa.ClassLoad, isa.ClassStore:
		if *aluUsed >= c.cfg.IntALU {
			return false
		}
		// §3.3 alternative rule: never start an address computation
		// that is not guaranteed a landing slot.
		if c.pendingAgens >= c.model.FreeCapacity() {
			return false
		}
		c.pendingAgens++
		*aluUsed++
		d.state = stIssued
		d.readyAt = c.cycle + latAGEN
	case isa.ClassIntMul:
		if !c.intMulDiv.acquire(c.cycle, 1) {
			return false
		}
		d.state = stIssued
		d.readyAt = c.cycle + latIntMul
	case isa.ClassIntDiv:
		if !c.intMulDiv.acquire(c.cycle, latIntDiv) {
			return false
		}
		d.state = stIssued
		d.readyAt = c.cycle + latIntDiv
	default:
		d.state = stIssued
		d.readyAt = c.cycle + 1
	}
	if c.flight != nil {
		c.flight.noteIssue(d.in.Seq)
	}
	return true
}

// issueFP starts an FP instruction.
func (c *CPU) issueFP(d *dynInst) bool {
	switch d.in.Cls {
	case isa.ClassFPALU:
		// FPALU pool is pipelined; modeled as an issue-width-limited
		// pool per cycle.
		d.state = stIssued
		d.readyAt = c.cycle + latFPALU
	case isa.ClassFPMul:
		if !c.fpMulDiv.acquire(c.cycle, 1) {
			return false
		}
		d.state = stIssued
		d.readyAt = c.cycle + latFPMul
	case isa.ClassFPDiv:
		if !c.fpMulDiv.acquire(c.cycle, latFPDiv) {
			return false
		}
		d.state = stIssued
		d.readyAt = c.cycle + latFPDiv
	default:
		d.state = stIssued
		d.readyAt = c.cycle + 1
	}
	if c.flight != nil {
		c.flight.noteIssue(d.in.Seq)
	}
	return true
}

// loadBlock classifies why tryPerformLoad could not perform a load
// this cycle. The wakeup scheduler parks the load on the matching
// event; the legacy walk ignores the value and rechecks every cycle.
type loadBlock uint8

const (
	loadPerformed loadBlock = iota
	loadNotPlaced           // waiting for the AddrBuffer drain
	loadReadyBit            // an older store's address is unknown
	loadFwdWait             // the forwarding source store has not performed
	loadNoPort              // Dcache ports exhausted this cycle
)

// tryPerformLoad attempts the memory access of a load whose address is
// known: it must be placed in the LSQ, its readyBit must be set (no
// older store with an unknown address) and a Dcache port must be free
// unless the data is forwarded.
func (c *CPU) tryPerformLoad(d *dynInst, dports *int) loadBlock {
	if d.performed || !d.placed {
		if d.performed {
			return loadPerformed
		}
		return loadNotPlaced
	}
	if c.minUnknownStore() < d.in.Seq {
		return loadReadyBit // readyBit clear: an older store address is unknown
	}
	if src, ok := c.model.ForwardingSource(d.in.Seq); ok {
		// Forward once the store's data is available.
		if st := c.findROB(src); st != nil && !st.performed {
			return loadFwdWait
		}
		d.performed = true
		d.state = stDone
		d.readyAt = c.cycle + latFwd
		c.res.ForwardedLoads++
		c.model.NotePerformed(d.in.Seq)
		c.wakeWaiters(d)
		return loadPerformed
	}
	if *dports <= 0 {
		return loadNoPort
	}
	*dports--
	d.performed = true
	c.model.NotePerformed(d.in.Seq)

	plan := c.model.Plan(d.in.Seq)
	var lat int
	if plan.WayKnown {
		c.meter.DcacheWayKnown()
		l, ok := c.hier.DataDirect(d.in.Addr, plan.Set, plan.Way, false)
		if !ok {
			panic("cpu: way-known load access missed (presentBit protocol violated)")
		}
		lat = l - plan.LatencyBonus
		if lat < 1 {
			lat = 1
		}
		if !plan.TLBCached {
			c.meter.DTLBLookup()
			if hit, tl := c.dtlb.Lookup(d.in.Addr); !hit {
				lat += tl
			}
		}
	} else {
		var tlbLat int
		if !plan.TLBCached {
			c.meter.DTLBLookup()
			if hit, tl := c.dtlb.Lookup(d.in.Addr); !hit {
				tlbLat = tl
			}
		}
		c.meter.DcacheFull()
		res := c.hier.Data(d.in.Addr, false)
		c.handleEviction(res.L1.Evicted, res.L1.EvictedHadPB)
		c.model.RecordAccess(d.in.Seq, res.L1.Set, res.L1.Way, tlb.VPN(d.in.Addr))
		c.hier.L1D.SetPresentBit(res.L1.Set, res.L1.Way)
		lat = res.Latency + tlbLat
	}
	d.state = stDone
	d.readyAt = c.cycle + uint64(lat)
	c.wakeWaiters(d)
	return loadPerformed
}

// ---- Dispatch ----------------------------------------------------------------

//samie:hotpath
func (c *CPU) dispatch() {
	n := 0
	stalled := false
	for n < c.cfg.DecodeWidth && c.fetchQ.len() > 0 {
		d := c.fetchQ.front()
		if c.dispatchFull(d) {
			stalled = true
			break
		}
		if d.isMem() && !c.model.Dispatch(d.in.Seq, d.in.Cls == isa.ClassLoad) {
			stalled = true
			break
		}
		// Rename: bind producers.
		d.srcA, d.srcB = nil, nil
		if d.in.SrcA != isa.RegNone {
			w := c.lastWriter[d.in.SrcA]
			d.srcA, d.genA = w.d, w.gen
		}
		if d.in.SrcB != isa.RegNone {
			w := c.lastWriter[d.in.SrcB]
			d.srcB, d.genB = w.d, w.gen
		}
		if d.in.Dest != isa.RegNone {
			c.lastWriter[d.in.Dest] = writerRef{d: d, gen: d.gen}
		}
		if d.in.Cls == isa.ClassStore {
			d.addrUnknown = true
			c.unknownCount++
			if c.minUnknownOK && d.in.Seq < c.minUnknownSeq {
				// Only possible when the cached frontier was "none"
				// (^0): the new store becomes the frontier.
				c.minUnknownSeq = d.in.Seq
			}
		}
		if d.in.Cls == isa.ClassLoad {
			c.res.Loads++
		} else if d.in.Cls == isa.ClassStore {
			c.res.Stores++
		}
		d.state = stDispatched
		if d.fp {
			c.iqFP++
		} else {
			c.iqInt++
		}
		if c.robNextSeq != 0 && c.rob.len() > 0 && d.in.Seq != c.robNextSeq {
			panic("cpu: instruction stream delivered non-consecutive sequence numbers")
		}
		c.robNextSeq = d.in.Seq + 1
		c.rob.pushBack(d)
		if c.ev != nil {
			c.schedAdmit(d)
		} else {
			//lint:ignore hotalloc active is preallocated to ROBSize, the max in flight
			c.active = append(c.active, d)
		}
		c.fetchQ.popFront()
		n++
	}
	if stalled {
		c.res.DispatchStalls++
	}
}

// dispatchFull reports whether d cannot dispatch for want of a ROB or
// issue-queue slot.
func (c *CPU) dispatchFull(d *dynInst) bool {
	if c.rob.len() >= c.cfg.ROBSize {
		return true
	}
	if d.fp {
		return c.iqFP >= c.cfg.IQFP
	}
	return c.iqInt >= c.cfg.IQInt
}

// ---- Fetch --------------------------------------------------------------------

// fetchStalled counts and reports a cycle in which fetch is blocked by
// an unresolved mispredict or a redirect/miss delay.
func (c *CPU) fetchStalled() bool {
	if c.cycle >= c.fetchBlockedUntil && c.blockingBranch == nil {
		return false
	}
	c.res.FetchStallCycles++
	if c.blockingBranch != nil {
		c.res.FetchStallBranch++
	} else {
		c.res.FetchStallOther++
	}
	return true
}

//samie:hotpath
func (c *CPU) fetch() {
	if c.fetchStalled() {
		return
	}
	n := 0
	for n < c.cfg.FetchWidth && c.fetchQ.len() < c.cfg.FetchQueue {
		d := c.nextInst()
		if d == nil {
			return
		}
		// Instruction cache: one lookup per new line.
		lineAddr := d.in.PC &^ 31
		if lineAddr != c.lastFetchLine {
			c.lastFetchLine = lineAddr
			if hit, _ := c.itlb.Lookup(d.in.PC); !hit {
				c.fetchBlockedUntil = c.cycle + uint64(c.itlb.Config().MissPenalty)
			}
			if lat := c.hier.Inst(d.in.PC); lat > c.hier.L1I.Config().HitLatency {
				c.fetchBlockedUntil = c.cycle + uint64(lat)
				c.fetchQ.pushBack(d)
				return
			}
		}
		if d.in.Cls == isa.ClassBranch {
			d.pred = c.bp.Predict(d.in.PC)
			d.predMade = true
			c.res.BranchLookups++
			wrongDir := d.pred.Taken != d.in.Taken
			wrongTgt := d.in.Taken && (d.pred.Target == 0 || d.pred.Target != d.in.Target)
			d.mispredict = wrongDir || wrongTgt
			c.fetchQ.pushBack(d)
			n++
			if d.mispredict {
				// Fetch chases the wrong path until the branch resolves.
				c.blockingBranch = d
				return
			}
			if d.pred.Taken {
				// A correctly predicted taken branch ends the fetch
				// group.
				return
			}
			continue
		}
		c.fetchQ.pushBack(d)
		n++
	}
}

// nextInst pulls the next instruction, preferring flushed instructions
// awaiting replay.
func (c *CPU) nextInst() *dynInst {
	if c.replayQ.len() > 0 {
		return c.replayQ.popFront()
	}
	if c.streamDone {
		return nil
	}
	if !c.strm.Next(&c.nextScratch) {
		c.streamDone = true
		return nil
	}
	return c.allocInst(c.nextScratch)
}
