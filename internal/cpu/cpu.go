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
// docs/performance.md): every in-flight instruction lives in one
// seq-indexed window allocated by New, fetch decodes straight into its
// slot, and the ROB, fetch queue and re-fetch queue are cursor ranges
// over it, so queue moves and in-flight lookups are index arithmetic.
// This requires streams to deliver consecutive sequence numbers from 0
// (isa.Stream's contract); decode panics on any other.
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
)

// noSeq is "no instruction" wherever a seq names one: a ready operand,
// an empty waiter list or wheel bucket, no blocking branch.
const noSeq = ^uint64(0)

// dynInst is one in-flight dynamic instruction: a window slot, reset
// when fetch decodes the next instruction with the same seq & mask.
// It names other instructions by seq, never by pointer. The byte-sized
// fields come last, so a slot is 128 bytes: two cache lines.
type dynInst struct {
	in isa.Inst

	// Producer seqs bound at rename (noSeq = ready). A producer below
	// the window head has committed, so its value is ready; one
	// observed done is severed to noSeq.
	srcA, srcB uint64

	readyAt uint64 // cycle the result becomes available (once issued)

	pred bpred.Prediction

	// Wakeup-scheduler links (sched.go), seqs ending in noSeq:
	// waiterHead heads the list of consumers parked on this producer
	// (chained through their waitNext); wheelNext and wakeCycle place
	// it in a timing-wheel bucket. Dispatch empties the waiter list;
	// parking writes the other links before they are read. A committed
	// instruction never carries live links: its waiter list drains at
	// the stDone transition, which precedes any commit.
	waiterHead uint64
	waitNext   uint64
	wheelNext  uint64
	wakeCycle  uint64

	state instState

	// Class lanes, precomputed at decode: the issue stage consults them
	// on every visit to the instruction.
	mem bool
	fp  bool

	// Memory state.
	placed      bool
	performed   bool
	addrUnknown bool // store dispatched, address not yet computed
}

// producerDone reports whether producer seq p's value is available.
// Only a producer in the ROB can still be outstanding: one below head
// has committed, and noSeq is no instruction.
func (c *CPU) producerDone(p uint64) bool {
	if !c.win.inROB(p) {
		return true
	}
	d := c.win.at(p)
	return d.state >= stDone && d.readyAt <= c.cycle
}

// dataReady reports whether a store's data operand is available.
func (c *CPU) dataReady(d *dynInst) bool {
	if d.srcB != noSeq {
		if !c.producerDone(d.srcB) {
			return false
		}
		d.srcB = noSeq
	}
	return true
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

	cycle uint64
	win   window // every in-flight instruction: ROB, fetch and re-fetch queues
	iqInt int
	iqFP  int

	// lastWriter holds the seq of each register's last renamed writer,
	// or noSeq.
	lastWriter [isa.NumLogicalRegs]uint64

	intMulDiv *fuPool
	fpMulDiv  *fuPool

	// readyBit frontier: stores dispatched whose address is still
	// uncomputed, tracked on the instructions themselves plus a count
	// and a monotone min-seq cursor (recomputed lazily by a forward
	// ROB scan from the previous frontier).
	unknownCount  int
	minUnknownSeq uint64 // last computed frontier; ^0 when none
	minUnknownOK  bool

	pendingAgens      int // memory AGENs issued, address not yet delivered
	fetchBlockedUntil uint64
	blockingBranch    uint64 // seq of the mispredicted branch gating fetch, or noSeq
	lastFetchLine     uint64

	headBlocked int // consecutive cycles the ROB head sat unplaced

	// tickIdle records that the last Model.Tick placed nothing, so by
	// the Tick contract none will until the next Commit or Flush.
	tickIdle bool

	// warming is set during RunWarmTimed's warm-up, whose model
	// statistics are reset unread: accountCycles skips them.
	warming bool

	streamDone bool

	// ev is the event-driven wakeup scheduler (sched.go), the issue
	// stage, whose links are seqs into win. Only the test-only ROB-walk
	// oracle clears it; step then runs testHookIssue instead.
	ev *eventSched

	// sampler is the optional interval telemetry collector
	// (telemetry.go); nil unless attached, costing one nil check per cycle.
	sampler  *obs.IntervalSampler
	sampBase sampleBase

	res Result
}

// testHookIssue is the issue stage step runs for a CPU without a
// wakeup scheduler. Only a test assigns it: the ROB-walk oracle that
// TestSchedulerDifferential holds the scheduler to. It takes the free
// Dcache ports by value (nothing after the issue stage reads them): a
// pointer passed through a function value escapes, which would cost
// step a heap allocation per cycle.
var testHookIssue func(c *CPU, dports int)

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
		win:       newWindow(cfg.ROBSize + cfg.FetchQueue),
		ev:        newEventSched(cfg.ROBSize),
	}
	c.blockingBranch = noSeq
	c.clearWriters()
	return c
}

// Meter returns the energy meter.
func (c *CPU) Meter() *energy.Meter { return c.meter }

func (c *CPU) clearWriters() {
	for i := range c.lastWriter {
		c.lastWriter[i] = noSeq
	}
}

// RunWarmTimed simulates warmInsts instructions to warm the caches,
// TLBs and predictor (as the paper does before measuring), resets every
// statistic, then simulates and reports measureInsts more. It also
// reports how long the warmup and measured portions each took on the
// host, so the profiling layer can split a run's simulation time into
// its phases.
func (c *CPU) RunWarmTimed(warmInsts, measureInsts uint64) (Result, time.Duration, time.Duration) {
	var warmDur time.Duration
	if warmInsts > 0 {
		start := time.Now()
		c.warming = true
		c.Run(warmInsts)
		c.warming = false
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
		if c.streamDone && c.win.head == c.win.tail {
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
		c.accountCycles(1)
		c.endOfCycleTelemetry()
		return
	}
	c.drainAddrBuffer()
	if c.ev != nil {
		c.wakeupIssue(&dports)
	} else {
		testHookIssue(c, dports)
	}
	c.dispatch()
	c.fetch()
	c.accountCycles(1)
	c.endOfCycleTelemetry()
}

// accountCycles charges n cycles to the LSQ model's statistics
// (Model.AccountCycles), except during warm-up: RunWarmTimed resets
// them unread, so warm-up cycles are not accounted at all.
//
//samie:hotpath
func (c *CPU) accountCycles(n uint64) {
	if !c.warming {
		c.model.AccountCycles(n)
	}
}

// ---- Commit ---------------------------------------------------------------

//samie:hotpath
func (c *CPU) commit(dports *int) {
	w := &c.win
	n := 0
	for n < c.cfg.CommitWidth && w.head < w.disp {
		d := w.at(w.head)
		if d.state < stDone || d.readyAt > c.cycle {
			if n == 0 {
				c.classifyHeadStall(d, 1)
			}
			break
		}
		if d.mem {
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
		w.head++
		c.res.Committed++
		n++
	}
}

// classifyHeadStall records why the ROB head could not commit for the
// last n cycles, over which its state did not change (profiling aid;
// no architectural effect).
func (c *CPU) classifyHeadStall(d *dynInst, n uint64) {
	switch {
	case d.state == stDispatched || d.state == stFetched:
		c.res.HeadWaitIssue += n
	case d.state == stIssued:
		c.res.HeadWaitExec += n
	case d.state == stAGENDone && !d.placed:
		c.res.HeadUnplaced += n
	case d.state == stAGENDone && d.in.Cls == isa.ClassLoad && !d.performed:
		if c.minUnknownStore() < d.in.Seq {
			c.res.HeadLoadReadyBit += n
		} else {
			c.res.HeadLoadNoPort += n
		}
	case d.state == stAGENDone && d.in.Cls == isa.ClassStore:
		c.res.HeadStoreWait += n
	case d.state == stDone && d.readyAt > c.cycle:
		if d.in.Cls == isa.ClassLoad {
			c.res.HeadLoadData += n
		} else {
			c.res.HeadWaitExec += n
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
	if c.win.head == c.win.disp {
		c.headBlocked = 0
		return false
	}
	if c.headStuck(c.win.at(c.win.head)) {
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
	return head.mem && !head.placed &&
		(head.state == stAGENDone ||
			(head.state == stDispatched && c.model.FreeCapacity() <= 0))
}

// flushPipeline resets every non-committed instruction and queues it
// for re-fetch in program order (the oldest instruction re-enters
// first, guaranteeing forward progress).
func (c *CPU) flushPipeline() {
	w := &c.win
	for seq := w.head; seq < w.tail; seq++ {
		d := w.at(seq)
		d.state = stFetched
		d.placed = false
		d.performed = false
		d.addrUnknown = false
		d.readyAt = 0
	}
	w.disp, w.fetched = w.head, w.head
	if c.ev != nil {
		c.ev.reset()
	}
	c.iqInt, c.iqFP = 0, 0
	c.clearWriters()
	c.intMulDiv.reset()
	c.fpMulDiv.reset()
	c.unknownCount = 0
	c.minUnknownSeq = 0
	c.minUnknownOK = false
	c.pendingAgens = 0
	c.model.Flush()
	c.blockingBranch = noSeq
	c.fetchBlockedUntil = c.cycle + uint64(c.cfg.MispredictPenalty)
	c.headBlocked = 0
}

// ---- LSQ buffer drain -------------------------------------------------------

//samie:hotpath
func (c *CPU) drainAddrBuffer() {
	placed := c.model.Tick()
	c.tickIdle = len(placed) == 0
	for _, seq := range placed {
		if d := c.findROB(seq); d != nil {
			d.placed = true
			if c.ev != nil {
				// The instruction was parked on placement: perform (or
				// complete) attempts resume this cycle.
				c.ev.attn.set(seq)
			}
		}
	}
}

// findROB locates a dispatched instruction by sequence number: a
// window slot, if seq is in the ROB range.
func (c *CPU) findROB(seq uint64) *dynInst {
	if !c.win.inROB(seq) {
		return nil
	}
	return c.win.at(seq)
}

// ---- Issue / execute / writeback -------------------------------------------

// minUnknownStore returns the lowest sequence number among stores with
// uncomputed addresses (^0 when none): the readyBit frontier. The
// frontier is monotone between flushes, so the lazy recompute resumes
// the ROB scan from the previous frontier instead of rescanning.
func (c *CPU) minUnknownStore() uint64 {
	if c.minUnknownOK {
		return c.minUnknownSeq
	}
	c.minUnknownOK = true
	w := &c.win
	if c.unknownCount == 0 || w.head == w.disp {
		c.minUnknownSeq = ^uint64(0)
		return c.minUnknownSeq
	}
	start := w.head
	if c.minUnknownSeq != ^uint64(0) && c.minUnknownSeq > start {
		start = c.minUnknownSeq
	}
	for seq := start; seq < w.disp; seq++ {
		if w.at(seq).addrUnknown {
			c.minUnknownSeq = seq
			return seq
		}
	}
	c.minUnknownSeq = ^uint64(0)
	return c.minUnknownSeq
}

// completeExec handles writeback for a finished instruction.
func (c *CPU) completeExec(d *dynInst) {
	if d.in.Cls == isa.ClassBranch {
		miss := c.bp.Resolve(d.in.PC, d.pred, d.in.Taken, d.in.Target)
		if miss {
			c.res.BranchMispredicts++
		}
		if c.blockingBranch == d.in.Seq {
			c.blockingBranch = noSeq
			c.fetchBlockedUntil = c.cycle + uint64(c.cfg.MispredictPenalty)
		}
		d.state = stDone
		c.wakeWaiters(d)
		return
	}
	if d.mem {
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
			// Waits in the model; drainAddrBuffer reports its placement.
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
	return true
}

// loadBlock classifies why tryPerformLoad could not perform a load
// this cycle. The wakeup scheduler parks the load on the matching
// event.
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
	w := &c.win
	n := 0
	stalled := false
	for n < c.cfg.DecodeWidth && w.disp < w.fetched {
		d := w.at(w.disp)
		if c.dispatchFull(d) {
			stalled = true
			break
		}
		if d.mem && !c.model.Dispatch(d.in.Seq, d.in.Cls == isa.ClassLoad) {
			stalled = true
			break
		}
		// Rename: bind producers.
		d.srcA, d.srcB = noSeq, noSeq
		if d.in.SrcA != isa.RegNone {
			d.srcA = c.lastWriter[d.in.SrcA]
		}
		if d.in.SrcB != isa.RegNone {
			d.srcB = c.lastWriter[d.in.SrcB]
		}
		if d.in.Dest != isa.RegNone {
			c.lastWriter[d.in.Dest] = d.in.Seq
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
		d.waiterHead = noSeq
		if d.fp {
			c.iqFP++
		} else {
			c.iqInt++
		}
		w.disp++
		if c.ev != nil {
			c.schedAdmit(d)
		}
		n++
	}
	if stalled {
		c.res.DispatchStalls++
	}
}

// dispatchFull reports whether d cannot dispatch for want of a ROB or
// issue-queue slot.
func (c *CPU) dispatchFull(d *dynInst) bool {
	if c.win.disp-c.win.head >= uint64(c.cfg.ROBSize) {
		return true
	}
	if d.fp {
		return c.iqFP >= c.cfg.IQFP
	}
	return c.iqInt >= c.cfg.IQInt
}

// ---- Fetch --------------------------------------------------------------------

// fetchStalled reports whether fetch is blocked this cycle by an
// unresolved mispredict or a redirect/miss delay, and if so counts the
// last n cycles, over which the block held, as stalled.
func (c *CPU) fetchStalled(n uint64) bool {
	if c.cycle >= c.fetchBlockedUntil && c.blockingBranch == noSeq {
		return false
	}
	c.res.FetchStallCycles += n
	if c.blockingBranch != noSeq {
		c.res.FetchStallBranch += n
	} else {
		c.res.FetchStallOther += n
	}
	return true
}

//samie:hotpath
func (c *CPU) fetch() {
	if c.fetchStalled(1) {
		return
	}
	for n := 0; n < c.cfg.FetchWidth && c.win.fetched-c.win.disp < uint64(c.cfg.FetchQueue); n++ {
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
				return
			}
		}
		if d.in.Cls != isa.ClassBranch {
			continue
		}
		d.pred = c.bp.Predict(d.in.PC)
		c.res.BranchLookups++
		wrongDir := d.pred.Taken != d.in.Taken
		wrongTgt := d.in.Taken && (d.pred.Target == 0 || d.pred.Target != d.in.Target)
		if wrongDir || wrongTgt {
			// Fetch chases the wrong path until the branch resolves.
			c.blockingBranch = d.in.Seq
			return
		}
		if d.pred.Taken {
			// A correctly predicted taken branch ends the fetch group.
			return
		}
	}
}

// nextInst moves the next instruction into the fetch queue and returns
// it: a flushed instruction awaiting re-fetch if there is one, else a
// new one, which the stream decodes straight into its window slot.
//
//samie:hotpath
func (c *CPU) nextInst() *dynInst {
	w := &c.win
	if w.fetched == w.tail {
		if c.streamDone {
			return nil
		}
		d := w.at(w.tail)
		*d = dynInst{}
		if !c.strm.Next(&d.in) {
			c.streamDone = true
			return nil
		}
		if d.in.Seq != w.tail {
			panic("cpu: instruction stream delivered non-consecutive sequence numbers")
		}
		d.mem, d.fp = d.in.Cls.IsMem(), d.in.Cls.IsFP()
		w.tail++
	}
	d := w.at(w.fetched)
	w.fetched++
	return d
}
