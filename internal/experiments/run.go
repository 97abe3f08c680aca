// Package experiments contains one harness per table and figure of
// the paper's evaluation (the figure table in figtable.go indexes the
// figures; tables.go holds the static tables). Each harness runs the
// necessary simulations and returns a result struct that renders to
// the same rows/series the paper reports.
//
// Harnesses execute through a shared Batch: a memoizing scheduler
// (internal/experiments/engine) that keys every RunSpec canonically
// and runs each distinct simulation exactly once per batch, however
// many figures request it. Figure 5/6, the energy figures and Compare
// all share the same conventional/SAMIE pair per benchmark, so a
// whole-suite batch executes a fraction of the naive run count.
//
// Simulation length is configurable: the paper simulates 100M
// instructions per benchmark after warm-up; these harnesses default to
// a smaller, deterministic sample that preserves the qualitative
// shape, and accept larger counts for higher-fidelity runs.
package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"samielsq/internal/core"
	"samielsq/internal/cpu"
	"samielsq/internal/energy"
	"samielsq/internal/experiments/engine"
	"samielsq/internal/lsq"
	"samielsq/internal/mem"
	"samielsq/internal/obs"
	"samielsq/internal/tlb"
	"samielsq/internal/trace"
)

// DefaultInsts is the default per-benchmark instruction budget for the
// experiment harnesses.
const DefaultInsts = 300_000

// ModelKind selects the LSQ organization for a run.
type ModelKind int

// Supported LSQ organizations.
const (
	ModelConventional ModelKind = iota
	ModelUnbounded
	ModelARB
	ModelSAMIE
)

// modelNames is the one table of LSQ model names, indexed by kind: the
// wire "model" field, samie-sim -model and the telemetry labels all
// read it. Cache keys render the kind as a number, never a name.
var modelNames = [...]string{
	ModelConventional: "conventional",
	ModelUnbounded:    "unbounded",
	ModelARB:          "arb",
	ModelSAMIE:        "samie",
}

// ModelName returns the name of kind m.
func ModelName(m ModelKind) string {
	if m < 0 || int(m) >= len(modelNames) {
		return fmt.Sprintf("model-%d", int(m))
	}
	return modelNames[m]
}

// ParseModel maps a model name to its kind.
func ParseModel(s string) (ModelKind, error) {
	if i := slices.Index(modelNames[:], s); i >= 0 {
		return ModelKind(i), nil
	}
	return 0, fmt.Errorf("unknown model %q (want %s or %s)",
		s, strings.Join(modelNames[:ModelSAMIE], ", "), modelNames[ModelSAMIE])
}

// RunSpec describes one simulation.
type RunSpec struct {
	Benchmark string
	Insts     uint64
	Warmup    uint64 // warm-up instructions before measurement; default Insts/2
	Model     ModelKind

	// Conventional.
	ConvEntries int // default 128

	// ARB geometry.
	ARBBanks, ARBAddrs, ARBInflight int

	// SAMIE configuration; zero value means core.PaperConfig().
	SAMIE *core.Config

	// CPU overrides; zero value means cpu.PaperConfig().
	CPU *cpu.Config
}

// RunResult bundles everything a harness needs from one simulation.
// Results delivered through a Batch are shared between consumers:
// treat the Meter and stats as read-only. A result keeps no simulator
// state: the memory hierarchy, predictor and LSQ model die with the run.
type RunResult struct {
	// Key is the canonical cache key of Spec (see Key). It is rendered
	// once, where the result is produced, so consumers such as the
	// server's responses never render it again.
	Key   string
	Spec  RunSpec
	CPU   cpu.Result
	Meter *energy.Meter
	SAMIE core.Stats         // populated for ModelSAMIE
	Conv  lsq.OccupancyStats // populated for ModelConventional

	// Phases is where the wall-clock went materializing this result
	// (see internal/obs.Phase). It describes the process and tier that
	// produced the result — a disk-served result reports only the
	// lookup phases — and is observability metadata, not simulation
	// output: it is excluded from disk artifacts and determinism
	// comparisons.
	Phases obs.PhaseTimes

	// Timeline is the run's interval telemetry (occupancy, IPC,
	// per-structure energy deltas; see obs.IntervalSampler). Like
	// Phases it is observability metadata outside the deterministic
	// payload: excluded from disk artifacts, so only results this
	// process simulated carry one — disk- and peer-served results
	// report nil.
	Timeline *obs.Timeline
}

// LSQEnergyNJ returns the headline LSQ dynamic energy in nJ: the
// conventional LSQ's or the SAMIE structures' total, whichever the
// model accounts.
func (r RunResult) LSQEnergyNJ() float64 {
	if r.Meter == nil {
		return 0
	}
	return (r.Meter.ConvLSQ + r.Meter.SAMIETotal()) / 1e3
}

// Normalize fills the spec's defaults and zeroes every field the
// selected model ignores, so two specs describing the same simulation
// canonicalize to the same value. The SAMIE and CPU pointers are
// materialized to concrete configurations.
func Normalize(spec RunSpec) RunSpec {
	if spec.Insts == 0 {
		spec.Insts = DefaultInsts
	}
	if spec.Warmup == 0 {
		spec.Warmup = spec.Insts / 2
	}
	ccfg := cpu.PaperConfig()
	if spec.CPU != nil {
		ccfg = *spec.CPU
	}
	spec.CPU = &ccfg

	switch spec.Model {
	case ModelConventional:
		if spec.ConvEntries == 0 {
			spec.ConvEntries = 128
		}
		spec.ARBBanks, spec.ARBAddrs, spec.ARBInflight = 0, 0, 0
		spec.SAMIE = nil
	case ModelUnbounded:
		spec.ConvEntries = 0
		spec.ARBBanks, spec.ARBAddrs, spec.ARBInflight = 0, 0, 0
		spec.SAMIE = nil
	case ModelARB:
		spec.ConvEntries = 0
		spec.SAMIE = nil
	case ModelSAMIE:
		spec.ConvEntries = 0
		spec.ARBBanks, spec.ARBAddrs, spec.ARBInflight = 0, 0, 0
		scfg := core.PaperConfig()
		if spec.SAMIE != nil {
			scfg = *spec.SAMIE
		}
		spec.SAMIE = &scfg
	default:
		panic("experiments: unknown model kind")
	}
	return spec
}

// Key returns the canonical cache key for a spec: two specs share a
// key exactly when they describe the same simulation.
//
//samie:deterministic
func Key(spec RunSpec) string { return keyOf(Normalize(spec)) }

// keyOf renders the key of an already-normalized spec. The bytes equal
// the fmt rendering
//
//	"b=%s|m=%d|i=%d|w=%d|conv=%d|arb=%d.%d.%d|samie=%+v|cpu=%+v"
//
// over the spec fields and the two configurations, so a key spells out
// every core.Config and cpu.Config field by name; keys name artifacts
// on disk and place keys on the cluster's rendezvous ring.
// TestKeyMatchesFmtRendering fails when a field is missed.
func keyOf(n RunSpec) string {
	var s core.Config
	if n.SAMIE != nil {
		s = *n.SAMIE
	}
	c := n.CPU
	b := make([]byte, 0, 512)
	b = append(b, "b="...)
	b = append(b, n.Benchmark...)
	b = appendKeyInt(b, "|m=", int(n.Model))
	b = append(b, "|i="...)
	b = strconv.AppendUint(b, n.Insts, 10)
	b = append(b, "|w="...)
	b = strconv.AppendUint(b, n.Warmup, 10)
	b = appendKeyInt(b, "|conv=", n.ConvEntries)
	b = appendKeyInt(b, "|arb=", n.ARBBanks)
	b = appendKeyInt(b, ".", n.ARBAddrs)
	b = appendKeyInt(b, ".", n.ARBInflight)

	b = appendKeyInt(b, "|samie={Banks:", s.Banks)
	b = appendKeyInt(b, " EntriesPerBank:", s.EntriesPerBank)
	b = appendKeyInt(b, " SlotsPerEntry:", s.SlotsPerEntry)
	b = appendKeyInt(b, " SharedEntries:", s.SharedEntries)
	b = appendKeyInt(b, " AddrBufferSlots:", s.AddrBufferSlots)
	b = appendKeyInt(b, " LineBytes:", s.LineBytes)
	b = appendKeyBool(b, " SharedUnbounded:", s.SharedUnbounded)
	b = appendKeyBool(b, " DisableWayCaching:", s.DisableWayCaching)
	b = appendKeyBool(b, " DisableTLBCaching:", s.DisableTLBCaching)
	b = appendKeyBool(b, " FastWayKnown:", s.FastWayKnown)

	b = appendKeyInt(b, "}|cpu={FetchWidth:", c.FetchWidth)
	b = appendKeyInt(b, " DecodeWidth:", c.DecodeWidth)
	b = appendKeyInt(b, " IssueInt:", c.IssueInt)
	b = appendKeyInt(b, " IssueFP:", c.IssueFP)
	b = appendKeyInt(b, " CommitWidth:", c.CommitWidth)
	b = appendKeyInt(b, " FetchQueue:", c.FetchQueue)
	b = appendKeyInt(b, " ROBSize:", c.ROBSize)
	b = appendKeyInt(b, " IQInt:", c.IQInt)
	b = appendKeyInt(b, " IQFP:", c.IQFP)
	b = appendKeyInt(b, " IntALU:", c.IntALU)
	b = appendKeyInt(b, " IntMulDiv:", c.IntMulDiv)
	b = appendKeyInt(b, " FPALU:", c.FPALU)
	b = appendKeyInt(b, " FPMulDiv:", c.FPMulDiv)
	b = appendKeyInt(b, " DcachePorts:", c.DcachePorts)
	b = appendKeyInt(b, " MispredictPenalty:", c.MispredictPenalty)
	b = appendKeyInt(b, " DeadlockPatience:", c.DeadlockPatience)
	b = append(b, '}')
	return string(b)
}

// appendKeyInt appends label and v in decimal, as %d and %+v render it.
func appendKeyInt(b []byte, label string, v int) []byte {
	return strconv.AppendInt(append(b, label...), int64(v), 10)
}

// appendKeyBool appends label and v as %+v renders it.
func appendKeyBool(b []byte, label string, v bool) []byte {
	return strconv.AppendBool(append(b, label...), v)
}

// Run executes one simulation per the spec, bypassing any cache. Use a
// Batch to share and memoize runs across harnesses. A spec ValidateSpec
// rejects panics with the validation error.
func Run(spec RunSpec) RunResult {
	n, err := ValidateSpec(spec)
	if err != nil {
		panic(fmt.Sprintf("experiments: invalid run spec: %v", err))
	}
	return runNormalized(n, keyOf(n))
}

// runNormalized executes an already-normalized spec whose key is key,
// recording the warmup/measured wall-clock split into the result's
// Phases.
func runNormalized(spec RunSpec, key string) RunResult {
	p := trace.MustPersonality(spec.Benchmark)
	meter := energy.NewMeter()

	var model lsq.Model
	var samie *core.SAMIE
	var conv *lsq.Conventional
	switch spec.Model {
	case ModelConventional:
		conv = lsq.NewConventional(spec.ConvEntries, meter)
		model = conv
	case ModelUnbounded:
		model = lsq.NewUnbounded()
	case ModelARB:
		model = lsq.NewARB(spec.ARBBanks, spec.ARBAddrs, spec.ARBInflight)
	case ModelSAMIE:
		samie = core.New(*spec.SAMIE, meter)
		model = samie
	}

	c := cpu.New(*spec.CPU, trace.SharedStream(p), model, mem.NewPaper(), tlb.New(tlb.PaperDTLB()), nil, meter)
	// Every fresh simulation carries interval telemetry: the sampler
	// fires once per stride (default every 4096 cycles), so its cost
	// is unmeasurable against the simulation itself, and the samples
	// never feed back into architectural or metered state.
	sampler := obs.NewIntervalSampler(0, 0)
	c.SetSampler(sampler)
	res := RunResult{Key: key, Spec: spec, Meter: meter}
	var warmDur, measDur time.Duration
	res.CPU, warmDur, measDur = c.RunWarmTimed(spec.Warmup, spec.Insts)
	res.Phases.Set(obs.PhaseWarmup, warmDur)
	res.Phases.Set(obs.PhaseMeasured, measDur)
	res.Timeline = sampler.Snapshot()
	if samie != nil {
		res.SAMIE = samie.Stats()
	}
	if conv != nil {
		res.Conv = conv.Occupancy()
	}
	return res
}

// Batch is a shared simulation run: a memoizing scheduler over
// canonically-keyed RunSpecs with a bounded worker pool. All harness
// methods on a Batch share one run cache, so a spec requested by
// several figures simulates exactly once. A Batch is safe for
// concurrent use; results are deterministic regardless of worker
// count.
type Batch struct {
	sched *engine.Scheduler[string, RunResult]
	disk  *DiskCache

	// Tier-2 peer-fetch backend (see store.go); nil disables the tier.
	peer                               atomic.Pointer[peerBox]
	peerHits, peerMisses, peerInstalls atomic.Int64
	peerFetch                          *obs.Histogram

	// phase holds one latency histogram per obs.Phase, fed by jobFor.
	phase [obs.NumPhases]*obs.Histogram

	// Telemetry rollups fed at simulate time (timeline.go): occupancy
	// aggregates per benchmark, simulated dynamic energy per structure,
	// and a bounded retention of raw timelines for -timeline-out.
	occMu     sync.Mutex
	occ       map[string]*obs.OccupancyAgg
	energyPJ  map[string]float64
	timelines []RunTimeline
}

// NewBatch returns a batch bounded to `workers` concurrent
// simulations; workers <= 0 means GOMAXPROCS.
func NewBatch(workers int) *Batch {
	b := &Batch{
		sched:     engine.New[string, RunResult](workers),
		peerFetch: obs.NewHistogram(fetchBuckets),
		occ:       map[string]*obs.OccupancyAgg{},
		energyPJ:  map[string]float64{},
	}
	for i := range b.phase {
		b.phase[i] = obs.NewHistogram(obs.PhaseBuckets)
	}
	return b
}

// NewBatchWithCache is NewBatch plus a disk spill: results are served
// from (and persisted to) cacheDir, content-addressed by the canonical
// spec key, so finished simulations are reused across processes — not
// just within one batch.
func NewBatchWithCache(workers int, cacheDir string) (*Batch, error) {
	d, err := NewDiskCache(cacheDir)
	if err != nil {
		return nil, err
	}
	b := NewBatch(workers)
	b.disk = d
	return b, nil
}

// Run returns the memoized result for spec, simulating it only if this
// batch has not seen an equivalent spec before — consulting the disk
// cache first when one is attached. A spec ValidateSpec rejects panics
// with the validation error; RunCtx returns it instead.
func (b *Batch) Run(spec RunSpec) RunResult {
	n, err := ValidateSpec(spec)
	if err != nil {
		panic(fmt.Sprintf("experiments: invalid run spec: %v", err))
	}
	key := keyOf(n)
	return b.sched.Do(key, b.jobFor(context.Background(), n, key))
}

// RunCtx is Run with cancellation: a caller that goes away while its
// simulation is still queued (not yet started, not shared with another
// caller) withdraws it instead of occupying a worker slot. A started
// or shared simulation runs to completion — its result is memoized for
// everyone — and only this caller's wait is abandoned. An error is
// either ValidateSpec's verdict on spec, returned before anything is
// queued or memoized, or this caller's own context error: coalescing
// onto a job whose owner canceled is retried transparently while ctx
// stays live.
func (b *Batch) RunCtx(ctx context.Context, spec RunSpec) (RunResult, error) {
	n, err := ValidateSpec(spec)
	if err != nil {
		return RunResult{}, err
	}
	key := keyOf(n)
	for {
		r, err := b.sched.DoCtx(ctx, key, b.jobFor(ctx, n, key))
		if err == nil {
			return r, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return RunResult{}, cerr
		}
		// The error was another caller's: we coalesced onto a queued
		// job whose owner disconnected and withdrew it. Our context is
		// still live, so re-request — the key is free again.
	}
}

// jobFor builds the memoized execution closure for a normalized spec:
// the tiered-store walk. The closure runs inside the singleflight
// owner, so concurrent misses on one key coalesce into a single disk
// read, a single peer fetch, or a single simulation. ctx is the
// owning request's context; it bounds the peer probe (the simulation
// itself ignores it — engine jobs run to completion once started).
// A tier-served result reclassifies the job as a scheduler hit, so
// engine Executed keeps counting simulations this process performed.
//
// The closure attributes its wall-clock to obs phases (queue-wait
// from jobFor construction to closure start, then one phase per tier
// touched) onto both the result's Phases block and the batch's phase
// histograms, and opens child spans on the owner's trace so a traced
// request shows where each run's time went.
func (b *Batch) jobFor(ctx context.Context, n RunSpec, key string) func() RunResult {
	enqueued := time.Now()
	return func() RunResult {
		var pt obs.PhaseTimes
		observe := func(p obs.Phase, d time.Duration) {
			pt.Set(p, d)
			b.phase[p].Observe(d)
		}
		observe(obs.PhaseQueueWait, time.Since(enqueued))
		runCtx, span := obs.StartSpan(ctx, "run")
		span.SetAttr("benchmark", n.Benchmark)
		span.SetAttr("key", key)
		defer span.End()

		if b.disk != nil {
			start := time.Now()
			_, dspan := obs.StartSpan(runCtx, "tier.disk")
			r, ok := b.disk.load(key)
			dspan.End()
			observe(obs.PhaseDiskTier, time.Since(start))
			if ok {
				span.SetAttr("tier", "disk")
				r.Spec = n
				r.Phases = pt
				b.sched.NoteExternalHit()
				return r
			}
		}
		if p := b.PeerStore(); p != nil {
			start := time.Now()
			peerCtx, pspan := obs.StartSpan(runCtx, "tier.peer")
			r, ok := p.Fetch(peerCtx, key)
			pspan.End()
			d := time.Since(start)
			b.peerFetch.Observe(d)
			observe(obs.PhasePeerTier, d)
			if ok {
				span.SetAttr("tier", "peer")
				b.peerHits.Add(1)
				// The wire carries no spec; restore the identity the
				// caller asked for, exactly like a disk-served result.
				r.Key, r.Spec = key, n
				if b.disk != nil {
					start := time.Now()
					b.disk.store(key, r)
					observe(obs.PhasePersist, time.Since(start))
					b.peerInstalls.Add(1)
				}
				r.Phases = pt
				b.sched.NoteExternalHit()
				return r
			}
			b.peerMisses.Add(1)
		}
		span.SetAttr("tier", "simulate")
		simStart := time.Now()
		_, sspan := obs.StartSpan(runCtx, "simulate")
		r := runNormalized(n, key)
		sspan.End()
		b.noteSimulated(runCtx, n, r, simStart, time.Since(simStart))
		b.phase[obs.PhaseWarmup].Observe(time.Duration(r.Phases.Warmup * float64(time.Second)))
		b.phase[obs.PhaseMeasured].Observe(time.Duration(r.Phases.Measured * float64(time.Second)))
		pt.Warmup, pt.Measured = r.Phases.Warmup, r.Phases.Measured
		if b.disk != nil {
			start := time.Now()
			b.disk.store(key, r)
			observe(obs.PhasePersist, time.Since(start))
		}
		r.Phases = pt
		return r
	}
}

// Disk returns the attached disk cache, or nil.
func (b *Batch) Disk() *DiskCache { return b.disk }

// Close releases nothing and returns nil: the disk cache holds no
// state beyond its directory. It is kept for callers that still close
// their batch.
func (b *Batch) Close() error { return nil }

// PreloadDisk installs every valid artifact in the disk cache directory
// into the batch's in-memory run cache, so a long-lived batch (a
// service) starts warm without re-reading artifacts on first request.
// It scans the run-*.bin files in file-name order (deterministic),
// skipping any that fail to decode or validate or that sit under a name
// other than their key's content address; artifacts every process
// sharing the directory wrote are covered. Returns how many results
// were installed. Preloading counts toward neither the engine request
// stats nor the disk traffic counters.
func (b *Batch) PreloadDisk() (int, error) {
	if b.disk == nil {
		return 0, fmt.Errorf("experiments: batch has no disk cache to preload from")
	}
	files, err := filepath.Glob(filepath.Join(b.disk.dir, "run-*.bin"))
	if err != nil {
		return 0, fmt.Errorf("experiments: disk cache scan: %w", err)
	}
	n := 0
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		art, err := artifactCodec.decode(data)
		if err != nil || !validArtifact(&art, art.Key) || b.disk.path(art.Key) != f {
			continue
		}
		if b.sched.Offer(art.Key, art.result()) {
			n++
		}
	}
	return n, nil
}

// DiskStats reports the attached disk cache's traffic; the zero value
// when the batch has no disk cache.
func (b *Batch) DiskStats() DiskCacheStats {
	if b.disk == nil {
		return DiskCacheStats{}
	}
	return b.disk.Stats()
}

// SetCacheLimit bounds the in-memory run cache to the n most recently
// requested results (LRU); n <= 0 removes the bound. Evicted specs
// re-simulate (or reload from the disk cache) on the next request.
// Intended for long-lived batches such as services.
func (b *Batch) SetCacheLimit(n int) { b.sched.SetLimit(n) }

// Stats returns the batch's scheduler accounting: how many runs were
// requested, how many actually simulated, and how many were served
// from the cache or coalesced onto an in-flight simulation.
func (b *Batch) Stats() engine.Stats { return b.sched.Stats() }

// DistinctRuns returns the number of distinct specs the batch has
// seen.
func (b *Batch) DistinctRuns() int { return b.sched.Len() }

// Workers returns the batch's concurrency bound.
func (b *Batch) Workers() int { return b.sched.Workers() }

// Benchmarks returns the benchmark list (re-exported for cmd tools).
func Benchmarks() []string { return trace.Benchmarks() }
