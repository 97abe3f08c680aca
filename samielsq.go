// Package samielsq is a from-scratch Go reproduction of
// "SAMIE-LSQ: Set-Associative Multiple-Instruction Entry Load/Store
// Queue" (Abella & González, IPDPS 2006).
//
// It bundles a cycle-level out-of-order CPU simulator, a memory
// hierarchy, branch prediction, a CACTI-3.0-style timing/energy/area
// model, the conventional and ARB baseline load/store queues, the
// SAMIE-LSQ itself, synthetic SPEC CPU2000 workload personalities, and
// one experiment harness per table and figure of the paper.
//
// Quick start:
//
//	res := samielsq.Compare("swim", 200_000)
//	fmt.Printf("IPC %.3f -> %.3f, LSQ energy saving %.0f%%\n",
//		res.Conventional.IPC, res.SAMIE.IPC, res.LSQSavingPct)
//
// The experiment harnesses regenerate the paper's evaluation through a
// shared batch:
//
//	fmt.Println(samielsq.NewBatch(0).Figure56(samielsq.Benchmarks(), 200_000))
//
// See README.md for the system inventory and docs/ for the service,
// performance and static-analysis notes.
package samielsq

import (
	"context"
	"time"

	"samielsq/internal/core"
	"samielsq/internal/cpu"
	"samielsq/internal/energy"
	"samielsq/internal/experiments"
	"samielsq/internal/experiments/engine"
	"samielsq/internal/lsq"
	"samielsq/internal/trace"
)

// Re-exported configuration types.
type (
	// SAMIEConfig sizes the SAMIE-LSQ (Table 3 of the paper).
	SAMIEConfig = core.Config
	// CPUConfig is the processor configuration (Table 2).
	CPUConfig = cpu.Config
	// Personality parameterizes a synthetic workload.
	Personality = trace.Params
	// SimStats summarizes one simulation.
	SimStats = cpu.Result
	// SAMIEStats carries SAMIE-specific statistics.
	SAMIEStats = core.Stats
	// EnergyMeter accumulates per-structure dynamic energy and active
	// area.
	EnergyMeter = energy.Meter
	// LSQModel is the load/store-queue abstraction; Conventional, ARB,
	// Unbounded and SAMIE implement it.
	LSQModel = lsq.Model

	// Batch is the shared simulation engine: a memoizing scheduler that
	// keys each RunSpec canonically and executes every distinct
	// simulation exactly once per batch with a bounded worker pool.
	Batch = experiments.Batch
	// RunSpec describes one simulation for the engine.
	RunSpec = experiments.RunSpec
	// RunResult is one memoized simulation outcome.
	RunResult = experiments.RunResult
	// SuiteResult is every paper row of the figure table, one batch.
	SuiteResult = experiments.SuiteResult
	// Scenario is a named registered sweep; see RegisterScenario.
	Scenario = experiments.Scenario
	// ScenarioVariant is one named column of a scenario sweep.
	ScenarioVariant = experiments.Variant
	// ScenarioResult is the outcome of one scenario sweep.
	ScenarioResult = experiments.ScenarioResult
	// ModelKind selects the LSQ organization of a RunSpec.
	ModelKind = experiments.ModelKind

	// EngineStats is the shared scheduler's request accounting
	// (requests, executed, hits, inflight, canceled, evictions).
	EngineStats = engine.Stats
	// DiskCacheStats counts the on-disk run cache's traffic.
	DiskCacheStats = experiments.DiskCacheStats
	// StoreStats is the tiered run store's accounting: per-tier
	// hit/miss counters (mem, disk, peer), peer installs, and the
	// peer-fetch latency histogram.
	StoreStats = experiments.StoreStats
	// TierStats is one tier's hit/miss pair within StoreStats.
	TierStats = experiments.TierStats
	// PeerStore is the tier-2 backend a Batch consults after a disk
	// miss, before simulating; cluster.NewPeerFetcher is the HTTP
	// implementation that probes sibling replicas.
	PeerStore = experiments.PeerStore
	// CachePruneStats reports what a disk-cache prune removed and kept.
	CachePruneStats = experiments.PruneStats
)

// The LSQ organizations a RunSpec can select.
const (
	ModelConventional = experiments.ModelConventional
	ModelUnbounded    = experiments.ModelUnbounded
	ModelARB          = experiments.ModelARB
	ModelSAMIE        = experiments.ModelSAMIE
)

// NewBatch returns a shared-run batch bounded to `workers` concurrent
// simulations; workers <= 0 means GOMAXPROCS.
func NewBatch(workers int) *Batch { return experiments.NewBatch(workers) }

// NewBatchWithCache is NewBatch plus an on-disk result spill: finished
// simulations are persisted to cacheDir, content-addressed by the
// canonical spec key, and reused across processes. See
// docs/performance.md ("Result persistence").
func NewBatchWithCache(workers int, cacheDir string) (*Batch, error) {
	return experiments.NewBatchWithCache(workers, cacheDir)
}

// DefaultCacheDir returns the conventional per-user on-disk run-cache
// location (<user cache dir>/samielsq).
func DefaultCacheDir() (string, error) { return experiments.DefaultCacheDir() }

// PruneCache bounds the on-disk run cache at dir: artifacts older than
// maxAge are removed, then the oldest until at most maxBytes remain
// (zero disables either bound). Prune scans the directory itself, so
// artifacts written by other processes are covered. Long-lived servers
// apply the same bounds periodically (samie-serve -cache-max-bytes /
// -cache-max-age); this helper serves one-shot tools (samie-bench
// -prune) and library users.
func PruneCache(dir string, maxBytes int64, maxAge time.Duration) (CachePruneStats, error) {
	d, err := experiments.NewDiskCache(dir)
	if err != nil {
		return CachePruneStats{}, err
	}
	return d.Prune(maxBytes, maxAge)
}

// RunSuite regenerates the paper's full evaluation — every paper row
// of the figure table, figures and static tables — through one shared
// batch, so every distinct simulation executes exactly once. Nil
// benchmarks means the full 26-program suite.
func RunSuite(benchmarks []string, insts uint64) SuiteResult {
	return NewBatch(0).Suite(benchmarks, insts)
}

// SuiteSpecs enumerates the distinct simulations the full suite needs,
// deduplicated by canonical key — the shard-planning input for
// cluster-wide regeneration (see pkg/cluster).
func SuiteSpecs(benchmarks []string, insts uint64) []RunSpec {
	return experiments.SuiteSpecs(benchmarks, insts)
}

// ScenarioSpecs enumerates the distinct simulations a registered
// scenario sweep needs, plus the resolved benchmark rows.
func ScenarioSpecs(name string, benchmarks []string, insts uint64) ([]RunSpec, []string, error) {
	return experiments.ScenarioSpecs(name, benchmarks, insts)
}

// RunKey returns the canonical cache key for a spec: two specs share a
// key exactly when they describe the same simulation. It addresses
// runs everywhere — the engine memo, the disk cache, GET
// /v1/runs/{key}, and rendezvous shard placement.
func RunKey(spec RunSpec) string { return experiments.Key(spec) }

// ScenarioNames lists the registered scenario sweeps.
func ScenarioNames() []string { return experiments.ScenarioNames() }

// RegisterScenario adds a named sweep to the figure table as one more
// row; new workloads are one table row, not a new harness.
func RegisterScenario(s Scenario) { experiments.RegisterScenario(s) }

// RunScenario evaluates a registered scenario sweep over the
// benchmarks through a fresh shared batch.
func RunScenario(name string, benchmarks []string, insts uint64) (ScenarioResult, error) {
	return NewBatch(0).Scenario(context.Background(), name, benchmarks, insts)
}

// PaperSAMIEConfig returns the Table 3 SAMIE-LSQ configuration
// (64 banks x 2 entries x 8 slots, 8 SharedLSQ entries, 64 AddrBuffer
// slots).
func PaperSAMIEConfig() SAMIEConfig { return core.PaperConfig() }

// PaperCPUConfig returns the Table 2 processor configuration.
func PaperCPUConfig() CPUConfig { return cpu.PaperConfig() }

// Benchmarks returns the 26 SPEC CPU2000 workload names.
func Benchmarks() []string { return trace.Benchmarks() }

// BenchmarkPersonality returns the calibrated workload parameters for
// a benchmark name.
func BenchmarkPersonality(name string) (Personality, error) {
	return trace.Personality(name)
}

// ComparisonResult is the outcome of running one benchmark under both
// the conventional LSQ and the SAMIE-LSQ.
type ComparisonResult struct {
	Benchmark    string
	Conventional SimStats
	SAMIE        SimStats
	SAMIEDetail  SAMIEStats

	ConvMeter  *EnergyMeter
	SAMIEMeter *EnergyMeter

	// Headline numbers in the paper's terms; `samie-bench -fig claims`
	// lists the paper's suite averages beside the reproduced ones.
	IPCLossPct      float64 // positive = SAMIE slower
	LSQSavingPct    float64
	DcacheSavingPct float64
	DTLBSavingPct   float64
}

// Compare runs benchmark for insts measured instructions (after an
// equal warm-up) under the paper's baseline and the SAMIE-LSQ, and
// reports the headline comparison. It executes through a fresh Batch;
// use CompareIn to share the pair of runs with other harnesses.
func Compare(benchmark string, insts uint64) ComparisonResult {
	return CompareIn(NewBatch(0), benchmark, insts)
}

// CompareIn is Compare through a caller-provided batch: the
// conventional/SAMIE pair is memoized, so a batch that has already
// produced Figure56 or the energy figures serves both runs from
// cache. The headline numbers are the one-benchmark Figure56 and
// Energy results over that pair.
func CompareIn(b *Batch, benchmark string, insts uint64) ComparisonResult {
	one := []string{benchmark}
	fig, en := b.Figure56(one, insts), b.Energy(one, insts)
	conv := b.Run(experiments.RunSpec{
		Benchmark: benchmark, Insts: insts, Model: experiments.ModelConventional,
	})
	sam := b.Run(experiments.RunSpec{
		Benchmark: benchmark, Insts: insts, Model: experiments.ModelSAMIE,
	})
	return ComparisonResult{
		Benchmark:    benchmark,
		Conventional: conv.CPU,
		SAMIE:        sam.CPU,
		SAMIEDetail:  sam.SAMIE,
		ConvMeter:    conv.Meter,
		SAMIEMeter:   sam.Meter,

		IPCLossPct:      fig.Rows[0].IPCLossPct,
		LSQSavingPct:    en.LSQSavings() * 100,
		DcacheSavingPct: en.DcacheSavings() * 100,
		DTLBSavingPct:   en.DTLBSavings() * 100,
	}
}

// The figure harnesses are Batch methods; the static tables below need
// no simulation. All are figure-table rows (GET /v1/figures/{name}).

// Table1 reproduces Table 1 (cache access times) with the analytical
// CACTI-style model.
func Table1() experiments.Table1Result { return experiments.Table1() }

// Delays reproduces the §3.6 structure-delay analysis.
func Delays() experiments.DelayResult { return experiments.Delays() }

// Tables456 renders the Table 4/5/6 energy and area constants together
// with analytical-model cross-checks.
func Tables456() string { return experiments.Tables456().String() }
