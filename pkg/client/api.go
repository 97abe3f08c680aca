// Package client is the typed Go client for the samie-serve HTTP API,
// and the home of the wire types both sides share: the server
// (internal/server) marshals exactly these structs, so a client built
// from this package never drifts from the service.
//
// The API surface mirrors the library: POST /v1/runs executes (or
// dedups) one RunSpec, the figure endpoints regenerate paper
// artefacts, and the scenario endpoints drive registered sweeps, with
// long-running sweeps streamed as NDJSON progress events.
package client

import (
	"encoding/json"
	"io"

	"samielsq/internal/core"
	"samielsq/internal/cpu"
	"samielsq/internal/energy"
	"samielsq/internal/experiments"
	"samielsq/internal/experiments/engine"
	"samielsq/internal/lsq"
	"samielsq/internal/obs"
)

// The LSQ models a RunRequest names; on the wire each travels by name.
const (
	ModelConventional = experiments.ModelConventional
	ModelUnbounded    = experiments.ModelUnbounded
	ModelARB          = experiments.ModelARB
	ModelSAMIE        = experiments.ModelSAMIE
)

// RunRequest is the POST /v1/runs body: one simulation spec, whose
// JSON is RunSpec's, plus the timeline option. Zero fields take the
// library defaults (Normalize), so the minimal request is
// {"benchmark": "swim", "model": "samie"}.
type RunRequest struct {
	experiments.RunSpec

	// Timeline opts the response into carrying the run's interval
	// telemetry (RunResponse.Timeline). It is a wire-level request
	// option, not part of the simulation's identity: it does not enter
	// the RunSpec or the canonical cache key, and a cached run answers
	// with its retained timeline. Only runs this replica simulated
	// itself carry one (tier-served results report none).
	Timeline bool `json:"timeline,omitempty"`
}

// UnmarshalJSON decodes a request body. A body without "model" leaves
// the kind out of range, so ValidateSpec refuses it rather than running
// the kind numbered 0.
func (r *RunRequest) UnmarshalJSON(data []byte) error {
	return json.Unmarshal(data, r.preset())
}

// DecodeRunRequest reads one JSON request body from rd as UnmarshalJSON
// decodes it, in a single pass over the bytes.
func DecodeRunRequest(rd io.Reader) (RunRequest, error) {
	var req RunRequest
	err := json.NewDecoder(rd).Decode(req.preset())
	return req, err
}

// presetRequest is RunRequest without UnmarshalJSON, the target the
// decoders fill.
type presetRequest RunRequest

// preset resets r to a request naming no model kind and returns it as
// the decoders' target.
func (r *RunRequest) preset() *presetRequest {
	*r = RunRequest{RunSpec: experiments.RunSpec{Model: -1}}
	return (*presetRequest)(r)
}

// RequestFor renders a library spec as a wire request.
func RequestFor(spec experiments.RunSpec) RunRequest { return RunRequest{RunSpec: spec} }

// RunResponse is the POST /v1/runs result: the normalized identity of
// the run plus everything the library's RunResult carries (minus the
// memory-hierarchy internals, which do not serialize).
type RunResponse struct {
	Key       string                `json:"key"` // canonical engine cache key
	Benchmark string                `json:"benchmark"`
	Model     experiments.ModelKind `json:"model"`
	Insts     uint64                `json:"insts"`
	Warmup    uint64                `json:"warmup"`

	// Sim is the serving replica's simulator build stamp
	// (experiments.SimStamp). The peer-fetch tier refuses results from
	// a different build, exactly as the disk tier refuses such
	// artifacts.
	Sim string `json:"sim,omitempty"`

	CPU   cpu.Result         `json:"cpu"`
	SAMIE core.Stats         `json:"samie_stats"`
	Conv  lsq.OccupancyStats `json:"conv_occupancy"`
	Meter *energy.Meter      `json:"energy"`

	// LSQEnergyNJ is the headline LSQ dynamic energy in nJ
	// (conventional or SAMIE total, whichever the model accounts).
	LSQEnergyNJ float64 `json:"lsq_energy_nj"`

	// Phases is where the serving process spent wall-clock
	// materializing this result (see internal/obs.Phase); a tier-served
	// result reports only its lookup phases. Observability metadata:
	// excluded from determinism comparisons.
	Phases obs.PhaseTimes `json:"phases,omitzero"`

	// Timeline is the run's interval telemetry, present only when the
	// request set RunRequest.Timeline and the serving replica simulated
	// the run itself. Observability metadata, like Phases.
	Timeline *obs.Timeline `json:"timeline,omitempty"`
}

// ResponseFor renders a result delivered by a Batch — which carries its
// canonical key and normalized spec — as the wire response; sim is the
// simulator stamp of the build that produced it. The server builds its
// JSON answers here and the client builds RunResponse from a binary
// run record here, so the two encodings decode to the same value.
func ResponseFor(res experiments.RunResult, sim string) RunResponse {
	n := res.Spec
	return RunResponse{
		Key:         res.Key,
		Benchmark:   n.Benchmark,
		Model:       n.Model,
		Insts:       n.Insts,
		Warmup:      n.Warmup,
		Sim:         sim,
		CPU:         res.CPU,
		SAMIE:       res.SAMIE,
		Conv:        res.Conv,
		Meter:       res.Meter,
		LSQEnergyNJ: res.LSQEnergyNJ(),
		Phases:      res.Phases,
	}
}

// Result converts the wire response back into a library RunResult.
// The normalized Spec is NOT reconstructed (the wire identity carries
// only benchmark/model/insts/warmup); callers that need the full spec
// — e.g. Batch.Offer — pair the response with the RunSpec they sent,
// matching on Key.
func (r RunResponse) Result() experiments.RunResult {
	return experiments.RunResult{
		Key:      r.Key,
		CPU:      r.CPU,
		SAMIE:    r.SAMIE,
		Conv:     r.Conv,
		Meter:    r.Meter,
		Phases:   r.Phases,
		Timeline: r.Timeline,
	}
}

// FigureNames lists the paper figures' GET /v1/figures/{name} names,
// in paper order, from the library's figure table; the scenario rows
// (Scenarios) are served under their own names.
func FigureNames() []string { return experiments.FigureNames() }

// FigureResponse is one figure regeneration: the rendered text
// (byte-identical to the library harness output) plus the structured
// result for programmatic use.
type FigureResponse struct {
	Figure string `json:"figure"`
	// Benchmarks and Insts are the sweep the row ran; a static table
	// simulates nothing and has neither.
	Benchmarks []string        `json:"benchmarks,omitempty"`
	Insts      uint64          `json:"insts,omitempty"`
	Text       string          `json:"text"`
	Result     json.RawMessage `json:"result,omitempty"`
}

// ScenarioInfo describes one registered scenario sweep.
type ScenarioInfo struct {
	Name        string   `json:"name"`
	Description string   `json:"description"`
	Variants    []string `json:"variants"`

	// Benchmarks are the sweep's default rows when a figure request
	// names none; empty means the full 26-program suite.
	Benchmarks []string `json:"benchmarks,omitempty"`
}

// SuiteRequest is the POST /v1/suite body: the shard a cluster
// coordinator assigned to one replica (see pkg/cluster). The replica
// executes exactly these simulations; a shard names 1 to 4096 specs.
type SuiteRequest struct {
	Specs []RunRequest `json:"specs"`

	// Peers are the coordinator's other replicas (base URLs, the
	// target excluded): the replica may adopt them as its tier-2
	// peer-fetch set, so a fleet assembled by the coordinator needs no
	// static -peers configuration. Ignored when empty or when the
	// server disables adoption.
	Peers []string `json:"peers,omitempty"`
}

// SuiteEvent is one NDJSON line of a streamed suite execution: a "run"
// event as each distinct simulation completes, then one final
// "result". An "error" event terminates the stream.
type SuiteEvent struct {
	Type string `json:"type"` // "run", "result" or "error"

	// run fields
	Run   *RunResponse `json:"run,omitempty"`
	Done  int          `json:"done,omitempty"`
	Total int          `json:"total,omitempty"`

	// Trace is the serving request's span context as a W3C traceparent
	// value, so a stream consumer (e.g. samie-bench -server resuming a
	// truncated stream) can attribute every delivered — and, by
	// elimination, every undelivered — spec to its trace.
	Trace string `json:"trace,omitempty"`

	// error field
	Error string `json:"error,omitempty"`
}

// StatsResponse is the GET /v1/stats body: engine, tiered-store and
// process accounting for the shared batch behind the service.
type StatsResponse struct {
	Engine       engine.Stats               `json:"engine"`
	Disk         experiments.DiskCacheStats `json:"disk"`
	Store        experiments.StoreStats     `json:"store"`
	DistinctRuns int                        `json:"distinct_runs"`
	Workers      int                        `json:"workers"`

	MaxConcurrent  int   `json:"max_concurrent"`
	InflightHTTP   int64 `json:"inflight_http"`
	RequestsServed int64 `json:"requests_served"`
	Throttled      int64 `json:"throttled"`    // 429s issued
	ProbeHits      int64 `json:"probe_hits"`   // GET /v1/runs/{key} found
	ProbeMisses    int64 `json:"probe_misses"` // GET /v1/runs/{key} not cached
	SuiteSpecs     int64 `json:"suite_specs"`  // simulations requested via POST /v1/suite

	CacheDir      string  `json:"cache_dir,omitempty"`
	Preloaded     int     `json:"preloaded,omitempty"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Goroutines    int     `json:"goroutines"`
	HeapBytes     uint64  `json:"heap_bytes"`

	// RunPhases are the replica's per-phase run-latency histograms
	// (internal/obs.Phase definitions); phases never entered are
	// omitted. samie-bench -server -stats renders these as per-replica
	// p50/p95/p99 summaries.
	RunPhases obs.PhaseStats `json:"run_phases,omitempty"`

	// TimelineStats are the per-benchmark occupancy aggregates of every
	// run this replica simulated itself (keyed by benchmark name);
	// samie-bench -server -stats merges replicas' maps into the fleet-wide
	// per-personality occupancy table.
	TimelineStats map[string]obs.OccupancyAgg `json:"timeline_stats,omitempty"`

	// EnergyPJ is the per-structure dynamic energy (pJ) summed over
	// every run this replica simulated itself.
	EnergyPJ map[string]float64 `json:"energy_pj,omitempty"`

	// TraceDropped counts span records lost to trace-ring overwrite on
	// this replica (samie_trace_spans_dropped_total).
	TraceDropped uint64 `json:"trace_spans_dropped,omitempty"`

	Chaos ChaosState `json:"chaos"`
}

// TraceResponse is the GET /v1/trace/{id} body: every span the
// replica's recorder retains for one trace, oldest-first, plus any
// counter tracks (occupancy/IPC curves) recorded on the trace.
type TraceResponse struct {
	TraceID  string             `json:"trace_id"`
	Spans    []obs.SpanRecord   `json:"spans"`
	Counters []obs.CounterTrack `json:"counters,omitempty"`
}

// TracesResponse is the GET /v1/traces body: recent root spans,
// newest first, plus how many span records the replica's recorder has
// lost to ring overwrite (a rising Dropped means the ring is too small
// for the retention window being queried).
type TracesResponse struct {
	Traces  []obs.TraceSummary `json:"traces"`
	Dropped uint64             `json:"dropped"`
}

// ChaosCounts are the per-kind injected-fault totals since boot.
type ChaosCounts struct {
	Errors      int64 `json:"errors"`
	Throttles   int64 `json:"throttles"`
	Resets      int64 `json:"resets"`
	Truncations int64 `json:"truncations"`
	Latencies   int64 `json:"latencies"`
	Total       int64 `json:"total"`
}

// ChaosState is the /v1/stats chaos block: whether fault injection is
// live, under what spec (the -chaos flag), and what has fired.
type ChaosState struct {
	Enabled  bool        `json:"enabled"`
	Spec     string      `json:"spec,omitempty"`
	Injected ChaosCounts `json:"injected"`
}

// ErrorResponse is the body of every non-2xx JSON error.
type ErrorResponse struct {
	Error string `json:"error"`
}
