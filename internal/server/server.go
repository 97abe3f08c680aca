// Package server is the HTTP simulation service over the shared-run
// Batch engine: many clients share one long-lived memoizing scheduler
// (plus its disk cache), so concurrent identical requests coalesce
// into a single simulation and repeated figure regenerations serve
// from a warm cache.
//
// The wire types live in pkg/client so the typed client can never
// drift from the service. Endpoints:
//
//	POST /v1/runs                   one RunSpec -> stats + energy
//	GET  /v1/runs/{key}             cache probe: 200 if memoized/on-disk, 404 otherwise
//	POST /v1/suite                  a coordinator's shard of 1-4096 specs, streamed back as NDJSON per-run events
//	GET  /v1/figures/{name}         a figure-table row: 1, 3, 4, 56, energy or a scenario sweep
//	GET  /v1/scenarios              the table's scenario rows
//	GET  /v1/stats                  engine/disk/process accounting
//	GET  /healthz                   liveness
//	GET  /metrics                   Prometheus text exposition
//
// Production shape: simulation-triggering endpoints sit behind a
// request-level semaphore (429 + Retry-After on saturation) in front
// of the engine's worker pool, every request carries a deadline that
// cancels queued (not-yet-shared) simulations when the client goes
// away, and all requests are logged structurally.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"samielsq/internal/experiments"
	"samielsq/internal/faultinject"
	"samielsq/internal/obs"
	"samielsq/internal/trace"
)

// Config assembles a Server.
type Config struct {
	// Batch is the shared simulation engine; required.
	Batch *experiments.Batch

	// Logger receives structured request and lifecycle logs; default
	// slog.Default().
	Logger *slog.Logger

	// MaxConcurrent bounds simultaneously-admitted simulation requests
	// (runs, suites, figure-table rows). Saturation answers 429 with
	// Retry-After. Default: 4x the batch's worker count, so short
	// coalescing requests queue while the pool is busy instead of
	// bouncing.
	MaxConcurrent int

	// RequestTimeout caps one simulation request end to end; 0 means
	// no server-imposed deadline. A timed-out (or disconnected)
	// request withdraws its queued simulations; started ones finish
	// and stay memoized.
	RequestTimeout time.Duration

	// DefaultInsts is the instruction budget when a request omits it;
	// default experiments.DefaultInsts.
	DefaultInsts uint64

	// MaxInsts rejects requests above this per-run budget with 400;
	// 0 means unlimited.
	MaxInsts uint64

	// RetryAfter is the hint returned with 429; default 5s.
	RetryAfter time.Duration

	// CacheDir and Preloaded are reported by /v1/stats (informational;
	// the batch already owns the actual cache).
	CacheDir  string
	Preloaded int

	// Chaos is the fault-injection spec (the -chaos flag), fixed for
	// the server's lifetime. The zero spec disables injection.
	Chaos faultinject.Spec

	// PeerAdopt, when non-nil, receives the sibling replica set a
	// cluster coordinator supplies with a shard (SuiteRequest.Peers,
	// this replica excluded) so the batch's tier-2 peer-fetch store
	// can track the fleet without static configuration. Called from
	// request handlers; implementations must be safe for concurrent
	// use. Never called with an empty list.
	PeerAdopt func(peers []string)

	// Recorder receives every request's spans and serves /v1/trace*.
	// Nil gets a fresh enabled recorder of the default ring size; a
	// disabled recorder turns tracing off (requests still adopt and
	// log incoming traceparent IDs, they just record nothing).
	Recorder *obs.Recorder
}

// Server is the HTTP simulation service; construct with New, expose
// with Handler.
type Server struct {
	cfg   Config
	batch *experiments.Batch
	log   *slog.Logger
	sem   chan struct{}
	start time.Time
	mux   *http.ServeMux
	chaos *faultinject.Injector // nil when injection is disabled
	rec   *obs.Recorder
	httpm httpMetrics

	// drainCtx is canceled by BeginDrain: /healthz flips to 503 so load
	// balancers stop routing here, and in-flight NDJSON streams are
	// canceled so each emits a terminal error event while its
	// connection is still writable.
	drainCtx    context.Context
	drainCancel context.CancelFunc

	served      atomic.Int64 // requests completed, all endpoints
	throttled   atomic.Int64 // 429s issued
	inflight    atomic.Int64 // admitted simulation requests in flight
	probeHits   atomic.Int64 // GET /v1/runs/{key} found
	probeMisses atomic.Int64 // GET /v1/runs/{key} not cached
	suiteSpecs  atomic.Int64 // simulations requested via POST /v1/suite

	// mem is the cached runtime.MemStats sample: ReadMemStats stops
	// the world, so stats/metrics scrapes share one sample refreshed
	// at most once per second instead of paying it per hit.
	mem struct {
		sync.Mutex
		snap atomic.Pointer[memSample]
	}
}

// memSample is one cached ReadMemStats result.
type memSample struct {
	at   time.Time
	heap uint64
}

// heapBytes returns the heap-in-use gauge from the shared sample,
// refreshing it when older than a second.
func (s *Server) heapBytes() uint64 {
	if cur := s.mem.snap.Load(); cur != nil && time.Since(cur.at) < time.Second {
		return cur.heap
	}
	s.mem.Lock()
	defer s.mem.Unlock()
	// Re-check under the lock: a concurrent scrape may have refreshed.
	if cur := s.mem.snap.Load(); cur != nil && time.Since(cur.at) < time.Second {
		return cur.heap
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mem.snap.Store(&memSample{at: time.Now(), heap: ms.HeapAlloc})
	return ms.HeapAlloc
}

// New validates the config and assembles the service routes.
func New(cfg Config) (*Server, error) {
	if cfg.Batch == nil {
		return nil, fmt.Errorf("server: Config.Batch is required")
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 4 * cfg.Batch.Workers()
	}
	if cfg.DefaultInsts == 0 {
		cfg.DefaultInsts = experiments.DefaultInsts
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 5 * time.Second
	}
	if cfg.Recorder == nil {
		cfg.Recorder = obs.NewRecorder(obs.DefaultRingSize)
		cfg.Recorder.SetEnabled(true)
	}
	s := &Server{
		cfg:   cfg,
		batch: cfg.Batch,
		log:   cfg.Logger,
		sem:   make(chan struct{}, cfg.MaxConcurrent),
		start: time.Now(),
		mux:   http.NewServeMux(),
		rec:   cfg.Recorder,
	}
	s.httpm.init()
	s.drainCtx, s.drainCancel = context.WithCancel(context.Background())
	if cfg.Chaos.Enabled() {
		s.chaos = faultinject.New(cfg.Chaos)
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/trace/{id}", s.handleTraceGet)
	s.mux.HandleFunc("GET /v1/traces", s.handleTraces)
	s.mux.HandleFunc("GET /v1/scenarios", s.handleScenarios)
	// The cache probe never simulates, so it bypasses the admission
	// semaphore like the other cheap read-only endpoints; the timeline
	// fetch reads the same cache and is just as cheap.
	s.mux.HandleFunc("GET /v1/runs/{key}", s.handleRunProbe)
	s.mux.HandleFunc("GET /v1/runs/{key}/timeline", s.handleRunTimeline)
	s.mux.Handle("POST /v1/runs", s.heavy(s.handleRun))
	s.mux.Handle("POST /v1/suite", s.heavy(s.handleSuite))
	// A static table row simulates nothing, so only the rows that do
	// take an admission slot.
	heavyFigure := s.heavy(s.handleFigure)
	s.mux.HandleFunc("GET /v1/figures/{name}", func(w http.ResponseWriter, r *http.Request) {
		if fig, ok := experiments.LookupFigure(r.PathValue("name")); ok && fig.Specs == nil {
			s.handleFigure(w, r)
			return
		}
		heavyFigure.ServeHTTP(w, r)
	})
	return s, nil
}

// Handler returns the full middleware-wrapped service handler.
// Recovery sits inside logging so a panicking request is converted to
// a 500 before the log line and served counter are emitted — a panic
// must not produce client-visible 500s that monitoring never sees.
// Chaos sits between them: injected faults show up in the request log
// like real ones, and a fault never bypasses recovery for the
// requests it lets through.
func (s *Server) Handler() http.Handler {
	return s.withLogging(s.withChaos(s.withRecovery(s.mux)))
}

// errDraining is the cause attached to stream contexts when the
// process enters its shutdown drain: the stream cannot complete, the
// client should re-request the undelivered work elsewhere.
var errDraining = errors.New("server draining: stream aborted, re-request undelivered work")

// BeginDrain flips the server into drain mode ahead of listener
// shutdown: /healthz starts answering 503 (so orchestrators stop
// routing new work here) and every in-flight NDJSON stream is canceled,
// letting its handler deliver a terminal error event over the
// still-open connection instead of vanishing mid-body. Idempotent;
// there is no way back — a draining process is on its way out.
func (s *Server) BeginDrain() {
	s.drainCancel()
}

// draining reports whether BeginDrain has been called.
func (s *Server) draining() bool {
	return s.drainCtx.Err() != nil
}

// drainAware derives a stream's working context: canceled when the
// client goes away (parent) or when the server begins draining, with
// errDraining as the cause so the handler can tell the two apart.
func (s *Server) drainAware(parent context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancelCause(parent)
	stop := context.AfterFunc(s.drainCtx, func() { cancel(errDraining) })
	return ctx, func() { stop(); cancel(nil) }
}

// capInsts applies the server's default instruction budget and the
// -max-insts cap to one requested budget.
func (s *Server) capInsts(insts uint64) (uint64, error) {
	if insts == 0 {
		insts = s.cfg.DefaultInsts
	}
	if s.cfg.MaxInsts > 0 && insts > s.cfg.MaxInsts {
		return 0, fmt.Errorf("insts %d exceeds the server cap %d", insts, s.cfg.MaxInsts)
	}
	return insts, nil
}

// maxConfigDim bounds every client-supplied structure size or width.
// Simulated structures allocate — and per-cycle loops iterate —
// proportionally to these dimensions, so a tiny-insts request must
// not smuggle in an enormous machine; 1<<20 is ~1000x the paper
// configuration while still bounding one run's footprint.
const maxConfigDim = 1 << 20

// withinCaps bounds a normalized spec's structure sizes, and the
// products that size one structure, by limit (maxConfigDim for
// requests). ValidateSpec has already rejected what the simulator
// cannot run; these caps keep an oversized but valid geometry from
// allocating its structures inside the shared process. Every int
// field is a size or a width, so all are capped; Normalize has zeroed
// those the spec's model ignores.
func withinCaps(n experiments.RunSpec, limit int) error {
	spec := reflect.ValueOf(&n).Elem()
	for _, f := range capFields {
		v := spec
		if f.ptr >= 0 {
			if v = spec.Field(f.ptr); v.IsNil() {
				continue
			}
			v = v.Elem()
		}
		if x := v.Field(f.field).Int(); x > int64(limit) {
			return fmt.Errorf("%s %d exceeds the server cap %d", f.path, x, limit)
		}
	}
	if tot := int64(n.ARBBanks) * int64(n.ARBAddrs); tot > int64(limit) {
		return fmt.Errorf("arb_banks*arb_addrs %d exceeds the server cap %d", tot, limit)
	}
	// int64 keeps the product exact even on 32-bit int: the
	// per-dimension caps bound it below 2^60.
	if c := n.SAMIE; c != nil {
		if tot := int64(c.Banks) * int64(c.EntriesPerBank) * int64(c.SlotsPerEntry); tot > int64(limit) {
			return fmt.Errorf("samie DistribLSQ slots %d (Banks*EntriesPerBank*SlotsPerEntry) exceeds the server cap %d",
				tot, limit)
		}
	}
	return nil
}

// capField is RunSpec's int field number field (ptr < 0), or that
// field of the config RunSpec's field ptr points to, named by its JSON
// path.
type capField struct {
	path       string
	ptr, field int
}

// capFields lists every int field of RunSpec and of its configs.
var capFields = intFields(reflect.TypeFor[experiments.RunSpec](), -1, "")

// intFields lists t's int fields below prefix, descending one level
// into pointers to structs.
func intFields(t reflect.Type, ptr int, prefix string) []capField {
	var out []capField
	for i := range t.NumField() {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name == "" {
			name = f.Name
		}
		switch {
		case f.Type == reflect.TypeFor[int]():
			out = append(out, capField{path: prefix + name, ptr: ptr, field: i})
		case ptr < 0 && f.Type.Kind() == reflect.Pointer && f.Type.Elem().Kind() == reflect.Struct:
			out = append(out, intFields(f.Type.Elem(), i, name+".")...)
		}
	}
	return out
}

// validBenchmarks checks every requested benchmark resolves to a
// workload personality.
func validBenchmarks(names []string) error {
	for _, n := range names {
		if _, err := trace.Personality(n); err != nil {
			return fmt.Errorf("unknown benchmark %q", n)
		}
	}
	return nil
}
