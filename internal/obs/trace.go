package obs

import (
	"context"
	"encoding/hex"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one end-to-end request tree; SpanID one node in
// it. Both render lowercase hex, matching the W3C traceparent layout.
type TraceID [16]byte

// SpanID identifies one span within a trace.
type SpanID [8]byte

// IsZero reports whether the ID is all zeroes (invalid per W3C).
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the ID is all zeroes (invalid per W3C).
func (s SpanID) IsZero() bool { return s == SpanID{} }

func (t TraceID) String() string { return hex.EncodeToString(t[:]) }
func (s SpanID) String() string  { return hex.EncodeToString(s[:]) }

// NewTraceID returns a random non-zero trace ID.
func NewTraceID() TraceID {
	var t TraceID
	for t.IsZero() {
		a, b := rand.Uint64(), rand.Uint64()
		for i := range 8 {
			t[i] = byte(a >> (8 * i))
			t[8+i] = byte(b >> (8 * i))
		}
	}
	return t
}

// NewSpanID returns a random non-zero span ID.
func NewSpanID() SpanID {
	var s SpanID
	for s.IsZero() {
		v := rand.Uint64()
		for i := range 8 {
			s[i] = byte(v >> (8 * i))
		}
	}
	return s
}

// SpanContext is the propagated identity of a span: enough to parent
// remote children and to stamp a traceparent header.
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// IsValid reports whether both IDs are non-zero.
func (sc SpanContext) IsValid() bool { return !sc.Trace.IsZero() && !sc.Span.IsZero() }

// TraceParent renders the W3C header value:
// "00-<32 hex trace>-<16 hex span>-01" (version 00, sampled flag set).
func (sc SpanContext) TraceParent() string {
	buf := make([]byte, 0, 55)
	buf = append(buf, "00-"...)
	buf = hex.AppendEncode(buf, sc.Trace[:])
	buf = append(buf, '-')
	buf = hex.AppendEncode(buf, sc.Span[:])
	buf = append(buf, "-01"...)
	return string(buf)
}

// ParseTraceParent parses a W3C traceparent header value. It accepts
// any version byte and ignores the flags, per the spec's
// forward-compatibility rules, but rejects malformed or all-zero IDs.
func ParseTraceParent(v string) (SpanContext, bool) {
	var sc SpanContext
	if len(v) < 55 || v[2] != '-' || v[35] != '-' || v[52] != '-' {
		return sc, false
	}
	if len(v) > 55 && v[55] != '-' {
		return sc, false
	}
	if _, err := hex.Decode(sc.Trace[:], []byte(v[3:35])); err != nil {
		return SpanContext{}, false
	}
	if _, err := hex.Decode(sc.Span[:], []byte(v[36:52])); err != nil {
		return SpanContext{}, false
	}
	if !sc.IsValid() {
		return SpanContext{}, false
	}
	return sc, true
}

// Span is one live node in a trace. A nil *Span is a valid no-op:
// every method tolerates it, so disabled-path callers never branch.
// A span is owned by the goroutine that started it; SetAttr and End
// are not synchronized against each other.
type Span struct {
	rec        *Recorder
	sc         SpanContext
	parent     SpanID
	remoteRoot bool // parent came over the wire; this span is a local root
	name       string
	start      time.Time
	attrs      []SpanAttr
	ended      bool
}

// SpanAttr is one key/value annotation on a span.
type SpanAttr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Context returns the span's propagation identity; the zero
// SpanContext for a nil span.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// TraceParent renders the span's traceparent header value; empty for
// a nil span.
func (s *Span) TraceParent() string {
	if s == nil {
		return ""
	}
	return s.sc.TraceParent()
}

// SetAttr annotates the span. No-op on nil.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, SpanAttr{Key: key, Value: value})
}

// End completes the span and hands it to the recorder. Safe to call
// more than once; only the first call records.
func (s *Span) End() { s.endAt(time.Now()) }

// endAt is End with the end time given. The ring keeps the raw IDs;
// they render as hex only when a reader serializes the span.
func (s *Span) endAt(now time.Time) {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	if s.rec == nil {
		return
	}
	s.rec.record(endedSpan{
		trace:    s.sc.Trace,
		span:     s.sc.Span,
		parent:   s.parent,
		name:     s.name,
		root:     s.parent.IsZero() || s.remoteRoot,
		start:    s.start,
		duration: now.Sub(s.start),
		attrs:    s.attrs,
	})
}

// endedSpan is a completed span as stored in the recorder's ring.
type endedSpan struct {
	trace        TraceID
	span, parent SpanID
	name         string
	root         bool
	start        time.Time
	duration     time.Duration
	attrs        []SpanAttr
}

// record renders the span's serialized form.
func (e *endedSpan) record() SpanRecord {
	sr := SpanRecord{
		TraceID:  e.trace.String(),
		SpanID:   e.span.String(),
		Name:     e.name,
		Root:     e.root,
		Start:    e.start,
		Duration: e.duration,
		Attrs:    e.attrs,
	}
	if !e.parent.IsZero() {
		sr.ParentID = e.parent.String()
	}
	return sr
}

// SpanRecord is a completed span as served from /v1/trace/{id} and
// exported by -trace-out.
type SpanRecord struct {
	TraceID  string        `json:"trace_id"`
	SpanID   string        `json:"span_id"`
	ParentID string        `json:"parent_id,omitempty"`
	Name     string        `json:"name"`
	Root     bool          `json:"root,omitempty"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Attrs    []SpanAttr    `json:"attrs,omitempty"`
}

// TraceSummary describes one recent root span for /v1/traces.
type TraceSummary struct {
	TraceID  string        `json:"trace_id"`
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Spans    int           `json:"spans"`
}

type ctxKey struct{}

// ContextWithSpan returns a context carrying the span. Passing a nil
// span returns ctx unchanged.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// SpanContextFromContext returns the propagation identity carried by
// ctx (possibly from a remote, unrecorded span), or the zero value.
func SpanContextFromContext(ctx context.Context) SpanContext {
	return SpanFromContext(ctx).Context()
}

// Recorder keeps a fixed ring of recently completed spans. The
// enabled flag is an atomic so the disabled path costs one load and
// allocates nothing — the same discipline as the chaos layer's
// atomic-pointer check. The ring is allocated on the first recorded
// span, so a recorder that never records holds none.
type Recorder struct {
	enabled atomic.Bool
	dropped atomic.Uint64 // records lost to ring overwrite/eviction

	mu       sync.Mutex
	size     int         // ring capacity
	ring     []endedSpan // nil until the first record
	next     int
	full     bool
	counters []CounterTrack
}

// DefaultRingSize bounds how many completed spans a recorder retains.
// A 148-spec sweep on one replica lands ~600 spans, so the default
// holds several sweeps of history.
const DefaultRingSize = 8192

// NewRecorder builds a recorder retaining up to size completed spans
// (DefaultRingSize when size <= 0). It starts disabled.
func NewRecorder(size int) *Recorder {
	if size <= 0 {
		size = DefaultRingSize
	}
	return &Recorder{size: size}
}

// SetEnabled flips recording. Spans started while disabled are nil
// and stay nil; flipping affects only spans started afterwards.
func (r *Recorder) SetEnabled(on bool) {
	if r != nil {
		r.enabled.Store(on)
	}
}

// Enabled reports whether new spans record.
func (r *Recorder) Enabled() bool { return r != nil && r.enabled.Load() }

// StartSpan begins a span as a child of the span in ctx (if any) and
// returns a derived context carrying it. When the recorder is nil or
// disabled it returns ctx unchanged and a nil span: zero allocations.
func (r *Recorder) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if r == nil || !r.enabled.Load() {
		return ctx, nil
	}
	s := &Span{rec: r, name: name, start: time.Now()}
	if parent := SpanFromContext(ctx); parent != nil {
		s.sc.Trace = parent.sc.Trace
		s.parent = parent.sc.Span
	} else {
		s.sc.Trace = NewTraceID()
	}
	s.sc.Span = NewSpanID()
	return ContextWithSpan(ctx, s), s
}

// StartRemoteChild begins a span parented to a propagated remote
// SpanContext (e.g. a parsed traceparent header). The span is marked
// as a local root so it shows up in Roots listings even though it has
// a parent elsewhere in the fabric.
func (r *Recorder) StartRemoteChild(ctx context.Context, name string, parent SpanContext) (context.Context, *Span) {
	if r == nil || !r.enabled.Load() {
		return ctx, nil
	}
	s := &Span{rec: r, name: name, start: time.Now()}
	if parent.IsValid() {
		s.sc.Trace = parent.Trace
		s.parent = parent.Span
		s.remoteRoot = true
	} else {
		s.sc.Trace = NewTraceID()
	}
	s.sc.Span = NewSpanID()
	return ContextWithSpan(ctx, s), s
}

func (r *Recorder) record(sr endedSpan) {
	r.mu.Lock()
	if r.ring == nil {
		r.ring = make([]endedSpan, r.size)
	}
	if r.full {
		// The slot being reused still holds the oldest retained span;
		// overwriting it is a silent loss unless counted.
		r.dropped.Add(1)
	}
	r.ring[r.next] = sr
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// Dropped reports how many records the recorder has lost to ring
// overwrite since construction. A rising value means the ring is too
// small for the retention window the caller expects.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	return r.dropped.Load()
}

// ended copies live ring entries oldest-first.
func (r *Recorder) ended() []endedSpan {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if r.full {
		n = len(r.ring)
	}
	out := make([]endedSpan, 0, n)
	if r.full {
		out = append(out, r.ring[r.next:]...)
	}
	out = append(out, r.ring[:r.next]...)
	return out
}

// snapshot renders live records oldest-first.
func (r *Recorder) snapshot() []SpanRecord {
	ended := r.ended()
	out := make([]SpanRecord, len(ended))
	for i := range ended {
		out[i] = ended[i].record()
	}
	return out
}

// Spans copies every retained span, oldest-first — the driver export
// path (-trace-out) feeds this to ChromeTrace.
func (r *Recorder) Spans() []SpanRecord {
	if r == nil {
		return nil
	}
	return r.snapshot()
}

// Trace returns every retained span belonging to the trace ID
// (lowercase hex), oldest-first. Empty when unknown or evicted.
func (r *Recorder) Trace(traceID string) []SpanRecord {
	if r == nil {
		return nil
	}
	var id TraceID
	if len(traceID) != 2*len(id) {
		return nil
	}
	if _, err := hex.Decode(id[:], []byte(traceID)); err != nil || id.String() != traceID {
		return nil // not the lowercase hex of a trace ID: matches nothing
	}
	var out []SpanRecord
	for _, e := range r.ended() {
		if e.trace == id {
			out = append(out, e.record())
		}
	}
	return out
}

// Roots summarizes recent root spans, newest-first, capped at limit
// (<=0 means 50).
func (r *Recorder) Roots(limit int) []TraceSummary {
	if r == nil {
		return nil
	}
	if limit <= 0 {
		limit = 50
	}
	all := r.ended()
	counts := make(map[TraceID]int, len(all))
	var rootSpans []*endedSpan
	for i := range all {
		counts[all[i].trace]++
		if all[i].root {
			rootSpans = append(rootSpans, &all[i])
		}
	}
	sort.Slice(rootSpans, func(i, j int) bool { return rootSpans[i].start.After(rootSpans[j].start) })
	if len(rootSpans) > limit {
		rootSpans = rootSpans[:limit]
	}
	var roots []TraceSummary
	for _, e := range rootSpans {
		roots = append(roots, TraceSummary{
			TraceID:  e.trace.String(),
			Name:     e.name,
			Start:    e.start,
			Duration: e.duration,
			Spans:    counts[e.trace],
		})
	}
	return roots
}

// defaultRecorder serves process-wide tracing for the driver cmds
// (samie-bench, locally and with -server); servers own their own
// recorder.
var defaultRecorder = NewRecorder(DefaultRingSize)

// Default returns the process-wide recorder, disabled until a driver
// opts in (e.g. -trace-out).
func Default() *Recorder { return defaultRecorder }

// StartSpan starts a child of the span in ctx using that span's own
// recorder; with no parent in ctx it falls back to the Default
// recorder. This is the call sites' one-liner: inside a traced
// request it extends the request's trace, inside a driver with the
// default recorder enabled it opens a new local trace, and otherwise
// it is free.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if parent := SpanFromContext(ctx); parent != nil {
		return parent.rec.StartSpan(ctx, name)
	}
	return defaultRecorder.StartSpan(ctx, name)
}
