package obs

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestTraceParentRoundTrip(t *testing.T) {
	sc := SpanContext{Trace: NewTraceID(), Span: NewSpanID()}
	hdr := sc.TraceParent()
	if len(hdr) != 55 || !strings.HasPrefix(hdr, "00-") || !strings.HasSuffix(hdr, "-01") {
		t.Fatalf("malformed traceparent %q", hdr)
	}
	got, ok := ParseTraceParent(hdr)
	if !ok || got != sc {
		t.Fatalf("round trip: got %+v ok=%v want %+v", got, ok, sc)
	}
}

func TestParseTraceParentRejects(t *testing.T) {
	bad := []string{
		"",
		"00-short-span-01",
		"00-00000000000000000000000000000000-0000000000000000-01", // all-zero IDs
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01x",
		"00-4bf92f3577b34da6a3ce929d0e0e473Z-00f067aa0ba902b7-01",
	}
	for _, v := range bad {
		if _, ok := ParseTraceParent(v); ok {
			t.Fatalf("ParseTraceParent(%q) accepted", v)
		}
	}
	// Future versions and trailing vendor fields must still parse.
	for _, v := range []string{
		"cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra",
	} {
		if _, ok := ParseTraceParent(v); !ok {
			t.Fatalf("ParseTraceParent(%q) rejected", v)
		}
	}
}

func TestRecorderSpanTree(t *testing.T) {
	r := NewRecorder(64)
	r.SetEnabled(true)
	ctx, root := r.StartSpan(context.Background(), "sweep")
	_, child := r.StartSpan(ctx, "chunk")
	if child.Context().Trace != root.Context().Trace {
		t.Fatalf("child trace %s != root trace %s", child.Context().Trace, root.Context().Trace)
	}
	child.SetAttr("replica", "r1")
	child.End()
	root.End()

	spans := r.Trace(root.Context().Trace.String())
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	var rootRec, childRec SpanRecord
	for _, sr := range spans {
		switch sr.Name {
		case "sweep":
			rootRec = sr
		case "chunk":
			childRec = sr
		}
	}
	if !rootRec.Root || rootRec.ParentID != "" {
		t.Fatalf("root record wrong: %+v", rootRec)
	}
	if childRec.Root || childRec.ParentID != rootRec.SpanID {
		t.Fatalf("child record wrong: %+v (root span %s)", childRec, rootRec.SpanID)
	}
	if len(childRec.Attrs) != 1 || childRec.Attrs[0].Key != "replica" {
		t.Fatalf("child attrs wrong: %+v", childRec.Attrs)
	}

	roots := r.Roots(0)
	if len(roots) != 1 || roots[0].Name != "sweep" || roots[0].Spans != 2 {
		t.Fatalf("roots wrong: %+v", roots)
	}
}

func TestRemoteChildIsLocalRoot(t *testing.T) {
	r := NewRecorder(8)
	r.SetEnabled(true)
	remote := SpanContext{Trace: NewTraceID(), Span: NewSpanID()}
	_, s := r.StartRemoteChild(context.Background(), "http GET", remote)
	if s.Context().Trace != remote.Trace {
		t.Fatalf("remote child did not adopt trace")
	}
	s.End()
	spans := r.Trace(remote.Trace.String())
	if len(spans) != 1 || !spans[0].Root || spans[0].ParentID != remote.Span.String() {
		t.Fatalf("remote child record wrong: %+v", spans)
	}
}

func TestRecorderRingEviction(t *testing.T) {
	r := NewRecorder(4)
	r.SetEnabled(true)
	for range 10 {
		_, s := r.StartSpan(context.Background(), "x")
		s.End()
	}
	if got := len(r.snapshot()); got != 4 {
		t.Fatalf("ring kept %d spans, want 4", got)
	}
	// Overwrites are no longer silent: each of the 6 evicted spans is
	// accounted on the dropped counter.
	if got := r.Dropped(); got != 6 {
		t.Fatalf("Dropped() = %d, want 6", got)
	}
}

// TestRecorderRingOnFirstUse: a recorder that records nothing (the
// process-wide default unless a driver enables it, or a server nobody
// traces) holds no ring; the first recorded span allocates it whole.
func TestRecorderRingOnFirstUse(t *testing.T) {
	r := NewRecorder(DefaultRingSize)
	r.StartSpan(context.Background(), "disabled") // records nothing
	r.SetEnabled(true)
	if len(r.Spans()) != 0 || len(r.Roots(0)) != 0 || len(r.Trace(NewTraceID().String())) != 0 {
		t.Fatal("empty recorder returned spans")
	}
	if r.ring != nil {
		t.Fatalf("recorder that recorded nothing holds a %d-entry ring", len(r.ring))
	}
	_, s := r.StartSpan(context.Background(), "first")
	if r.ring != nil {
		t.Fatal("ring allocated before any span ended")
	}
	s.End()
	if len(r.ring) != DefaultRingSize {
		t.Fatalf("ring holds %d entries after the first span, want %d", len(r.ring), DefaultRingSize)
	}
	if got := r.Spans(); len(got) != 1 || got[0].Name != "first" {
		t.Fatalf("spans after first record = %+v", got)
	}
}

// TestTraceJSONRendering pins the JSON that /v1/trace/{id}, /v1/traces
// and -trace-out serialize from the ring (the handlers encode Trace's
// and Roots' values verbatim, with HTML escaping off). The ring keeps
// raw IDs and renders hex on read; the expected bytes are what the
// ring produced when it stored hex strings at End.
func TestTraceJSONRendering(t *testing.T) {
	r := NewRecorder(8)
	base := time.Date(2026, 1, 2, 3, 4, 5, 6000, time.UTC)
	tr := TraceID{0x4b, 0xf9, 0x2f, 0x35, 0x77, 0xb3, 0x4d, 0xa6, 0xa3, 0xce, 0x92, 0x9d, 0x0e, 0x0e, 0x47, 0x36}
	tr2 := TraceID{0x0a, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 0xff}
	root := &Span{rec: r, sc: SpanContext{tr, SpanID{0x00, 0xf0, 0x67, 0xaa, 0x0b, 0xa9, 0x02, 0xb7}},
		name: "POST /v1/runs", start: base}
	root.SetAttr("route", "/v1/runs")
	child := &Span{rec: r, sc: SpanContext{tr, SpanID{1, 2, 3, 4, 5, 6, 7, 8}}, parent: root.sc.Span,
		name: "run", start: base.Add(time.Microsecond)}
	child.SetAttr("tier", "disk")
	child.SetAttr("key", "b=gzip|m=3")
	remote := &Span{rec: r, sc: SpanContext{tr2, SpanID{0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 1}},
		parent: SpanID{9, 9, 9, 9, 9, 9, 9, 9}, remoteRoot: true, name: "POST /v1/suite", start: base.Add(time.Second)}
	child.endAt(base.Add(2 * time.Millisecond))
	root.endAt(base.Add(3 * time.Millisecond))
	remote.endAt(base.Add(time.Second + 7*time.Millisecond))

	enc := func(v any) string {
		var b strings.Builder
		e := json.NewEncoder(&b)
		e.SetEscapeHTML(false)
		if err := e.Encode(v); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	const (
		runSpan  = `{"trace_id":"4bf92f3577b34da6a3ce929d0e0e4736","span_id":"0102030405060708","parent_id":"00f067aa0ba902b7","name":"run","start":"2026-01-02T03:04:05.000007Z","duration_ns":1999000,"attrs":[{"key":"tier","value":"disk"},{"key":"key","value":"b=gzip|m=3"}]}`
		rootSpan = `{"trace_id":"4bf92f3577b34da6a3ce929d0e0e4736","span_id":"00f067aa0ba902b7","name":"POST /v1/runs","root":true,"start":"2026-01-02T03:04:05.000006Z","duration_ns":3000000,"attrs":[{"key":"route","value":"/v1/runs"}]}`
		remSpan  = `{"trace_id":"0a0102030405060708090a0b0c0d0eff","span_id":"deadbeef00000001","parent_id":"0909090909090909","name":"POST /v1/suite","root":true,"start":"2026-01-02T03:04:06.000006Z","duration_ns":7000000}`
		roots    = `[{"trace_id":"0a0102030405060708090a0b0c0d0eff","name":"POST /v1/suite","start":"2026-01-02T03:04:06.000006Z","duration_ns":7000000,"spans":1},{"trace_id":"4bf92f3577b34da6a3ce929d0e0e4736","name":"POST /v1/runs","start":"2026-01-02T03:04:05.000006Z","duration_ns":3000000,"spans":2}]`
	)
	for _, c := range []struct{ name, got, want string }{
		{"Trace", enc(r.Trace(tr.String())), "[" + runSpan + "," + rootSpan + "]\n"},
		{"Roots", enc(r.Roots(0)), roots + "\n"},
		{"Spans", enc(r.Spans()), "[" + runSpan + "," + rootSpan + "," + remSpan + "]\n"},
	} {
		if c.got != c.want {
			t.Errorf("%s JSON changed:\n got %s\nwant %s", c.name, c.got, c.want)
		}
	}
	// A trace ID that is not 32 lowercase hex digits matches nothing.
	for _, id := range []string{strings.ToUpper(tr.String()), tr.String()[:30], tr.String() + "00", "zz"} {
		if got := r.Trace(id); len(got) != 0 {
			t.Errorf("Trace(%q) = %d spans, want none", id, len(got))
		}
	}
}

func TestDisabledPathZeroAllocs(t *testing.T) {
	r := NewRecorder(8)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		c2, s := r.StartSpan(ctx, "noop")
		s.SetAttr("k", "v")
		s.End()
		_, s2 := StartSpan(c2, "noop2")
		s2.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocates: %v allocs/op", allocs)
	}
}

func TestDisabledSpanIsNil(t *testing.T) {
	r := NewRecorder(8)
	ctx, s := r.StartSpan(context.Background(), "x")
	if s != nil {
		t.Fatal("disabled recorder returned live span")
	}
	if s.TraceParent() != "" || s.Context().IsValid() {
		t.Fatal("nil span leaked identity")
	}
	if SpanFromContext(ctx) != nil {
		t.Fatal("disabled recorder mutated context")
	}
}

func TestHistogramSnapshotAndQuantile(t *testing.T) {
	h := NewHistogram([]float64{0.01, 0.1, 1})
	if s := h.Snapshot(); s.Count != 0 || s.Bounds != nil {
		t.Fatalf("empty snapshot not zero: %+v", s)
	}
	for range 50 {
		h.Observe(5 * time.Millisecond) // bucket 0
	}
	for range 40 {
		h.Observe(50 * time.Millisecond) // bucket 1
	}
	for range 10 {
		h.Observe(5 * time.Second) // +Inf bucket
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count %d", s.Count)
	}
	if got := []uint64{s.Counts[0], s.Counts[1], s.Counts[2], s.Counts[3]}; got[0] != 50 || got[1] != 40 || got[2] != 0 || got[3] != 10 {
		t.Fatalf("bucket counts %v", got)
	}
	// p50 lands exactly at the top of bucket 0.
	if q := s.Quantile(0.5); q < 0.009 || q > 0.011 {
		t.Fatalf("p50 = %v, want ~0.01", q)
	}
	// p95 lands in the +Inf bucket -> clamped to last finite bound.
	if q := s.Quantile(0.99); q != 1 {
		t.Fatalf("p99 = %v, want clamp to 1", q)
	}
	if q := s.Quantile(0); q != 0 {
		t.Fatalf("p0 = %v", q)
	}

	var agg HistSnapshot
	agg.Add(s)
	agg.Add(s)
	if agg.Count != 200 || agg.Counts[0] != 100 || agg.Sum <= s.Sum {
		t.Fatalf("merge wrong: %+v", agg)
	}
}

func TestPhaseTimesSetGetAndNames(t *testing.T) {
	var pt PhaseTimes
	if !pt.IsZero() {
		t.Fatal("zero value not zero")
	}
	for i, p := range AllPhases() {
		pt.Set(p, time.Duration(i+1)*time.Millisecond)
	}
	for i, p := range AllPhases() {
		want := float64(i+1) * 1e-3
		if got := pt.Get(p); got < want*0.999 || got > want*1.001 {
			t.Fatalf("phase %s = %v, want %v", p, got, want)
		}
	}
	seen := map[string]bool{}
	for _, p := range AllPhases() {
		name := p.String()
		if name == "unknown" || seen[name] {
			t.Fatalf("bad phase name %q", name)
		}
		seen[name] = true
	}
	// JSON omits phases that never ran.
	b, err := json.Marshal(PhaseTimes{DiskTier: 0.5})
	if err != nil || string(b) != `{"disk_tier":0.5}` {
		t.Fatalf("phase JSON: %s err=%v", b, err)
	}
}

func TestChromeTraceExport(t *testing.T) {
	r := NewRecorder(16)
	r.SetEnabled(true)
	ctx, root := r.StartSpan(context.Background(), "sweep")
	root.SetAttr("source", "coordinator")
	_, c := r.StartSpan(ctx, "chunk")
	c.SetAttr("source", "replica-1")
	c.End()
	root.End()

	out, err := ChromeTrace(r.snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(out, &f); err != nil {
		t.Fatalf("not valid trace-event JSON: %v", err)
	}
	if len(f.TraceEvents) != 4 { // b/e pair per span
		t.Fatalf("got %d events, want 4", len(f.TraceEvents))
	}
	begins := 0
	pids := map[float64]bool{}
	for _, ev := range f.TraceEvents {
		if ev["ph"] == "b" {
			begins++
		}
		pids[ev["pid"].(float64)] = true
	}
	if begins != 2 {
		t.Fatalf("got %d begin events, want 2", begins)
	}
	if len(pids) != 2 {
		t.Fatalf("sources should land in distinct pid lanes, got %v", pids)
	}
}

// FuzzParseTraceParent: every request's traceparent header passes
// through ParseTraceParent. It must never panic, a rejection must
// return the zero span context, and an accepted value must re-render
// to a header that parses back to the same span context.
func FuzzParseTraceParent(f *testing.F) {
	f.Fuzz(func(t *testing.T, v string) {
		sc, ok := ParseTraceParent(v)
		if !ok {
			if sc != (SpanContext{}) {
				t.Fatalf("ParseTraceParent(%q) rejected but returned %+v", v, sc)
			}
			return
		}
		again, ok := ParseTraceParent(sc.TraceParent())
		if !ok || again != sc {
			t.Fatalf("ParseTraceParent(%q) = %+v re-renders to %q, which parses to %+v ok=%v",
				v, sc, sc.TraceParent(), again, ok)
		}
	})
}
