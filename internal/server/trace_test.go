package server

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"

	"samielsq/internal/experiments"
	"samielsq/internal/obs"
	"samielsq/pkg/client"
)

// TestTraceEndpoints: a request carrying a traceparent header is
// adopted into that trace, retrievable via GET /v1/trace/{id}, and
// listed as a local root by GET /v1/traces; unknown IDs 404 and bad
// limits 400.
func TestTraceEndpoints(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})

	parent := obs.SpanContext{Trace: obs.NewTraceID(), Span: obs.NewSpanID()}
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", parent.TraceParent())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/v1/trace/" + parent.Trace.String())
	if err != nil {
		t.Fatal(err)
	}
	tr := decodeBody[client.TraceResponse](t, resp)
	if tr.TraceID != parent.Trace.String() || len(tr.Spans) != 1 {
		t.Fatalf("trace response %+v, want 1 span under %s", tr, parent.Trace)
	}
	sp := tr.Spans[0]
	if sp.ParentID != parent.Span.String() {
		t.Errorf("span parent %q, want the propagated span %s", sp.ParentID, parent.Span)
	}
	if !sp.Root {
		t.Error("remote child span not marked as a local root")
	}
	if sp.Name != "GET /healthz" {
		t.Errorf("span name %q, want GET /healthz", sp.Name)
	}

	resp, err = http.Get(ts.URL + "/v1/traces?limit=5")
	if err != nil {
		t.Fatal(err)
	}
	listing := decodeBody[client.TracesResponse](t, resp)
	found := false
	for _, r := range listing.Traces {
		if r.TraceID == parent.Trace.String() {
			found = true
		}
	}
	if !found {
		t.Errorf("trace %s missing from the roots listing: %+v", parent.Trace, listing.Traces)
	}
	if listing.Dropped != 0 {
		t.Errorf("dropped = %d on a fresh recorder, want 0", listing.Dropped)
	}

	// Unknown trace IDs are a 404, bad limits a 400.
	for path, want := range map[string]int{
		"/v1/trace/00000000000000000000000000000000": http.StatusNotFound,
		"/v1/traces?limit=bogus":                     http.StatusBadRequest,
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// BenchmarkDiskHitRequest measures one JSON POST /v1/runs answered
// from the disk tier with tracing on, as a replica serves it: the
// request, run and tier.disk spans end on every request. Two specs
// alternate over a one-entry memo, so every request misses the memo.
func BenchmarkDiskHitRequest(b *testing.B) {
	batch, err := experiments.NewBatchWithCache(1, b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	batch.SetCacheLimit(1)
	s, err := New(Config{Batch: batch, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	var bodies [2][]byte
	for i, bench := range []string{"gzip", "swim"} {
		bodies[i] = []byte(`{"benchmark":"` + bench + `","model":"samie","insts":2000}`)
		batch.Run(experiments.RunSpec{Benchmark: bench, Model: experiments.ModelSAMIE, Insts: 2000})
	}
	post := func(body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
	post(bodies[0])
	diskHits := batch.StoreStats().Disk.Hits
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		i++
		post(bodies[i%2])
	}
	if got := batch.StoreStats().Disk.Hits - diskHits; got != int64(i) {
		b.Fatalf("%d of %d requests were disk hits", got, i)
	}
}
