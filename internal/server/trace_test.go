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

// diskHitRequests serves POST /v1/runs from the disk tier with tracing
// on, as a replica serves it: the request, run and tier.disk spans end
// on every request. Two specs alternate over a one-entry memo, so
// every request misses the memo. With record set the requests are
// what the typed client sends after its first: a spec record body
// that accepts a run record in return; otherwise they are JSON. The
// returned post answers the next request and fails tb unless it is a
// 200 (a run record, with record set); hits counts the disk hits so
// far.
func diskHitRequests(tb testing.TB, record bool) (post func(), hits func() int64) {
	batch, err := experiments.NewBatchWithCache(1, tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	batch.SetCacheLimit(1)
	s, err := New(Config{Batch: batch, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		tb.Fatal(err)
	}
	h := s.Handler()
	var bodies [2][]byte
	for i, bench := range []string{"gzip", "swim"} {
		spec := experiments.RunSpec{Benchmark: bench, Model: experiments.ModelSAMIE, Insts: 2000}
		batch.Run(spec)
		if record {
			bodies[i] = experiments.EncodeSpecRecord(spec, false)
		} else {
			bodies[i] = []byte(`{"benchmark":"` + bench + `","model":"samie","insts":2000}`)
		}
	}
	i := 0
	post = func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(bodies[i%2]))
		i++
		if record {
			req.Header.Set("Content-Type", client.SpecRecordContentType)
			req.Header.Set("Accept", client.RunRecordContentType)
		} else {
			req.Header.Set("Content-Type", "application/json")
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			tb.Fatalf("status %d: %s", w.Code, w.Body)
		}
		if ct := w.Header().Get("Content-Type"); record && ct != client.RunRecordContentType {
			tb.Fatalf("answered %s, want a run record", ct)
		}
	}
	post()
	return post, func() int64 { return batch.StoreStats().Disk.Hits }
}

// BenchmarkDiskHitRequest measures one POST /v1/runs answered from the
// disk tier (diskHitRequests), as JSON and as the spec and run records
// the typed client exchanges.
func BenchmarkDiskHitRequest(b *testing.B) {
	for _, c := range []struct {
		name   string
		record bool
	}{{"json", false}, {"record", true}} {
		b.Run(c.name, func(b *testing.B) {
			post, hits := diskHitRequests(b, c.record)
			before := hits()
			b.ReportAllocs()
			n := 0
			for b.Loop() {
				n++
				post()
			}
			if got := hits() - before; got != int64(n) {
				b.Fatalf("%d of %d requests were disk hits", got, n)
			}
		})
	}
}

// maxDiskHitRequestAllocs bounds the allocations of one record POST
// /v1/runs answered from the disk tier: request parsing, the three
// spans, the artifact read and decode, the run record and the log
// line.
const maxDiskHitRequestAllocs = 74

// TestDiskHitRequestAllocs holds the record disk-hit request, the
// request serve-zipf's typed clients send most, to its allocation
// budget.
func TestDiskHitRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts do not hold under the race detector")
	}
	post, hits := diskHitRequests(t, true)
	before := hits()
	n := testing.AllocsPerRun(50, post)
	if got := hits() - before; got != 51 {
		t.Fatalf("%d of 51 requests were disk hits", got)
	}
	if n > maxDiskHitRequestAllocs {
		t.Errorf("a record disk-hit request allocates %v times, want at most %d", n, maxDiskHitRequestAllocs)
	}
}
