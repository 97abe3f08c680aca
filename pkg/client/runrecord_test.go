package client

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"testing"

	"samielsq/internal/energy"
	"samielsq/internal/experiments"
	"samielsq/internal/obs"
)

// recordResult is a small result with every wire-visible part set; it
// needs no simulation.
func recordResult() experiments.RunResult {
	n := experiments.Normalize(experiments.RunSpec{Benchmark: "gzip", Insts: 2000, Model: experiments.ModelSAMIE})
	m := energy.NewMeter()
	m.Distrib, m.Shared, m.NBusSends = 1.0/3, 2.5, 7
	res := experiments.RunResult{Key: experiments.Key(n), Spec: n, Meter: m}
	res.CPU.Cycles, res.CPU.IPC = 4000, 0.5
	res.SAMIE.PlacedDistrib = 11
	res.Phases = obs.PhaseTimes{QueueWait: 1e-6, DiskTier: 2.5e-5}
	return res
}

// fakeServer answers every request with handler after checking that
// the client asked for this build's run record.
func fakeServer(t *testing.T, handler func(w http.ResponseWriter)) *Client {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if got := r.Header.Get("Accept"); got != RunRecordContentType {
			t.Errorf("Accept %q, want %q", got, RunRecordContentType)
		}
		handler(w)
	}))
	t.Cleanup(ts.Close)
	return New(ts.URL, WithTransportRetries(-1))
}

// writeRecord answers with body as a binary run record.
func writeRecord(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", RunRecordContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body)
}

func TestAcceptsRunRecord(t *testing.T) {
	layout := experiments.RunRecordLayout
	for accept, want := range map[string]bool{
		RunRecordContentType:                           true,
		"application/json, " + RunRecordContentType:    true,
		RunRecordType + ";layout=" + layout + ";q=0.9": true,
		"":                           false,
		"application/json":           false,
		"*/*":                        false,
		RunRecordType:                false,
		RunRecordType + "; layout=0": false,
		RunRecordType + "; layout=" + layout + "0": false,
		"text/plain; layout=" + layout:             false,
	} {
		if got := AcceptsRunRecord(accept); got != want {
			t.Errorf("AcceptsRunRecord(%q) = %v, want %v", accept, got, want)
		}
	}
}

func TestRunDecodesRecord(t *testing.T) {
	res := recordResult()
	c := fakeServer(t, func(w http.ResponseWriter) { writeRecord(w, experiments.EncodeRunRecord(res)) })
	want := ResponseFor(res, experiments.SimStamp())
	got, err := c.Run(context.Background(), RunRequest{RunSpec: experiments.RunSpec{Benchmark: "gzip", Model: ModelSAMIE}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Run decoded %+v, want %+v", got, want)
	}
	got, ok, err := c.ProbeRun(context.Background(), res.Key)
	if err != nil || !ok {
		t.Fatalf("ProbeRun = ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ProbeRun decoded %+v, want %+v", got, want)
	}
}

// TestRunDecodesJSONWhenAskedForRecord covers a server that does not
// speak this build's record layout, such as an older build: it answers
// JSON, and the client decodes it all the same.
func TestRunDecodesJSONWhenAskedForRecord(t *testing.T) {
	want := ResponseFor(recordResult(), "older-build")
	c := fakeServer(t, func(w http.ResponseWriter) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(want)
	})
	got, err := c.Run(context.Background(), RunRequest{RunSpec: experiments.RunSpec{Benchmark: "gzip", Model: ModelSAMIE}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Run decoded %+v, want %+v", got, want)
	}
	if _, ok, err := c.ProbeRun(context.Background(), want.Key); err != nil || !ok {
		t.Errorf("ProbeRun over JSON = ok=%v err=%v", ok, err)
	}
}

// TestTruncatedRecordIsAnError: a record cut short — here with a
// matching Content-Length, so only the decoder can notice — is an
// error, never a zero-valued result.
func TestTruncatedRecordIsAnError(t *testing.T) {
	rec := experiments.EncodeRunRecord(recordResult())
	for _, n := range []int{0, 8, len(rec) / 2, len(rec) - 1} {
		c := fakeServer(t, func(w http.ResponseWriter) { writeRecord(w, rec[:n]) })
		out, err := c.Run(context.Background(), RunRequest{RunSpec: experiments.RunSpec{Benchmark: "gzip", Model: ModelSAMIE}})
		if err == nil || !reflect.DeepEqual(out, RunResponse{}) {
			t.Errorf("record truncated to %d of %d bytes: err %v, result %+v", n, len(rec), err, out)
		}
		if _, ok, err := c.ProbeRun(context.Background(), "k"); err == nil || ok {
			t.Errorf("probe of a record truncated to %d bytes = ok=%v err=%v", n, ok, err)
		}
	}
}

// BenchmarkDecodeRun compares the client's two decoders on one SAMIE
// run response (gzip, 2000 instructions): the JSON every server sends
// by default and the binary run record.
func BenchmarkDecodeRun(b *testing.B) {
	res := experiments.Run(experiments.RunSpec{Benchmark: "gzip", Insts: 2000, Model: experiments.ModelSAMIE})
	jsonBody, err := json.Marshal(ResponseFor(res, experiments.SimStamp()))
	if err != nil {
		b.Fatal(err)
	}
	for _, enc := range []struct {
		name, contentType string
		body              []byte
	}{
		{"json", "application/json", jsonBody},
		{"record", RunRecordContentType, experiments.EncodeRunRecord(res)},
	} {
		b.Run(enc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(enc.body)))
			for b.Loop() {
				resp := &http.Response{
					Header:        http.Header{"Content-Type": {enc.contentType}},
					Body:          io.NopCloser(bytes.NewReader(enc.body)),
					ContentLength: int64(len(enc.body)),
				}
				if _, _, err := decodeRun(resp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// layoutServer is a fake /v1/runs server that logs the media type of
// every request body. While speaksLayout is set it behaves like a
// server of this build's layout: spec records are decoded and answered
// with run records. Otherwise it behaves like a server of another
// layout: spec records get 415 and every answer is JSON.
type layoutServer struct {
	mu           sync.Mutex
	speaksLayout bool
	bodies       []string // request media types, in arrival order
}

func (f *layoutServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	mt, _ := RecordMediaType(r.Header.Get("Content-Type"))
	f.mu.Lock()
	f.bodies = append(f.bodies, mt)
	speaks := f.speaksLayout
	f.mu.Unlock()
	if mt == SpecRecordType && !speaks {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusUnsupportedMediaType)
		_ = json.NewEncoder(w).Encode(ErrorResponse{Error: "spec record layout is not this server's layout"})
		return
	}
	if mt == SpecRecordType {
		data, _ := io.ReadAll(r.Body)
		if _, _, err := experiments.DecodeSpecRecord(data); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	res := recordResult()
	if speaks {
		writeRecord(w, experiments.EncodeRunRecord(res))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(ResponseFor(res, "other-build"))
}

// setLayout switches the fake between this build's layout and another.
func (f *layoutServer) setLayout(ours bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.speaksLayout = ours
}

// sent returns the request media types logged so far.
func (f *layoutServer) sent() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.bodies...)
}

// newLayoutServer starts a layoutServer and a client for it.
func newLayoutServer(t *testing.T, ours bool) (*layoutServer, *Client) {
	t.Helper()
	f := &layoutServer{speaksLayout: ours}
	ts := httptest.NewServer(f)
	t.Cleanup(ts.Close)
	return f, New(ts.URL, WithTransportRetries(-1))
}

// TestRunSendsSpecRecordsOnceNegotiated: a fresh client's first run
// goes as JSON; once the answer proves the server speaks this build's
// layout, runs go as spec records, and concurrent runs agree.
func TestRunSendsSpecRecordsOnceNegotiated(t *testing.T) {
	f, c := newLayoutServer(t, true)
	req := RunRequest{RunSpec: experiments.RunSpec{Benchmark: "gzip", Model: ModelSAMIE}}
	for range 2 {
		if _, err := c.Run(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := f.sent(), []string{"application/json", SpecRecordType}; !slices.Equal(got, want) {
		t.Fatalf("request bodies %q, want %q", got, want)
	}
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Run(context.Background(), req); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i, mt := range f.sent()[2:] {
		if mt != SpecRecordType {
			t.Errorf("concurrent run %d went as %q", i, mt)
		}
	}
}

// TestProbeRecordNegotiatesSpecRecords: a probe answered in this
// build's layout is proof enough for the next run.
func TestProbeRecordNegotiatesSpecRecords(t *testing.T) {
	f, c := newLayoutServer(t, true)
	if _, ok, err := c.ProbeRun(context.Background(), "k"); err != nil || !ok {
		t.Fatalf("probe: ok=%v err=%v", ok, err)
	}
	if _, err := c.Run(context.Background(), RunRequest{RunSpec: experiments.RunSpec{Benchmark: "gzip", Model: ModelSAMIE}}); err != nil {
		t.Fatal(err)
	}
	if got := f.sent(); len(got) != 2 || got[1] != SpecRecordType {
		t.Fatalf("request bodies %q, want the run after a record probe as a spec record", got)
	}
}

// TestRunFallsBackToJSONOn415 covers a server rebuilt with another
// layout behind the same URL: its 415 sends the client back to JSON
// for that request and every later one.
func TestRunFallsBackToJSONOn415(t *testing.T) {
	f, c := newLayoutServer(t, true)
	req := RunRequest{RunSpec: experiments.RunSpec{Benchmark: "gzip", Model: ModelSAMIE}}
	if _, err := c.Run(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	f.setLayout(false)
	for range 3 {
		out, err := c.Run(context.Background(), req)
		if err != nil {
			t.Fatalf("run after the rebuild: %v", err)
		}
		if out.Sim != "other-build" {
			t.Fatalf("answer from %q, want the rebuilt server's JSON", out.Sim)
		}
	}
	want := []string{"application/json", SpecRecordType, "application/json", "application/json", "application/json"}
	if got := f.sent(); !slices.Equal(got, want) {
		t.Fatalf("request bodies %q, want %q", got, want)
	}
}

// TestJSONOnlyServerNeverGetsSpecRecords: a server that has never
// answered in this build's layout only ever receives JSON.
func TestJSONOnlyServerNeverGetsSpecRecords(t *testing.T) {
	f, c := newLayoutServer(t, false)
	for range 3 {
		if _, err := c.Run(context.Background(), RunRequest{RunSpec: experiments.RunSpec{Benchmark: "gzip", Model: ModelSAMIE}}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.ProbeRun(context.Background(), "k"); err != nil {
			t.Fatal(err)
		}
	}
	for i, mt := range f.sent() {
		if mt != "application/json" && mt != "" {
			t.Errorf("request %d went as %q", i, mt)
		}
	}
}

// TestReadRecordBody: the body is read to its declared length, and a
// declared or actual length above maxRunRecord is refused.
func TestReadRecordBody(t *testing.T) {
	body := bytes.Repeat([]byte{7}, 100)
	for _, length := range []int64{100, -1} {
		got, err := ReadRecordBody(bytes.NewReader(body), length)
		if err != nil || !bytes.Equal(got, body) {
			t.Errorf("length %d: read %d bytes, err %v", length, len(got), err)
		}
	}
	if _, err := ReadRecordBody(bytes.NewReader(body), 101); err == nil {
		t.Error("a body shorter than its declared length was accepted")
	}
	if _, err := ReadRecordBody(bytes.NewReader(body), maxRunRecord+1); err == nil {
		t.Error("a declared length above the cap was accepted")
	}
	if _, err := ReadRecordBody(bytes.NewReader(make([]byte, maxRunRecord+1)), -1); err == nil {
		t.Error("an undeclared body above the cap was accepted")
	}
}
