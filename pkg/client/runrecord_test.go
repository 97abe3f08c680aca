package client

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
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
	got, err := c.Run(context.Background(), RunRequest{Benchmark: "gzip", Model: ModelSAMIE})
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
	got, err := c.Run(context.Background(), RunRequest{Benchmark: "gzip", Model: ModelSAMIE})
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
		out, err := c.Run(context.Background(), RunRequest{Benchmark: "gzip", Model: ModelSAMIE})
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
				if _, err := decodeRun(resp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
