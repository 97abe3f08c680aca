package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"samielsq/internal/experiments"
	"samielsq/internal/faultinject"
	"samielsq/pkg/client"
)

// wireModels is one run request per LSQ model.
var wireModels = []client.RunRequest{
	{Benchmark: "gzip", Model: client.ModelConventional, Insts: testInsts},
	{Benchmark: "gzip", Model: client.ModelUnbounded, Insts: testInsts},
	{Benchmark: "gzip", Model: client.ModelARB, Insts: testInsts, ARBBanks: 64, ARBAddrs: 2, ARBInflight: 128},
	{Benchmark: "gzip", Model: client.ModelSAMIE, Insts: testInsts},
}

// fetchRun issues one run (body non-nil) or probe request with the
// given Accept header and returns the response's content type and
// body.
func fetchRun(t *testing.T, method, url string, body any, accept string) (string, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: status %d: %s", method, url, resp.StatusCode, raw)
	}
	if !strings.Contains(resp.Header.Get("Vary"), "Accept") {
		t.Errorf("%s %s: negotiated response without Vary: Accept", method, url)
	}
	return resp.Header.Get("Content-Type"), raw
}

// decodeWire decodes a run response body by its content type.
func decodeWire(t *testing.T, contentType string, raw []byte) client.RunResponse {
	t.Helper()
	if contentType == client.RunRecordContentType {
		res, sim, err := experiments.DecodeRunRecord(raw)
		if err != nil {
			t.Fatalf("binary run record rejected: %v", err)
		}
		return client.ResponseFor(res, sim)
	}
	if contentType != "application/json" {
		t.Fatalf("unexpected content type %q", contentType)
	}
	var out client.RunResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRunRecordMatchesJSON: for every LSQ model, on both the run and
// the probe endpoint, the binary record a Go client negotiates and the
// JSON every other client gets decode to the same RunResponse, and the
// JSON is exactly the bytes the server wrote before negotiation
// existed.
func TestRunRecordMatchesJSON(t *testing.T) {
	_, ts, batch := newTestServer(t, Config{})
	for _, req := range wireModels {
		t.Run(req.Model, func(t *testing.T) {
			jsonType, jsonBody := fetchRun(t, http.MethodPost, ts.URL+"/v1/runs", req, "")
			if jsonType != "application/json" {
				t.Fatalf("no Accept header: content type %q, want JSON", jsonType)
			}
			want := decodeWire(t, jsonType, jsonBody)
			// Only the conventional and SAMIE models account LSQ energy.
			accounted := req.Model == client.ModelConventional || req.Model == client.ModelSAMIE
			if want.Phases.Measured == 0 || accounted && want.LSQEnergyNJ == 0 {
				t.Fatalf("run lacks phases or energy to compare: %+v", want)
			}

			res, ok := batch.Cached(want.Key)
			if !ok {
				t.Fatal("run not cached")
			}
			rec := httptest.NewRecorder()
			writeJSON(rec, http.StatusOK, runResponseFor(res))
			if !bytes.Equal(jsonBody, rec.Body.Bytes()) {
				t.Errorf("JSON body differs from writeJSON(runResponseFor(...)):\n got %s\nwant %s", jsonBody, rec.Body.Bytes())
			}

			binType, binBody := fetchRun(t, http.MethodPost, ts.URL+"/v1/runs", req, client.RunRecordContentType)
			if binType != client.RunRecordContentType {
				t.Fatalf("record Accept: content type %q, want %q", binType, client.RunRecordContentType)
			}
			if got := decodeWire(t, binType, binBody); !reflect.DeepEqual(got, want) {
				t.Errorf("binary run differs from JSON run:\n got %+v\nwant %+v", got, want)
			}

			probe := ts.URL + "/v1/runs/" + url.PathEscape(want.Key)
			for _, accept := range []string{"", client.RunRecordContentType} {
				ct, body := fetchRun(t, http.MethodGet, probe, nil, accept)
				if (ct == client.RunRecordContentType) != (accept != "") {
					t.Errorf("probe with Accept %q answered %q", accept, ct)
				}
				if got := decodeWire(t, ct, body); !reflect.DeepEqual(got, want) {
					t.Errorf("probe (%s) differs from JSON run:\n got %+v\nwant %+v", ct, got, want)
				}
			}
		})
	}
}

// TestRunNegotiationFallsBackToJSON: only this build's exact layout
// selects the record; timeline requests always get JSON because the
// record carries no telemetry.
func TestRunNegotiationFallsBackToJSON(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	req := client.RunRequest{Benchmark: "gzip", Model: client.ModelSAMIE, Insts: testInsts}
	for _, accept := range []string{
		"application/json",
		client.RunRecordType,
		client.RunRecordType + "; layout=0",
		client.RunRecordType + "; layout=" + experiments.RunRecordLayout + "0",
		"text/plain; layout=" + experiments.RunRecordLayout,
	} {
		if ct, _ := fetchRun(t, http.MethodPost, ts.URL+"/v1/runs", req, accept); ct != "application/json" {
			t.Errorf("Accept %q: content type %q, want JSON", accept, ct)
		}
	}
	if ct, _ := fetchRun(t, http.MethodPost, ts.URL+"/v1/runs", req,
		"application/json, "+client.RunRecordContentType); ct != client.RunRecordContentType {
		t.Errorf("record in an Accept list: content type %q, want the record", ct)
	}

	timeline := req
	timeline.Insts = 2 * testInsts // a fresh simulation, so a timeline is retained
	timeline.Timeline = true
	ct, body := fetchRun(t, http.MethodPost, ts.URL+"/v1/runs", timeline, client.RunRecordContentType)
	if ct != "application/json" {
		t.Fatalf("timeline request: content type %q, want JSON", ct)
	}
	if out := decodeWire(t, ct, body); out.Timeline == nil || len(out.Timeline.Samples) == 0 {
		t.Error("timeline request answered without its timeline")
	}
}

// TestChaosTruncatedRunRecordIsAnError: a binary record cut mid-body
// is a client error, never a zero-valued result.
func TestChaosTruncatedRunRecordIsAnError(t *testing.T) {
	spec, _ := faultinject.ParseSpec("trunc=1,seed=3")
	s, ts, _ := newTestServer(t, Config{Chaos: spec})
	c := chaosClient(ts.URL)
	req := client.RunRequest{Benchmark: "gzip", Model: client.ModelSAMIE, Insts: testInsts}
	for range 200 {
		before := s.chaosCounts().Truncations
		out, err := c.Run(context.Background(), req)
		if s.chaosCounts().Truncations == before {
			// The cut fell past the end of the record.
			if err != nil {
				t.Fatalf("untruncated run failed: %v", err)
			}
			continue
		}
		if err == nil {
			t.Fatalf("truncated run record decoded without error: %+v", out)
		}
		if !reflect.DeepEqual(out, client.RunResponse{}) {
			t.Fatalf("truncated run returned a partial result: %+v", out)
		}
		return
	}
	t.Fatal("no truncation fell inside a run record")
}
