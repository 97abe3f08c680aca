package server

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"samielsq/internal/experiments"
	"samielsq/internal/obs"
	"samielsq/pkg/client"
)

// TestRunTimelineOptInAndEndpoint: the run response carries interval
// telemetry only when the request asked for it, and the NDJSON
// endpoint streams the cached run's samples (meta line first).
func TestRunTimelineOptInAndEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})

	// Without the opt-in the payload stays lean.
	resp := postJSON(t, ts.URL+"/v1/runs", client.RunRequest{RunSpec: experiments.RunSpec{Benchmark: "gzip", Model: client.ModelSAMIE}})
	lean := decodeBody[client.RunResponse](t, resp)
	if lean.Timeline != nil {
		t.Fatal("timeline attached without opt-in")
	}

	// Opted in: same simulation (memoized), now with the timeline.
	resp = postJSON(t, ts.URL+"/v1/runs", client.RunRequest{RunSpec: experiments.RunSpec{Benchmark: "gzip", Model: client.ModelSAMIE}, Timeline: true})
	full := decodeBody[client.RunResponse](t, resp)
	if full.Key != lean.Key || full.CPU != lean.CPU {
		t.Fatal("timeline opt-in changed the run identity or result")
	}
	if full.Timeline == nil || len(full.Timeline.Samples) == 0 {
		t.Fatal("opted-in response carries no timeline")
	}

	// The NDJSON endpoint serves the same samples.
	httpResp, err := http.Get(ts.URL + "/v1/runs/" + full.Key + "/timeline")
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("timeline endpoint status %d", httpResp.StatusCode)
	}
	if ct := httpResp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(httpResp.Body)
	if !sc.Scan() {
		t.Fatal("empty NDJSON body")
	}
	var meta struct {
		Key     string `json:"key"`
		Stride  uint64 `json:"stride"`
		Samples int    `json:"samples"`
	}
	if err := json.Unmarshal(sc.Bytes(), &meta); err != nil {
		t.Fatalf("meta line: %v", err)
	}
	if meta.Key != full.Key || meta.Stride != full.Timeline.Stride || meta.Samples != len(full.Timeline.Samples) {
		t.Fatalf("meta %+v disagrees with the run response (stride %d, %d samples)",
			meta, full.Timeline.Stride, len(full.Timeline.Samples))
	}
	var samples []obs.TimelineSample
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var s obs.TimelineSample
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("sample line: %v", err)
		}
		samples = append(samples, s)
	}
	if len(samples) != len(full.Timeline.Samples) || samples[0] != full.Timeline.Samples[0] {
		t.Fatalf("NDJSON samples disagree with the run response: %d vs %d", len(samples), len(full.Timeline.Samples))
	}

	// Unknown keys 404.
	httpResp, err = http.Get(ts.URL + "/v1/runs/nope/timeline")
	if err != nil {
		t.Fatal(err)
	}
	httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown key status %d, want 404", httpResp.StatusCode)
	}
}

// TestClientTimelineRoundTrip drives the typed client against the
// NDJSON endpoint.
func TestClientTimelineRoundTrip(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	cl := client.New(ts.URL)

	res, err := cl.Run(t.Context(), client.RunRequest{RunSpec: experiments.RunSpec{Benchmark: "gzip", Model: client.ModelSAMIE}, Timeline: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Timeline == nil {
		t.Fatal("client run response lost the timeline")
	}

	tl, ok, err := cl.Timeline(t.Context(), res.Key)
	if err != nil || !ok {
		t.Fatalf("Timeline(%q) = ok=%v err=%v", res.Key, ok, err)
	}
	if tl.Stride != res.Timeline.Stride || len(tl.Samples) != len(res.Timeline.Samples) {
		t.Fatalf("client timeline disagrees: stride %d/%d, samples %d/%d",
			tl.Stride, res.Timeline.Stride, len(tl.Samples), len(res.Timeline.Samples))
	}

	// A key the server never simulated is a clean miss, not an error.
	_, ok, err = cl.Timeline(t.Context(), "missing-key")
	if err != nil || ok {
		t.Fatalf("missing key: ok=%v err=%v, want miss without error", ok, err)
	}
}
