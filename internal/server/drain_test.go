package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"samielsq/internal/experiments"
	"samielsq/pkg/client"
)

// TestDrainAbortsLiveStreamWithTerminalEvent is the graceful-drain
// contract: BeginDrain mid-stream makes the in-flight NDJSON suite
// stream end with an explicit terminal error event — not a severed
// connection — and flips /healthz to 503 so nothing new is routed
// here.
func TestDrainAbortsLiveStreamWithTerminalEvent(t *testing.T) {
	// One worker and a long spec list keep the stream in flight while
	// the test flips the server into drain mode.
	s, ts, _ := newTestServer(t, Config{Batch: experiments.NewBatch(1)})

	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain healthz = %v/%v, want 200", resp, err)
	}

	// Each run is big enough (~tens of ms) that the single worker
	// cannot finish the whole list into the socket buffer before the
	// client has read the first event and begun the drain.
	var req client.SuiteRequest
	for i := 0; i < 16; i++ {
		req.Specs = append(req.Specs, client.RunRequest{
			Benchmark: "gzip", Insts: 1_000_000, Model: "conventional",
			ConvEntries: 8 + i,
		})
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/suite?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}

	var runs int
	var terminal *client.SuiteEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		var ev client.SuiteEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch ev.Type {
		case "run":
			runs++
			if runs == 1 {
				// The stream is live: begin the drain underneath it.
				s.BeginDrain()
			}
		case "error", "result":
			terminal = &ev
		}
		if terminal != nil {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream severed without a terminal event: %v (after %d runs)", err, runs)
	}
	if terminal == nil {
		t.Fatalf("stream ended with no terminal event after %d runs", runs)
	}
	if terminal.Type != "error" || !strings.Contains(terminal.Error, "draining") {
		t.Fatalf("terminal event %+v, want an error event naming the drain", terminal)
	}
	if runs == 16 {
		t.Fatal("every spec completed before the drain took effect; the test never exercised an in-flight abort")
	}

	// Draining flips liveness so orchestrators stop routing work here.
	after, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer after.Body.Close()
	if after.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", after.StatusCode)
	}
	if st := decodeBody[map[string]string](t, after); st["status"] != "draining" {
		t.Fatalf("draining healthz body %v", st)
	}
}

// TestDrainRejectsNewWork: simulation requests arriving after the
// drain began are turned away with a retryable 503 before any work is
// admitted, while cheap read-only endpoints keep answering so
// operators can still observe the process.
func TestDrainRejectsNewWork(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{Batch: experiments.NewBatch(1)})
	s.BeginDrain()

	sweep := postJSON(t, ts.URL+"/v1/suite?stream=1", client.SuiteRequest{
		Specs: []client.RunRequest{{Benchmark: "gzip", Insts: testInsts, Model: "samie"}},
	})
	defer sweep.Body.Close()
	if sweep.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST /v1/suite under drain = %d, want 503", sweep.StatusCode)
	}
	if e := decodeBody[client.ErrorResponse](t, sweep); !strings.Contains(e.Error, "draining") {
		t.Fatalf("drain rejection body %+v does not name the drain", e)
	}

	// Observability must outlive the drain: stats still answers.
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/stats under drain = %d, want 200", resp.StatusCode)
	}
}
