package main

import (
	"context"
	"io"
	"log/slog"
	"net"
	"net/http"
	"testing"

	"samielsq/internal/experiments"
	"samielsq/internal/server"
	"samielsq/pkg/client"
)

func TestHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(http.NewServeMux())
	if hs.ReadHeaderTimeout <= 0 {
		t.Error("ReadHeaderTimeout unset: a trickled request head holds a connection forever (slowloris)")
	}
	if hs.IdleTimeout <= 0 {
		t.Error("IdleTimeout unset: parked keep-alive connections are never reclaimed")
	}
	if hs.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %s, must stay 0 so long NDJSON suite streams are never severed", hs.WriteTimeout)
	}
}

// TestConfiguredServerStreamsScenario streams a scenario sweep's specs
// as a suite shard through the exact http.Server main builds, proving
// the header/idle timeouts do not sever a long-lived NDJSON response.
func TestConfiguredServerStreamsScenario(t *testing.T) {
	s, err := server.New(server.Config{
		Batch:        experiments.NewBatch(1),
		Logger:       slog.New(slog.NewTextHandler(io.Discard, nil)),
		DefaultInsts: 10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer(s.Handler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close() })

	specs, _, err := experiments.ScenarioSpecs("distrib-banking", []string{"gzip"}, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	var req client.SuiteRequest
	for _, spec := range specs {
		req.Specs = append(req.Specs, client.RequestFor(spec))
	}
	events, runs := 0, 0
	c := client.New("http://" + ln.Addr().String())
	err = c.Suite(context.Background(), req, func(ev client.SuiteEvent) {
		events++
		if ev.Type == "run" {
			runs++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if events != len(specs)+1 || runs != len(specs) {
		t.Errorf("stream through the configured server yielded %d events and %d runs for %d specs", events, runs, len(specs))
	}
}
