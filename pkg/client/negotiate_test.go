package client_test

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"

	"samielsq/internal/core"
	"samielsq/internal/experiments"
	"samielsq/internal/server"
	"samielsq/pkg/client"
)

// TestRunNegotiatesWithServer runs the typed client against a real
// server: the first run goes as JSON, every later one as a spec
// record, and requests the server must refuse — an unknown model kind
// and a SAMIE line longer than the L1D line — get its 400 as an
// *APIError.
func TestRunNegotiatesWithServer(t *testing.T) {
	srv, err := server.New(server.Config{
		Batch:        experiments.NewBatch(1),
		Logger:       slog.New(slog.NewTextHandler(io.Discard, nil)),
		DefaultInsts: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var sent []string
	h := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mt, _ := client.RecordMediaType(r.Header.Get("Content-Type"))
		mu.Lock()
		sent = append(sent, mt)
		mu.Unlock()
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	c := client.New(ts.URL)
	ctx := context.Background()

	req := client.RunRequest{RunSpec: experiments.RunSpec{Benchmark: "gzip", Model: client.ModelSAMIE}}
	first, err := c.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if second.Key != first.Key || second.CPU != first.CPU {
		t.Errorf("spec-record run answered %+v, want %+v", second, first)
	}

	long := core.PaperConfig()
	long.LineBytes = 64
	for _, bad := range []client.RunRequest{
		{RunSpec: experiments.RunSpec{Benchmark: "gzip", Model: 7}},
		{RunSpec: experiments.RunSpec{Benchmark: "gzip", Model: client.ModelSAMIE, SAMIE: &long}},
	} {
		_, err := c.Run(ctx, bad)
		var ae *client.APIError
		if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
			t.Errorf("model %d: error %v, want the server's 400", bad.Model, err)
		}
	}
	want := []string{"application/json", client.SpecRecordType, client.SpecRecordType, client.SpecRecordType}
	mu.Lock()
	defer mu.Unlock()
	if !slices.Equal(sent, want) {
		t.Errorf("request bodies %q, want %q", sent, want)
	}
}
