package server

import (
	"encoding/json"
	"io"
	"log/slog"
	"testing"

	"samielsq/internal/experiments"
	"samielsq/pkg/client"
)

// fuzzInsts bounds the instructions, warm-up included, one
// FuzzValidSpec input may simulate.
const fuzzInsts = 2000

// fuzzDim bounds the structure sizes FuzzValidSpec simulates, so one
// input cannot allocate the hundreds of megabytes maxConfigDim admits.
const fuzzDim = 1 << 12

// FuzzValidSpec drives the request boundary through the simulator: a
// JSON run request is decoded, then normalized and validated exactly as
// POST /v1/runs vets it, and an accepted spec is simulated. Invariant:
// the request is rejected, or it runs without a panic.
func FuzzValidSpec(f *testing.F) {
	s, err := New(Config{
		Batch:        experiments.NewBatch(1),
		Logger:       slog.New(slog.NewTextHandler(io.Discard, nil)),
		DefaultInsts: fuzzInsts / 2,
		MaxInsts:     fuzzInsts,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req client.RunRequest
		if json.Unmarshal(body, &req) != nil {
			return
		}
		n, err := s.vet(req.RunSpec)
		if err != nil || n.Insts+n.Warmup > fuzzInsts || withinCaps(n, fuzzDim) != nil {
			return
		}
		experiments.Run(n)
	})
}
