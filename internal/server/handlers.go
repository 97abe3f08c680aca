package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"samielsq/internal/experiments"
	"samielsq/internal/obs"
	"samielsq/pkg/client"
)

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining() {
		// Shutting down: answer 503 so load balancers and coordinators
		// stop routing new work here while in-flight requests finish.
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// vet validates one run spec end to end, in whichever encoding it
// arrived — this server's instruction cap, the simulator's
// ValidateSpec, then this server's warm-up and geometry caps — and
// returns the normalized spec it describes.
func (s *Server) vet(spec experiments.RunSpec) (experiments.RunSpec, error) {
	// The cap applies to the raw spec first: Normalize derives the
	// default warm-up from Insts.
	var err error
	spec.Insts, err = s.capInsts(spec.Insts)
	if err != nil {
		return experiments.RunSpec{}, err
	}
	n, err := experiments.ValidateSpec(spec)
	if err != nil {
		return experiments.RunSpec{}, err
	}
	// Warm-up instructions are fully simulated before the measured
	// ones, so the cap must bound them too or a tiny-insts request
	// smuggles in an arbitrarily long simulation.
	if s.cfg.MaxInsts > 0 && n.Warmup > s.cfg.MaxInsts {
		return experiments.RunSpec{}, fmt.Errorf("warmup %d exceeds the server cap %d", n.Warmup, s.cfg.MaxInsts)
	}
	if err := withinCaps(n, maxConfigDim); err != nil {
		return experiments.RunSpec{}, err
	}
	return n, nil
}

// runResponseFor renders a batch result as the JSON wire response.
func runResponseFor(res experiments.RunResult) client.RunResponse {
	return client.ResponseFor(res, experiments.SimStamp())
}

// recordBufs holds the buffers writeRun encodes run records into (a
// record is about 1.4 KB). A writer must not retain what it is given
// (io.Writer), so a buffer is free again once its record is written.
var recordBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 2<<10)
	return &b
}}

// writeRun answers a run or probe request. A request whose Accept
// names this build's run-record layout (client.AcceptsRunRecord) gets
// the binary record; every other request — curl, non-Go clients, a
// client of another layout, and timeline requests, whose telemetry the
// record does not carry — gets the JSON response.
func writeRun(w http.ResponseWriter, r *http.Request, res experiments.RunResult, timeline bool) {
	w.Header().Add("Vary", "Accept")
	if !timeline && client.AcceptsRunRecord(r.Header.Get("Accept")) {
		buf := recordBufs.Get().(*[]byte)
		body := experiments.AppendRunRecord((*buf)[:0], res)
		w.Header().Set("Content-Type", client.RunRecordContentType)
		w.Header().Set("Content-Length", strconv.Itoa(len(body)))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(body)
		*buf = body
		recordBufs.Put(buf)
		return
	}
	resp := runResponseFor(res)
	if timeline {
		// Interval telemetry is opt-in per request: the payload is an
		// order of magnitude larger than the result itself, and only
		// runs this replica simulated carry one.
		resp.Timeline = res.Timeline
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleRun executes (or serves from the shared cache) one simulation.
// Two concurrent identical requests coalesce into a single run.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	spec, timeline, status, err := decodeRunRequest(w, r)
	if err != nil {
		writeError(w, status, err.Error())
		return
	}
	n, err := s.vet(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	res, err := s.batch.RunCtx(r.Context(), n)
	if err != nil {
		writeError(w, statusForError(err), fmt.Sprintf("run abandoned: %v", err))
		return
	}
	writeRun(w, r, res, timeline)
}

// decodeRunRequest reads a POST /v1/runs body as the spec it names and
// the request's timeline option. The request's media type picks the
// decoder: a spec record in this build's layout is decoded as a
// record, a spec record of any other layout is refused with 415 (the
// typed client then resends JSON), and every other body is JSON. On
// failure it returns the status to answer with.
func decodeRunRequest(w http.ResponseWriter, r *http.Request) (experiments.RunSpec, bool, int, error) {
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	mt, layout := client.RecordMediaType(r.Header.Get("Content-Type"))
	if mt == client.SpecRecordType {
		if layout != experiments.RunRecordLayout {
			return experiments.RunSpec{}, false, http.StatusUnsupportedMediaType,
				fmt.Errorf("spec record layout %q is not this server's layout %s; send JSON", layout, experiments.RunRecordLayout)
		}
		data, err := client.ReadRecordBody(body, r.ContentLength)
		if err != nil {
			return experiments.RunSpec{}, false, http.StatusBadRequest, fmt.Errorf("bad spec record: %v", err)
		}
		spec, timeline, err := experiments.DecodeSpecRecord(data)
		if err != nil {
			return experiments.RunSpec{}, false, http.StatusBadRequest, fmt.Errorf("bad spec record: %v", err)
		}
		return spec, timeline, 0, nil
	}
	req, err := client.DecodeRunRequest(body)
	if err != nil {
		return experiments.RunSpec{}, false, http.StatusBadRequest, fmt.Errorf("bad request body: %v", err)
	}
	return req.RunSpec, req.Timeline, 0, nil
}

// handleRunProbe answers whether the batch already holds the result
// for a canonical spec key — in memory or on disk — without ever
// simulating. 404 means "not cached", not "invalid": a cluster
// coordinator uses the distinction to decide where work must go.
func (s *Server) handleRunProbe(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	res, ok := s.batch.Cached(key)
	if !ok {
		s.probeMisses.Add(1)
		writeError(w, http.StatusNotFound, "run not cached")
		return
	}
	s.probeHits.Add(1)
	writeRun(w, r, res, false)
}

// handleRunTimeline streams a cached run's interval telemetry as
// NDJSON: one meta line ({"key","stride","samples"}), then one line
// per TimelineSample. 404 means the batch holds no timeline for the
// key — the run is not cached, or its result arrived via the disk or
// peer tier, which strip telemetry (only locally simulated runs carry
// it).
func (s *Server) handleRunTimeline(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	res, ok := s.batch.Cached(key)
	if !ok || res.Timeline == nil || len(res.Timeline.Samples) == 0 {
		writeError(w, http.StatusNotFound, "timeline not retained")
		return
	}
	t := res.Timeline
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	meta := struct {
		Key     string `json:"key"`
		Stride  uint64 `json:"stride"`
		Samples int    `json:"samples"`
	}{Key: key, Stride: t.Stride, Samples: len(t.Samples)}
	if err := enc.Encode(meta); err != nil {
		return
	}
	for _, ts := range t.Samples {
		if err := enc.Encode(ts); err != nil {
			return
		}
	}
}

// maxSuiteSpecs bounds one suite request's explicit shard. Every spec
// fans out a goroutine and a queued engine job while holding a single
// admission slot, so an unbounded list would let one request smuggle
// arbitrary load past the semaphore the way the /v1/runs caps exist to
// prevent. 4096 comfortably covers the largest legitimate shard (the
// full 26-benchmark suite is 962 distinct specs).
const maxSuiteSpecs = 4096

// handleSuite executes the shard a cluster coordinator assigned to
// this replica: exactly the specs the request names, 1 to
// maxSuiteSpecs of them. The response is NDJSON: one "run" event per
// completed simulation (in completion order) carrying the full run
// payload, then a final "result" event — or an "error" event that
// ends the stream.
func (s *Server) handleSuite(w http.ResponseWriter, r *http.Request) {
	// Shards embed whole config objects per spec, so the body cap is
	// generous relative to /v1/runs.
	req, err := client.DecodeSuiteRequest(http.MaxBytesReader(w, r.Body, 1<<24))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	if len(req.Specs) == 0 || len(req.Specs) > maxSuiteSpecs {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("a shard names 1 to %d specs, not %d", maxSuiteSpecs, len(req.Specs)))
		return
	}
	specs := make([]experiments.RunSpec, 0, len(req.Specs))
	for i, rr := range req.Specs {
		n, err := s.vet(rr.RunSpec)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("spec %d: %v", i, err))
			return
		}
		specs = append(specs, n)
	}
	if len(req.Peers) > 0 && s.cfg.PeerAdopt != nil {
		// The coordinator names the rest of its fleet; hand the list to
		// the peer-fetch tier before the shard's lookups begin.
		s.cfg.PeerAdopt(req.Peers)
	}
	s.suiteSpecs.Add(int64(len(specs)))

	emit := ndjsonEmitter(w)
	// A draining server cancels the stream so the terminal error event
	// below goes out while the connection is still writable.
	ctx, cancel := s.drainAware(r.Context())
	defer cancel()
	// Every run event carries the serving request's span context: a
	// coordinator resuming a truncated stream can then name the trace
	// each undelivered spec belonged to.
	tp := obs.SpanFromContext(ctx).TraceParent()
	if tp == "" {
		tp = r.Header.Get("traceparent")
	}
	_, err = s.batch.RunEachCtx(ctx, specs, func(res experiments.RunResult, done, total int) {
		rr := runResponseFor(res)
		emit(client.SuiteEvent{Type: "run", Run: &rr, Done: done, Total: total, Trace: tp})
	})
	if err != nil {
		if errors.Is(context.Cause(ctx), errDraining) {
			err = errDraining
		}
		if statusForError(err) == http.StatusInternalServerError {
			// A contained simulation failure, not a client that went
			// away: the error carries the panic stack, keep it in the
			// server log.
			s.log.Error("suite failed", "err", err.Error())
		}
		emit(client.SuiteEvent{Type: "error", Error: err.Error()})
		return
	}
	emit(client.SuiteEvent{Type: "result", Total: len(specs)})
}

// handleFigure regenerates one figure-table row — a paper figure, a
// static table or a registered scenario sweep — through the shared
// batch; the rendered text is byte-identical to the library harness
// output. Without ?bench the row's own default benchmarks apply.
func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	benchmarks, insts, err := s.sweepParams(r.URL.Query().Get("bench"), r.URL.Query().Get("insts"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	fig, ok := experiments.LookupFigure(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown figure %q (have %s)", name,
			strings.Join(append(client.FigureNames(), experiments.ScenarioNames()...), ", ")))
		return
	}
	if fig.Specs == nil {
		// A static table simulates nothing: it renders the same bytes
		// whatever benchmarks or budget the request names, and its
		// answer names neither.
		benchmarks, insts = nil, 0
	} else {
		benchmarks = fig.ResolveBenchmarks(benchmarks)
	}

	// The harnesses honor the request context: a timed-out or
	// disconnected client withdraws the row's queued simulations —
	// started or shared ones finish into the cache — so abandoned
	// figure work never outlives the admission slot that paid for it.
	// A panicking simulation surfaces as an error, not a crash.
	out, err := fig.Run(r.Context(), s.batch, benchmarks, insts)
	if err != nil {
		code := statusForError(err)
		if code == http.StatusInternalServerError {
			// A contained simulation failure, not a client that went
			// away: the error carries the panic stack, keep it in the
			// server log even if nobody reads the response.
			s.log.Error("figure failed", "figure", name, "err", err.Error())
		}
		writeError(w, code, fmt.Sprintf("figure %s: %v", name, err))
		return
	}
	raw, err := json.Marshal(out)
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("encoding figure: %v", err))
		return
	}
	writeJSON(w, http.StatusOK, client.FigureResponse{
		Figure:     name,
		Benchmarks: benchmarks,
		Insts:      insts,
		Text:       out.String(),
		Result:     raw,
	})
}

// handleScenarios lists the scenario rows of the figure table.
func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	names := experiments.ScenarioNames()
	out := make([]client.ScenarioInfo, 0, len(names))
	for _, name := range names {
		f, _ := experiments.LookupFigure(name)
		sc := f.Scenario
		info := client.ScenarioInfo{Name: sc.Name, Description: sc.Description, Benchmarks: sc.Benchmarks}
		for _, v := range sc.Variants {
			info.Variants = append(info.Variants, v.Name)
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleStats reports the engine/disk/process accounting.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statsSnapshot())
}

// sweepParams parses the shared bench/insts query parameters. The
// benchmarks are nil when bench is absent, for the row to resolve.
func (s *Server) sweepParams(benchCSV, instsStr string) ([]string, uint64, error) {
	var benchmarks []string
	if benchCSV != "" {
		benchmarks = strings.Split(benchCSV, ",")
		if err := validBenchmarks(benchmarks); err != nil {
			return nil, 0, err
		}
	}
	var insts uint64
	if instsStr != "" {
		v, err := strconv.ParseUint(instsStr, 10, 64)
		if err != nil || v == 0 {
			return nil, 0, fmt.Errorf("bad insts %q", instsStr)
		}
		insts = v
	}
	insts, err := s.capInsts(insts)
	if err != nil {
		return nil, 0, err
	}
	return benchmarks, insts, nil
}
