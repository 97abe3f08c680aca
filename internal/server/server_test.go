package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"samielsq/internal/core"
	"samielsq/internal/cpu"
	"samielsq/internal/experiments"
	"samielsq/pkg/client"
)

// testInsts keeps handler tests in the tens of milliseconds.
const testInsts = 5_000

// newTestServer boots a service over a fresh batch and returns both.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *experiments.Batch) {
	t.Helper()
	if cfg.Batch == nil {
		cfg.Batch = experiments.NewBatch(2)
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.DefaultInsts == 0 {
		cfg.DefaultInsts = testInsts
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, cfg.Batch
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestRunEndpointExecutesAndDedups(t *testing.T) {
	_, ts, batch := newTestServer(t, Config{})
	req := client.RunRequest{Benchmark: "gzip", Model: client.ModelSAMIE}

	resp := postJSON(t, ts.URL+"/v1/runs", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	out := decodeBody[client.RunResponse](t, resp)
	if out.CPU.IPC <= 0 || out.Key == "" || out.Model != client.ModelSAMIE {
		t.Fatalf("implausible response: %+v", out)
	}
	if out.Insts != testInsts || out.Warmup != testInsts/2 {
		t.Fatalf("defaults not normalized: insts=%d warmup=%d", out.Insts, out.Warmup)
	}

	// The same request again is a pure cache hit.
	resp2 := postJSON(t, ts.URL+"/v1/runs", req)
	out2 := decodeBody[client.RunResponse](t, resp2)
	if out2.CPU != out.CPU {
		t.Error("repeated run returned a different result")
	}
	if st := batch.Stats(); st.Executed != 1 || st.Hits != 1 {
		t.Fatalf("dedup failed: %+v", st)
	}

	// A cpu object from an older build may still carry the removed
	// LegacyIssueWalk field. Unknown fields are ignored, so the body
	// names the same simulation as the default spec: same key, same
	// result, served from the cache.
	paper, err := json.Marshal(cpu.PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	withLegacy := strings.Replace(string(paper), "}", `,"LegacyIssueWalk":true}`, 1)
	resp3, err := http.Post(ts.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"benchmark":"gzip","model":"samie","cpu":`+withLegacy+`}`))
	if err != nil {
		t.Fatal(err)
	}
	out3 := decodeBody[client.RunResponse](t, resp3)
	if resp3.StatusCode != http.StatusOK || out3.Key != out.Key || out3.CPU != out.CPU {
		t.Fatalf("cpu object with LegacyIssueWalk: status %d, key %q, result %+v; want the default spec's key %q and result",
			resp3.StatusCode, out3.Key, out3.CPU, out.Key)
	}
	if st := batch.Stats(); st.Executed != 1 || st.Hits != 2 {
		t.Fatalf("LegacyIssueWalk body was not a cache hit: %+v", st)
	}
}

func TestRunEndpointValidation(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{MaxInsts: 100_000})
	for name, body := range map[string]any{
		"bad_model":     client.RunRequest{Benchmark: "gzip", Model: "quantum"},
		"bad_benchmark": client.RunRequest{Benchmark: "nope", Model: client.ModelSAMIE},
		"insts_cap":     client.RunRequest{Benchmark: "gzip", Model: client.ModelSAMIE, Insts: 1_000_000},
		"warmup_cap":    client.RunRequest{Benchmark: "gzip", Model: client.ModelSAMIE, Insts: 1, Warmup: 1 << 60},
		"bad_samie_cfg": client.RunRequest{Benchmark: "gzip", Model: client.ModelSAMIE, SAMIE: &core.Config{}},
		"huge_samie": client.RunRequest{Benchmark: "gzip", Model: client.ModelSAMIE, Insts: 1,
			SAMIE: &core.Config{Banks: 1 << 30, EntriesPerBank: 1, SlotsPerEntry: 1, AddrBufferSlots: 1, LineBytes: 32}},
		"neg_conv": client.RunRequest{Benchmark: "gzip", Model: client.ModelConventional, ConvEntries: -1},
		"not_json": "}{",
	} {
		resp := postJSON(t, ts.URL+"/v1/runs", body)
		er := decodeBody[client.ErrorResponse](t, resp)
		if resp.StatusCode != http.StatusBadRequest || er.Error == "" {
			t.Errorf("%s: status %d, error %q; want 400 with message", name, resp.StatusCode, er.Error)
		}
	}
	// The instruction cap applies before the spec is validated, so a
	// request both over the cap and invalid reports the cap.
	resp := postJSON(t, ts.URL+"/v1/runs", client.RunRequest{Benchmark: "nope", Model: client.ModelSAMIE, Insts: 1_000_000})
	if er := decodeBody[client.ErrorResponse](t, resp); !strings.Contains(er.Error, "exceeds the server cap") {
		t.Errorf("over-cap invalid spec reported %q, want the instruction cap", er.Error)
	}
}

// decodeFigure decodes a figure endpoint's structured result as the
// typed harness result T.
func decodeFigure[T fmt.Stringer](raw []byte) (fmt.Stringer, error) {
	var v T
	err := json.Unmarshal(raw, &v)
	return v, err
}

// TestFigureEndpointMatchesLibrary walks every paper row of the
// figure table: the endpoint's text must be byte-identical to the
// typed Batch method or table function, and its structured result must
// decode as that result type and re-render the same text.
func TestFigureEndpointMatchesLibrary(t *testing.T) {
	_, ts, batch := newTestServer(t, Config{})
	bench := []string{"gzip"}
	library := map[string]struct {
		text   string
		decode func([]byte) (fmt.Stringer, error)
	}{
		"1":      {batch.Figure1(bench, testInsts).String(), decodeFigure[experiments.Figure1Result]},
		"3":      {batch.Figure3(bench, testInsts).String(), decodeFigure[experiments.Figure3Result]},
		"4":      {batch.Figure4(bench, testInsts, nil).String(), decodeFigure[experiments.Figure4Result]},
		"56":     {batch.Figure56(bench, testInsts).String(), decodeFigure[experiments.Figure56Result]},
		"energy": {batch.Energy(bench, testInsts).String(), decodeFigure[experiments.EnergyResult]},

		"table1":    {experiments.Table1().String(), decodeFigure[experiments.Table1Result]},
		"delays":    {experiments.Delays().String(), decodeFigure[experiments.DelayResult]},
		"tables456": {experiments.Tables456().String(), decodeFigure[experiments.Tables456Result]},

		"claims": {experiments.Claims(batch.Figure56(bench, testInsts), batch.Energy(bench, testInsts)).String(), decodeFigure[experiments.ClaimsResult]},
	}
	for _, fig := range experiments.Figures() {
		lib, ok := library[fig.Name]
		if !ok {
			t.Errorf("figure %s has no typed Batch method to compare against", fig.Name)
			continue
		}
		resp, err := http.Get(ts.URL + "/v1/figures/" + fig.Name + "?bench=gzip&insts=" + strconv.Itoa(testInsts))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("figure %s: status %d", fig.Name, resp.StatusCode)
		}
		out := decodeBody[client.FigureResponse](t, resp)
		if out.Text != lib.text {
			t.Errorf("figure %s text differs from library harness\nserver:\n%s\nlibrary:\n%s", fig.Name, out.Text, lib.text)
		}
		parsed, err := lib.decode(out.Result)
		if err != nil || parsed.String() != lib.text {
			t.Errorf("figure %s: structured result unusable: %v %+v", fig.Name, err, parsed)
		}
	}

	if resp, _ := http.Get(ts.URL + "/v1/figures/99"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown figure gave %d, want 404", resp.StatusCode)
	}
	if resp, _ := http.Get(ts.URL + "/v1/figures/56?bench=nope"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown benchmark gave %d, want 400", resp.StatusCode)
	}
}

// TestScenarioEndpoints checks the scenario listing and a scenario
// row served through the figure endpoint: the same text as the library
// sweep, the ScenarioResult as the structured result, and a 404 that
// names the valid rows for an unknown name.
func TestScenarioEndpoints(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	infos := decodeBody[[]client.ScenarioInfo](t, resp)
	if len(infos) != len(experiments.ScenarioNames()) {
		t.Fatalf("%d scenarios listed, want the table's %d", len(infos), len(experiments.ScenarioNames()))
	}
	for _, info := range infos {
		if info.Name == "" || len(info.Variants) == 0 {
			t.Fatalf("malformed scenario info: %+v", info)
		}
	}

	resp, err = http.Get(ts.URL + "/v1/figures/shared-lsq-sizes?bench=gzip&insts=" + strconv.Itoa(testInsts))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	out := decodeBody[client.FigureResponse](t, resp)
	var res experiments.ScenarioResult
	if err := json.Unmarshal(out.Result, &res); err != nil || len(res.IPC) != 1 || len(res.IPC[0]) != 5 {
		t.Fatalf("sweep result %+v (%v), want 1x5", res, err)
	}
	direct, err := experiments.NewBatch(0).Scenario(context.Background(), "shared-lsq-sizes", []string{"gzip"}, testInsts)
	if err != nil {
		t.Fatal(err)
	}
	if out.Text != direct.String() || res.String() != out.Text {
		t.Errorf("served sweep differs from the library\nserver:\n%s\nlibrary:\n%s", out.Text, direct.String())
	}

	resp, err = http.Get(ts.URL + "/v1/figures/no-such")
	if err != nil {
		t.Fatal(err)
	}
	if msg := decodeBody[client.ErrorResponse](t, resp).Error; resp.StatusCode != http.StatusNotFound ||
		!strings.Contains(msg, "energy") || !strings.Contains(msg, "shared-lsq-sizes") {
		t.Errorf("unknown row gave %d %q, want a 404 naming the valid rows", resp.StatusCode, msg)
	}
}

// TestStaticFigureRows: the static tables simulate nothing, so their
// answer names no benchmarks or budget whatever the query says, and
// they bypass the admission semaphore — a saturated server still
// answers them, while a row that simulates is shed.
func TestStaticFigureRows(t *testing.T) {
	s, ts, batch := newTestServer(t, Config{MaxConcurrent: 1})
	for _, name := range []string{"table1", "delays", "tables456"} {
		resp, err := http.Get(ts.URL + "/v1/figures/" + name + "?bench=gzip&insts=5")
		if err != nil {
			t.Fatal(err)
		}
		raw := decodeBody[map[string]json.RawMessage](t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", name, resp.StatusCode)
		}
		for _, key := range []string{"benchmarks", "insts"} {
			if v, ok := raw[key]; ok {
				t.Errorf("%s: answer carries %q = %s", name, key, v)
			}
		}
		fig, _ := experiments.LookupFigure(name)
		want, err := fig.Run(context.Background(), batch, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		var text string
		if err := json.Unmarshal(raw["text"], &text); err != nil || text != want.String() {
			t.Errorf("%s: text %q (%v), want the row's rendering", name, text, err)
		}
	}

	// Hold the only admission slot, as an admitted slow request would.
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	for path, want := range map[string]int{
		"/v1/figures/table1": http.StatusOK,
		"/v1/figures/1":      http.StatusTooManyRequests,
	} {
		resp, err := http.Get(ts.URL + path + "?bench=gzip")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("saturated: GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

func TestSaturationSheds429(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{MaxConcurrent: 1})
	// Hold the admission semaphore's only slot, as an admitted slow
	// request would.
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	resp := postJSON(t, ts.URL+"/v1/runs", client.RunRequest{Benchmark: "gzip", Model: client.ModelSAMIE})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After")
	} else if secs, err := strconv.Atoi(ra); err != nil || secs <= 0 {
		t.Errorf("bad Retry-After %q", ra)
	}
	er := decodeBody[client.ErrorResponse](t, resp)
	if !strings.Contains(er.Error, "saturated") {
		t.Errorf("error %q does not explain the shed", er.Error)
	}
	// Cheap endpoints stay reachable while saturated.
	if hr, err := http.Get(ts.URL + "/healthz"); err != nil || hr.StatusCode != http.StatusOK {
		t.Errorf("healthz unavailable under saturation: %v %v", hr, err)
	}
	if st := s.statsSnapshot(); st.Throttled != 1 {
		t.Errorf("throttled count %d, want 1", st.Throttled)
	}
}

func TestRequestTimeoutCancelsQueuedRun(t *testing.T) {
	batch := experiments.NewBatch(1)
	_, ts, _ := newTestServer(t, Config{Batch: batch, RequestTimeout: 30 * time.Millisecond})

	// Occupy the single worker slot with a long simulation submitted
	// directly to the batch.
	hog := make(chan struct{})
	go func() {
		defer close(hog)
		batch.Run(experiments.RunSpec{Benchmark: "swim", Insts: 400_000, Model: experiments.ModelSAMIE})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for batch.Stats().Inflight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("hog simulation never started")
		}
		time.Sleep(time.Millisecond)
	}

	// This request queues behind the hog and must be withdrawn by its
	// deadline with 504, not leak a worker slot.
	resp := postJSON(t, ts.URL+"/v1/runs", client.RunRequest{Benchmark: "gzip", Model: client.ModelSAMIE})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	er := decodeBody[client.ErrorResponse](t, resp)
	if !strings.Contains(er.Error, "abandoned") {
		t.Errorf("error %q does not explain the cancellation", er.Error)
	}
	if st := batch.Stats(); st.Canceled == 0 {
		t.Errorf("engine never recorded the cancellation: %+v", st)
	}
	<-hog
}

// TestRequestTimeoutCancelsQueuedFigure verifies the figure endpoints
// honor the request deadline: queued simulations are withdrawn (no
// background work survives the 504) instead of running to completion
// in an untracked goroutine.
func TestRequestTimeoutCancelsQueuedFigure(t *testing.T) {
	batch := experiments.NewBatch(1)
	_, ts, _ := newTestServer(t, Config{Batch: batch, RequestTimeout: 30 * time.Millisecond})

	// Occupy the single worker slot so the figure's simulations queue.
	hog := make(chan struct{})
	go func() {
		defer close(hog)
		batch.Run(experiments.RunSpec{Benchmark: "swim", Insts: 400_000, Model: experiments.ModelSAMIE})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for batch.Stats().Inflight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("hog simulation never started")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Get(ts.URL + "/v1/figures/56?bench=gzip&insts=" + strconv.Itoa(testInsts))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	er := decodeBody[client.ErrorResponse](t, resp)
	if !strings.Contains(er.Error, "figure 56") {
		t.Errorf("error %q does not name the figure", er.Error)
	}
	if st := batch.Stats(); st.Canceled == 0 {
		t.Errorf("engine never recorded the figure cancellation: %+v", st)
	}
	// Nothing but the hog may execute: the timed-out figure's queued
	// simulations were withdrawn, not left running in the background.
	<-hog
	if st := batch.Stats(); st.Executed != 1 {
		t.Errorf("abandoned figure work executed anyway: %+v", st)
	}
}

// TestRecoveryInsideLogging verifies the middleware order Handler()
// uses: a panic becomes a 500 inside the logging wrapper, so the
// request still produces a log line and counts toward the served
// total instead of vanishing from monitoring.
func TestRecoveryInsideLogging(t *testing.T) {
	var buf bytes.Buffer
	s, err := New(Config{
		Batch:  experiments.NewBatch(1),
		Logger: slog.New(slog.NewTextHandler(&buf, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	h := s.withLogging(s.withRecovery(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	})))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/panicking", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if got := s.served.Load(); got != 1 {
		t.Errorf("served count %d, want 1: panicking request escaped accounting", got)
	}
	log := buf.String()
	if !strings.Contains(log, "status=500") || !strings.Contains(log, "/panicking") {
		t.Errorf("request log missing the panicking request:\n%s", log)
	}
}

func TestMetricsExposition(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	postJSON(t, ts.URL+"/v1/runs", client.RunRequest{Benchmark: "gzip", Model: client.ModelSAMIE}).Body.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	values := map[string]float64{}
	families := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("unparseable metric line %q", line)
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("non-numeric metric value in %q", line)
		}
		values[fields[0]] = v
		name, _, _ := strings.Cut(fields[0], "{")
		families[name] = true
	}
	for _, want := range []string{
		"samie_engine_requests_total", "samie_engine_executed_total", "samie_engine_hits_total",
		"samie_engine_inflight", "samie_disk_cache_hits_total", "samie_disk_cache_misses_total",
		"samie_http_requests_total", "samie_http_throttled_total", "samie_process_goroutines",
		"samie_uptime_seconds", "samie_build_info", "samie_http_request_seconds_bucket",
		"samie_run_phase_seconds_bucket",
	} {
		if !families[want] {
			t.Errorf("metric family %s missing", want)
		}
	}
	if values["samie_engine_executed_total"] != 1 {
		t.Errorf("executed metric %v, want 1", values["samie_engine_executed_total"])
	}
	// The run request landed on POST /v1/runs with a 200; the labeled
	// counter must say so.
	if v := values[`samie_http_requests_total{route="/v1/runs",code="200"}`]; v != 1 {
		t.Errorf("labeled run counter %v, want 1", v)
	}
	// The executed run must have observed the simulation phases.
	if v := values[`samie_run_phase_seconds_count{phase="measured"}`]; v != 1 {
		t.Errorf("measured phase count %v, want 1", v)
	}
}

func TestStatsEndpoint(t *testing.T) {
	dir := t.TempDir()
	batch, err := experiments.NewBatchWithCache(2, dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts, _ := newTestServer(t, Config{Batch: batch, CacheDir: dir})
	postJSON(t, ts.URL+"/v1/runs", client.RunRequest{Benchmark: "gzip", Model: client.ModelSAMIE}).Body.Close()

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	st := decodeBody[client.StatsResponse](t, resp)
	if st.Engine.Executed != 1 || st.Workers != 2 || st.CacheDir != dir {
		t.Fatalf("stats implausible: %+v", st)
	}
	if st.Disk.Writes != 1 {
		t.Fatalf("disk write not reported: %+v", st.Disk)
	}
	if st.UptimeSeconds <= 0 || st.Goroutines <= 0 {
		t.Fatalf("process gauges missing: %+v", st)
	}
}

// TestClientAgainstServer exercises the typed client end to end against
// a live handler: runs, figures, scenario streaming, stats, health,
// metrics, and throttling errors.
func TestClientAgainstServer(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{})
	c := client.New(ts.URL)
	ctx := context.Background()

	if err := c.Health(ctx); err != nil {
		t.Fatalf("health: %v", err)
	}
	run, err := c.Run(ctx, client.RunRequest{Benchmark: "gzip", Model: client.ModelConventional})
	if err != nil || run.CPU.IPC <= 0 {
		t.Fatalf("run: %+v, %v", run, err)
	}
	if run.LSQEnergyNJ <= 0 {
		t.Errorf("conventional run carries no LSQ energy: %+v", run)
	}
	fig, err := c.Figure(ctx, "3", []string{"gzip"}, testInsts)
	if err != nil || !strings.Contains(fig.Text, "Figure 3") {
		t.Fatalf("figure: %v, %q", err, fig.Text)
	}
	infos, err := c.Scenarios(ctx)
	if err != nil || len(infos) < 8 {
		t.Fatalf("scenarios: %d, %v", len(infos), err)
	}
	sw, err := c.Figure(ctx, "distrib-banking", []string{"gzip"}, testInsts)
	if err != nil || !strings.Contains(sw.Text, "Scenario distrib-banking") {
		t.Fatalf("scenario: %v, %q", err, sw.Text)
	}
	stats, err := c.Stats(ctx)
	if err != nil || stats.Engine.Requests == 0 {
		t.Fatalf("stats: %+v, %v", stats, err)
	}
	if txt, err := c.Metrics(ctx); err != nil || !strings.Contains(txt, "samie_engine_requests_total") {
		t.Fatalf("metrics: %v", err)
	}

	// Errors surface as typed APIErrors.
	if _, err := c.Run(ctx, client.RunRequest{Benchmark: "gzip", Model: "bogus"}); err == nil {
		t.Fatal("bad model accepted")
	} else if ae, ok := err.(*client.APIError); !ok || ae.Status != http.StatusBadRequest {
		t.Fatalf("want *APIError 400, got %v", err)
	}
	for i := 0; i < cap(s.sem); i++ {
		s.sem <- struct{}{}
	}
	_, err = c.Run(ctx, client.RunRequest{Benchmark: "gzip", Model: client.ModelSAMIE})
	for i := 0; i < cap(s.sem); i++ {
		<-s.sem
	}
	if !client.IsThrottled(err) {
		t.Fatalf("saturation error not recognized: %v", err)
	}
	if ae := err.(*client.APIError); ae.RetryAfter <= 0 {
		t.Errorf("throttle error lost Retry-After: %+v", ae)
	}
}

func TestRunProbeEndpoint(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{})
	c := client.New(ts.URL)
	ctx := context.Background()

	spec := experiments.RunSpec{Benchmark: "gzip", Insts: testInsts, Model: experiments.ModelSAMIE}
	key := experiments.Key(spec)

	// Probing before anything ran is a miss — and must not simulate.
	if _, ok, err := c.ProbeRun(ctx, key); err != nil || ok {
		t.Fatalf("probe before run = ok=%v err=%v, want miss", ok, err)
	}

	ran, err := c.Run(ctx, client.RunRequest{Benchmark: "gzip", Model: client.ModelSAMIE, Insts: testInsts})
	if err != nil {
		t.Fatal(err)
	}
	if ran.Key != key {
		t.Fatalf("run key %q differs from library key %q", ran.Key, key)
	}
	got, ok, err := c.ProbeRun(ctx, key)
	if err != nil || !ok {
		t.Fatalf("probe after run = ok=%v err=%v, want hit", ok, err)
	}
	if got.Key != key || got.CPU != ran.CPU || got.Benchmark != "gzip" {
		t.Errorf("probe payload differs from the run response: %+v vs %+v", got, ran)
	}
	if s.probeHits.Load() != 1 || s.probeMisses.Load() != 1 {
		t.Errorf("probe counters hits=%d misses=%d, want 1 and 1",
			s.probeHits.Load(), s.probeMisses.Load())
	}
	// The probe consumed no engine requests beyond the one real run.
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Engine.Requests != 1 || st.Engine.Executed != 1 {
		t.Errorf("probes distorted engine stats: %+v", st.Engine)
	}
	if st.ProbeHits != 1 || st.ProbeMisses != 1 {
		t.Errorf("/v1/stats probe counters %d/%d, want 1/1", st.ProbeHits, st.ProbeMisses)
	}
}

func TestRunProbeServesFromDisk(t *testing.T) {
	dir := t.TempDir()
	warm, err := experiments.NewBatchWithCache(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := experiments.RunSpec{Benchmark: "gzip", Insts: testInsts, Model: experiments.ModelConventional}
	want := warm.Run(spec)
	if err := warm.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh server process over the same directory probes positive
	// without ever simulating: the artifact on disk is the answer.
	cold, err := experiments.NewBatchWithCache(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts, _ := newTestServer(t, Config{Batch: cold})
	got, ok, err := client.New(ts.URL).ProbeRun(context.Background(), experiments.Key(spec))
	if err != nil || !ok {
		t.Fatalf("disk probe = ok=%v err=%v, want hit", ok, err)
	}
	if got.CPU != want.CPU {
		t.Errorf("disk-probed CPU result differs")
	}
	if st := cold.Stats(); st.Executed != 0 {
		t.Errorf("probe executed %d simulations, want 0", st.Executed)
	}
}

func TestSuiteEndpointShard(t *testing.T) {
	s, ts, batch := newTestServer(t, Config{})
	c := client.New(ts.URL)
	ctx := context.Background()

	shard := client.SuiteRequest{Specs: []client.RunRequest{
		{Benchmark: "gzip", Model: client.ModelConventional, Insts: testInsts},
		{Benchmark: "gzip", Model: client.ModelSAMIE, Insts: testInsts},
	}}

	// One run event per spec, then the final result.
	var runs, results int
	err := c.Suite(ctx, shard, func(ev client.SuiteEvent) {
		switch ev.Type {
		case "run":
			runs++
			if ev.Run == nil || ev.Run.Key == "" {
				t.Errorf("run event missing payload: %+v", ev)
			}
		case "result":
			results++
			if ev.Total != 2 {
				t.Errorf("result event total %d, want 2", ev.Total)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if runs != 2 || results != 1 {
		t.Errorf("saw %d run and %d result events, want 2 and 1", runs, results)
	}
	if st := batch.Stats(); st.Executed != 2 {
		t.Fatalf("shard executed %d simulations, want 2", st.Executed)
	}

	// A coordinator that still asks for ?stream=1 gets the same NDJSON
	// answer; the replayed shard is all cache hits.
	again := postJSON(t, ts.URL+"/v1/suite?stream=1", shard)
	defer again.Body.Close()
	if ct := again.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("?stream=1 shard answered %q, want application/x-ndjson", ct)
	}
	body, err := io.ReadAll(again.Body)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(body), `"type":"run"`); n != 2 || !strings.Contains(string(body), `"type":"result"`) {
		t.Errorf("?stream=1 replay streamed %d run events, want 2 and a result:\n%s", n, body)
	}
	if st := batch.Stats(); st.Executed != 2 {
		t.Errorf("replayed shard re-executed: %+v", st)
	}
	if s.suiteSpecs.Load() != 4 {
		t.Errorf("suite spec counter %d, want 4", s.suiteSpecs.Load())
	}
}

// TestSuiteEndpointValidation: a shard that is missing, empty, too
// large or names an invalid spec is a 400 before the engine sees it.
// Only an explicit shard is work: a body naming benchmarks is no
// request for the whole suite.
func TestSuiteEndpointValidation(t *testing.T) {
	_, ts, batch := newTestServer(t, Config{MaxInsts: 100_000})
	overCap, err := json.Marshal(client.SuiteRequest{Specs: make([]client.RunRequest, maxSuiteSpecs+1)})
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{
		"empty_body":      "",
		"no_specs":        `{"specs":[]}`,
		"benchmarks_only": `{"benchmarks":["gzip"],"insts":1000}`,
		"bad_model":       `{"specs":[{"benchmark":"gzip","model":"bogus"}]}`,
		"bad_benchmark":   `{"specs":[{"benchmark":"nope","model":"samie"}]}`,
		"insts_over_cap":  `{"specs":[{"benchmark":"gzip","model":"samie","insts":1099511627776}]}`,
		"shard_over_cap":  string(overCap),
	} {
		resp, err := http.Post(ts.URL+"/v1/suite", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
		resp.Body.Close()
	}
	if st := batch.Stats(); st.Requests != 0 {
		t.Errorf("invalid suite requests reached the engine: %+v", st)
	}
}

func TestScenarioDefaultBenchmarks(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	c := client.New(ts.URL)
	ctx := context.Background()

	// The adversarial scenario declares its own default rows; an empty
	// request must sweep exactly those, not the 26-program suite.
	infos, err := c.Scenarios(ctx)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, info := range infos {
		if info.Name == "adversarial" {
			found = true
			if len(info.Benchmarks) != 2 {
				t.Errorf("adversarial default rows = %v, want the 2 stress workloads", info.Benchmarks)
			}
		}
	}
	if !found {
		t.Fatal("adversarial scenario not registered")
	}
	res, err := c.Figure(ctx, "adversarial", nil, testInsts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Benchmarks) != 2 || res.Benchmarks[0] != "pointer-chaser" || res.Benchmarks[1] != "store-burst" {
		t.Fatalf("default rows = %v, want [pointer-chaser store-burst]", res.Benchmarks)
	}
}
