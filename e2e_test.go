package samielsq_test

// End-to-end test matrix over the public API. Every case below is
// listed in docs/functional-testing.md with the same case ID; keep the
// two in sync. Each case runs as one named subtest (E00001...), so
//
//	go test -run 'TestE2E/E00007' .
//
// replays a single case. Budgets shrink under -short so the whole
// matrix stays in the seconds range on one core.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"samielsq"
	"samielsq/internal/experiments"
	"samielsq/internal/faultinject"
	"samielsq/internal/obs"
	"samielsq/internal/server"
	"samielsq/pkg/client"
	"samielsq/pkg/cluster"
)

// e2eInsts is the per-benchmark instruction budget for simulation
// cases.
func e2eInsts() uint64 {
	if testing.Short() {
		return 10_000
	}
	return 25_000
}

// e2eBench is the two-benchmark subset simulation cases sweep: one
// streaming FP program, one integer program.
var e2eBench = []string{"swim", "gzip"}

type e2eCase struct {
	id, name string
	run      func(t *testing.T)
}

func TestE2E(t *testing.T) {
	cases := []e2eCase{
		{"E00001", "benchmark_suite_and_personalities", caseBenchmarkSuite},
		{"E00002", "paper_configurations", casePaperConfigs},
		{"E00003", "compare_headline_savings", caseCompareHeadlines},
		{"E00004", "compare_shares_figure56_runs", caseCompareSharesRuns},
		{"E00005", "figure56_end_to_end", caseFigure56},
		{"E00006", "energy_figures_end_to_end", caseEnergy},
		{"E00007", "suite_shared_batch_exactly_once", caseSuiteExactlyOnce},
		{"E00008", "suite_figures_match_standalone", caseSuiteMatchesStandalone},
		{"E00009", "scenario_registry_sweep", caseScenarioSweep},
		{"E00010", "scenario_unknown_name_errors", caseScenarioUnknown},
		{"E00011", "scenario_custom_registration", caseScenarioCustom},
		{"E00012", "static_tables_render", caseStaticTables},
		{"E00013", "deterministic_across_workers", caseDeterminism},
		{"E00014", "engine_key_canonicalization", caseKeyCanonicalization},
		{"E00015", "server_concurrent_runs_coalesce", caseServerRunsCoalesce},
		{"E00016", "server_figures_match_golden_suite", caseServerFiguresGolden},
		{"E00017", "server_metrics_exposition_parses", caseServerMetrics},
		{"E00018", "server_scenario_figure_matches_library", caseServerScenarioFigure},
		{"E00019", "cluster_two_replica_suite_exactly_once", caseClusterSuiteExactlyOnce},
		{"E00020", "cluster_failover_replica_stopped_mid_sweep", caseClusterFailoverMidSweep},
		{"E00021", "server_run_cache_probe", caseRunCacheProbe},
		{"E00022", "cluster_cold_replica_peer_warm", caseClusterColdReplicaPeerWarm},
		{"E00023", "cluster_chaos_sweep_byte_identical_exactly_once", caseClusterChaosSweep},
		{"E00024", "cluster_chaos_stream_resume_exactly_once", caseClusterChaosStreamResume},
		{"E00025", "server_drain_stream_terminal_event", caseServerDrainStream},
		{"E00026", "cluster_traced_sweep_single_tree", caseClusterSweepTrace},
	}
	seen := map[string]bool{}
	for _, c := range cases {
		if seen[c.id] {
			t.Fatalf("duplicate case ID %s", c.id)
		}
		seen[c.id] = true
		t.Run(c.id+"_"+c.name, c.run)
	}
}

func caseBenchmarkSuite(t *testing.T) {
	bs := samielsq.Benchmarks()
	if len(bs) != 26 {
		t.Fatalf("suite has %d programs, want 26", len(bs))
	}
	for _, want := range e2eBench {
		found := false
		for _, b := range bs {
			found = found || b == want
		}
		if !found {
			t.Errorf("suite misses %s", want)
		}
	}
	if _, err := samielsq.BenchmarkPersonality("swim"); err != nil {
		t.Fatal(err)
	}
	if _, err := samielsq.BenchmarkPersonality("nope"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func casePaperConfigs(t *testing.T) {
	sc := samielsq.PaperSAMIEConfig()
	if sc.Banks != 64 || sc.EntriesPerBank != 2 || sc.SlotsPerEntry != 8 ||
		sc.SharedEntries != 8 || sc.AddrBufferSlots != 64 {
		t.Fatalf("Table 3 config wrong: %+v", sc)
	}
	cc := samielsq.PaperCPUConfig()
	if cc.ROBSize != 256 || cc.FetchWidth != 8 || cc.DcachePorts != 4 {
		t.Fatalf("Table 2 config wrong: %+v", cc)
	}
}

func caseCompareHeadlines(t *testing.T) {
	r := samielsq.Compare("swim", e2eInsts())
	if r.Benchmark != "swim" {
		t.Fatalf("result for %q, want swim", r.Benchmark)
	}
	if r.Conventional.IPC <= 0 || r.SAMIE.IPC <= 0 {
		t.Fatalf("non-positive IPC: %+v", r)
	}
	if r.IPCLossPct > 5 {
		t.Errorf("swim IPC loss %.2f%% too high", r.IPCLossPct)
	}
	if r.LSQSavingPct < 40 {
		t.Errorf("LSQ saving %.1f%% too low", r.LSQSavingPct)
	}
	if r.DcacheSavingPct < 15 {
		t.Errorf("Dcache saving %.1f%% too low", r.DcacheSavingPct)
	}
	if r.DTLBSavingPct < 30 {
		t.Errorf("DTLB saving %.1f%% too low", r.DTLBSavingPct)
	}
}

func caseCompareSharesRuns(t *testing.T) {
	b := samielsq.NewBatch(0)
	fig := b.Figure56(e2eBench, e2eInsts())
	before := b.Stats().Executed
	r := samielsq.CompareIn(b, "swim", e2eInsts())
	if after := b.Stats().Executed; after != before {
		t.Errorf("CompareIn simulated %d new runs after Figure56, want 0", after-before)
	}
	if r.Conventional.IPC != fig.Rows[0].ConvIPC || r.SAMIE.IPC != fig.Rows[0].SAMIEIPC {
		t.Errorf("CompareIn IPCs (%.4f, %.4f) differ from Figure56 row (%.4f, %.4f)",
			r.Conventional.IPC, r.SAMIE.IPC, fig.Rows[0].ConvIPC, fig.Rows[0].SAMIEIPC)
	}
}

func caseFigure56(t *testing.T) {
	f := samielsq.NewBatch(0).Figure56(e2eBench, e2eInsts())
	if len(f.Rows) != len(e2eBench) {
		t.Fatalf("%d rows, want %d", len(f.Rows), len(e2eBench))
	}
	for _, r := range f.Rows {
		if r.ConvIPC <= 0 || r.SAMIEIPC <= 0 {
			t.Errorf("%s: non-positive IPC", r.Benchmark)
		}
	}
	s := f.String()
	if !strings.Contains(s, "SPEC mean IPC loss") || !strings.Contains(s, "deadlocks/Mcycle") {
		t.Errorf("rendering lost headline lines:\n%s", s)
	}
}

func caseEnergy(t *testing.T) {
	e := samielsq.NewBatch(0).Energy(e2eBench, e2eInsts())
	if len(e.Rows) != len(e2eBench) {
		t.Fatalf("%d rows, want %d", len(e.Rows), len(e2eBench))
	}
	if s := e.LSQSavings(); s < 0.4 || s > 1 {
		t.Errorf("LSQ savings %.2f out of band (paper 0.82)", s)
	}
	if s := e.DcacheSavings(); s < 0.15 || s > 1 {
		t.Errorf("Dcache savings %.2f out of band (paper 0.42)", s)
	}
	if s := e.DTLBSavings(); s < 0.3 || s > 1 {
		t.Errorf("DTLB savings %.2f out of band (paper 0.73)", s)
	}
	for _, part := range []string{"Figure 7", "Figure 8", "Figure 9", "Figure 10", "Figure 11", "Figure 12"} {
		if !strings.Contains(e.String(), part) {
			t.Errorf("rendering lost %s", part)
		}
	}
}

func caseSuiteExactlyOnce(t *testing.T) {
	res := samielsq.RunSuite(e2eBench, e2eInsts())
	st := res.Runs
	if st.Executed == 0 || st.Hits == 0 {
		t.Fatalf("suite accounting implausible: %+v", st)
	}
	if st.Hits+st.Executed != st.Requests {
		t.Errorf("accounting leak: %d hits + %d executed != %d requests", st.Hits, st.Executed, st.Requests)
	}
	// Exactly-once across the whole suite: 16 ARB + 1 unbounded + 3
	// unbounded-shared + 16 Figure-4 sizes (one being the paper config)
	// + the conventional/SAMIE pair, per benchmark.
	want := int64(len(e2eBench) * 37)
	if st.Executed != want {
		t.Errorf("executed %d distinct simulations, want %d", st.Executed, want)
	}
	if !strings.Contains(res.String(), "Shared batch:") {
		t.Error("suite rendering lost the run accounting")
	}
}

func caseSuiteMatchesStandalone(t *testing.T) {
	suite := samielsq.RunSuite(e2eBench, e2eInsts())
	rows := experiments.Figures()
	if len(suite.Rows) != len(rows) {
		t.Fatalf("suite renders %d rows, want the table's %d paper rows", len(suite.Rows), len(rows))
	}
	for i, row := range rows {
		own, err := row.Run(context.Background(), samielsq.NewBatch(0), e2eBench, e2eInsts())
		if err != nil {
			t.Fatalf("row %s: %v", row.Name, err)
		}
		if got, want := suite.Rows[i], own.String(); got.Name != row.Name || got.Artefact.String() != want {
			t.Errorf("suite row %d (%s) differs from the table's row %s run alone\nsuite:\n%s\nalone:\n%s",
				i, got.Name, row.Name, got.Artefact, want)
		}
	}
}

func caseScenarioSweep(t *testing.T) {
	names := samielsq.ScenarioNames()
	if len(names) < 8 {
		t.Fatalf("only %d registered scenarios: %v", len(names), names)
	}
	res, err := samielsq.RunScenario("shared-lsq-sizes", e2eBench, e2eInsts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IPC) != len(e2eBench) || len(res.Variants) != 5 {
		t.Fatalf("sweep shape %dx%d, want %dx5", len(res.IPC), len(res.Variants), len(e2eBench))
	}
	for bi := range res.IPC {
		for vi, ipc := range res.IPC[bi] {
			if ipc <= 0.1 || ipc > 8 {
				t.Errorf("%s/%s IPC %.3f out of sane range",
					res.Benchmarks[bi], res.Variants[vi], ipc)
			}
		}
	}
	if !strings.Contains(res.String(), "geomean") {
		t.Error("sweep rendering lost the geomean row")
	}
}

func caseScenarioUnknown(t *testing.T) {
	if _, err := samielsq.RunScenario("no-such-sweep", e2eBench, 1000); err == nil {
		t.Fatal("unknown scenario did not error")
	} else if !strings.Contains(err.Error(), "no-such-sweep") {
		t.Errorf("error %q does not name the missing scenario", err)
	}
}

func caseScenarioCustom(t *testing.T) {
	cfg := samielsq.PaperSAMIEConfig()
	cfg.SharedEntries = 12
	samielsq.RegisterScenario(samielsq.Scenario{
		Name:        "e2e-custom",
		Description: "registered by the e2e matrix",
		Variants: []samielsq.ScenarioVariant{
			{Name: "shared-12", Spec: func(bench string, insts uint64) samielsq.RunSpec {
				c := cfg
				return samielsq.RunSpec{Benchmark: bench, Insts: insts, Model: samielsq.ModelSAMIE, SAMIE: &c}
			}},
		},
	})
	res, err := samielsq.RunScenario("e2e-custom", e2eBench[:1], e2eInsts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IPC) != 1 || len(res.IPC[0]) != 1 || res.IPC[0][0] <= 0 {
		t.Fatalf("custom sweep broken: %+v", res.IPC)
	}
}

func caseStaticTables(t *testing.T) {
	t1 := samielsq.Table1()
	if len(t1.Rows) != 8 || !strings.Contains(t1.String(), "8KB") {
		t.Fatal("Table 1 broken")
	}
	d := samielsq.Delays()
	if len(d.Rows) < 6 || !strings.Contains(d.String(), "SharedLSQ") {
		t.Fatal("delay analysis broken")
	}
	if !strings.Contains(samielsq.Tables456(), "452") {
		t.Fatal("Tables 4/5/6 rendering broken")
	}
	// The same artefacts are the figure table's static rows: served by
	// name, rendering the same text, simulating nothing.
	for name, want := range map[string]string{"table1": t1.String(), "delays": d.String(), "tables456": samielsq.Tables456()} {
		row, ok := experiments.LookupFigure(name)
		if !ok {
			t.Fatalf("no %s row in the figure table", name)
		}
		b := samielsq.NewBatch(0)
		out, err := row.Run(context.Background(), b, nil, 0)
		if err != nil || out.String() != want {
			t.Errorf("row %s renders %v (err %v), want the library text", name, out, err)
		}
		if n := len(experiments.FigureSpecs([]experiments.Figure{row}, e2eBench, e2eInsts())); n != 0 || b.Stats().Requests != 0 {
			t.Errorf("static row %s enumerates %d specs and requested %d runs, want none", name, n, b.Stats().Requests)
		}
	}
}

func caseDeterminism(t *testing.T) {
	serial := samielsq.NewBatch(1).Figure56(e2eBench, e2eInsts())
	wide := samielsq.NewBatch(4).Figure56(e2eBench, e2eInsts())
	if serial.String() != wide.String() {
		t.Error("worker count changed figure output")
	}
	a := samielsq.Compare("gzip", e2eInsts())
	b := samielsq.Compare("gzip", e2eInsts())
	if a.Conventional.IPC != b.Conventional.IPC || a.SAMIE.IPC != b.SAMIE.IPC {
		t.Error("repeated Compare not deterministic")
	}
}

// bootServer starts the HTTP simulation service over a fresh shared
// batch on a random port and returns a typed client plus the batch for
// engine-level assertions.
func bootServer(t *testing.T) (*client.Client, *samielsq.Batch) {
	t.Helper()
	batch := samielsq.NewBatch(0)
	s, err := server.New(server.Config{
		Batch:        batch,
		Logger:       slog.New(slog.NewTextHandler(io.Discard, nil)),
		DefaultInsts: e2eInsts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return client.New(ts.URL), batch
}

func caseServerRunsCoalesce(t *testing.T) {
	c, batch := bootServer(t)
	req := client.RunRequest{RunSpec: experiments.RunSpec{Benchmark: "swim", Model: client.ModelSAMIE, Insts: e2eInsts()}}

	// Two concurrent identical requests must produce exactly one
	// underlying simulation: either the second coalesces onto the
	// in-flight run or it hits the memoized result, but it never
	// simulates again.
	var wg sync.WaitGroup
	results := make([]client.RunResponse, 2)
	errs := make([]error, 2)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.Run(context.Background(), req)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if results[0].CPU != results[1].CPU || results[0].Key != results[1].Key {
		t.Error("concurrent identical requests returned different results")
	}
	st := batch.Stats()
	if st.Executed != 1 || st.Hits != 1 || st.Requests != 2 {
		t.Fatalf("coalescing failed: %+v, want executed=1 hits=1 requests=2", st)
	}
	// The server's own stats endpoint reports the same engine counters.
	remote, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if remote.Engine != st {
		t.Errorf("/v1/stats engine %+v differs from batch %+v", remote.Engine, st)
	}
}

func caseServerFiguresGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden figure comparison needs the full budget")
	}
	// The byte-for-byte bar: every figure endpoint must render exactly
	// the text pinned in the golden suite (same benchmarks and budget
	// as TestSuiteGolden).
	golden, err := os.ReadFile("internal/experiments/testdata/golden_suite.txt")
	if err != nil {
		t.Fatal(err)
	}
	goldenBenchmarks := []string{"ammp", "gzip", "mcf", "swim"}
	const goldenInsts = 25_000

	c, _ := bootServer(t)
	for _, fig := range client.FigureNames() {
		resp, err := c.Figure(context.Background(), fig, goldenBenchmarks, goldenInsts)
		if err != nil {
			t.Fatalf("figure %s: %v", fig, err)
		}
		if resp.Text == "" || !strings.Contains(string(golden), resp.Text) {
			t.Errorf("figure %s: server text not byte-identical to the golden suite\nserver:\n%s", fig, resp.Text)
		}
	}
}

func caseServerMetrics(t *testing.T) {
	c, _ := bootServer(t)
	if _, err := c.Run(context.Background(),
		client.RunRequest{RunSpec: experiments.RunSpec{Benchmark: "gzip", Model: client.ModelConventional, Insts: e2eInsts()}}); err != nil {
		t.Fatal(err)
	}
	text, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	values := map[string]float64{} // full series incl. label block
	families := map[string]bool{}  // family names with labels stripped
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("unparseable metric line %q", line)
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("non-numeric value in %q", line)
		}
		values[fields[0]] = v
		name, _, _ := strings.Cut(fields[0], "{")
		families[name] = true
	}
	if values["samie_engine_executed_total"] != 1 {
		t.Errorf("samie_engine_executed_total = %v, want 1", values["samie_engine_executed_total"])
	}
	for _, name := range []string{
		"samie_engine_requests_total", "samie_engine_hits_total", "samie_engine_inflight",
		"samie_disk_cache_hits_total", "samie_http_requests_total", "samie_http_throttled_total",
		"samie_uptime_seconds", "samie_process_goroutines", "samie_build_info",
		"samie_http_request_seconds_bucket", "samie_run_phase_seconds_bucket",
	} {
		if !families[name] {
			t.Errorf("metric family %s missing", name)
		}
	}
	if v := values[`samie_http_requests_total{route="/v1/runs",code="200"}`]; v != 1 {
		t.Errorf(`samie_http_requests_total{route="/v1/runs",code="200"} = %v, want 1`, v)
	}
	// The run above simulated, so the measured phase must have one
	// observation on this fresh server.
	if v := values[`samie_run_phase_seconds_count{phase="measured"}`]; v != 1 {
		t.Errorf(`samie_run_phase_seconds_count{phase="measured"} = %v, want 1`, v)
	}
}

func caseServerScenarioFigure(t *testing.T) {
	c, _ := bootServer(t)
	ctx := context.Background()
	served, err := c.Figure(ctx, "distrib-banking", e2eBench[:1], e2eInsts())
	if err != nil {
		t.Fatal(err)
	}
	direct, err := samielsq.RunScenario("distrib-banking", e2eBench[:1], e2eInsts())
	if err != nil {
		t.Fatal(err)
	}
	if served.Text != direct.String() {
		t.Errorf("served sweep differs from library harness\nserver:\n%s\nlibrary:\n%s",
			served.Text, direct.String())
	}
	// Without bench a scenario row answers with its own default rows.
	adv, err := c.Figure(ctx, "adversarial", nil, 2_000)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"pointer-chaser", "store-burst"}; !slices.Equal(adv.Benchmarks, want) {
		t.Errorf("adversarial rows %v, want %v", adv.Benchmarks, want)
	}
	// Unknown names surface as typed 404s naming the valid rows.
	_, err = c.Figure(ctx, "no-such-sweep", nil, 0)
	if ae, ok := err.(*client.APIError); !ok || ae.Status != http.StatusNotFound ||
		!strings.Contains(ae.Error(), "distrib-banking") || !strings.Contains(ae.Error(), "energy") {
		t.Fatalf("want *APIError 404 naming the valid rows, got %v", err)
	}
}

func caseKeyCanonicalization(t *testing.T) {
	b := samielsq.NewBatch(1)
	insts := e2eInsts()
	r1 := b.Run(samielsq.RunSpec{Benchmark: "gzip", Insts: insts, Model: 0})
	r2 := b.Run(samielsq.RunSpec{Benchmark: "gzip", Insts: insts, Model: 0, ConvEntries: 128})
	if st := b.Stats(); st.Executed != 1 || st.Hits != 1 {
		t.Fatalf("equivalent spellings not coalesced: %+v", st)
	}
	if r1.CPU != r2.CPU {
		t.Error("coalesced runs returned different results")
	}
}

// bootReplica starts one service replica for the cluster cases,
// returning its httptest server (so a test can sever live connections,
// simulating a stopped process), the backing batch for engine-level
// assertions, and a kill switch that 503s every subsequent request.
func bootReplica(t *testing.T) (*httptest.Server, *samielsq.Batch, *atomic.Bool) {
	t.Helper()
	batch := samielsq.NewBatch(0)
	s, err := server.New(server.Config{
		Batch:        batch,
		Logger:       slog.New(slog.NewTextHandler(io.Discard, nil)),
		DefaultInsts: e2eInsts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	kill := &atomic.Bool{}
	h := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if kill.Load() {
			http.Error(w, "replica stopped", http.StatusServiceUnavailable)
			return
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts, batch, kill
}

func caseClusterSuiteExactlyOnce(t *testing.T) {
	tsA, batchA, _ := bootReplica(t)
	tsB, batchB, _ := bootReplica(t)
	cs, err := cluster.New([]string{tsA.URL, tsB.URL})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	suite, err := cs.Suite(ctx, e2eBench, e2eInsts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// The cluster-regenerated suite must be byte-identical to the
	// single-node path: same figures, same tables, same accounting.
	want := samielsq.RunSuite(e2eBench, e2eInsts())
	if got := suite.String(); got != want.String() {
		t.Errorf("cluster suite differs from single-node RunSuite\ncluster:\n%s\nsingle-node:\n%s", got, want.String())
	}

	// Exactly-once cluster-wide, verified from the replicas' engine
	// stats aggregated through /v1/stats: the distinct spec count is
	// the total executed, split across both replicas.
	specs := samielsq.SuiteSpecs(e2eBench, e2eInsts())
	agg, err := cs.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Engine.Executed != int64(len(specs)) {
		t.Errorf("cluster executed %d simulations for %d distinct specs", agg.Engine.Executed, len(specs))
	}
	execA, execB := batchA.Stats().Executed, batchB.Stats().Executed
	if execA+execB != int64(len(specs)) {
		t.Errorf("replica executions %d+%d != %d distinct specs", execA, execB, len(specs))
	}
	if execA == 0 || execB == 0 {
		t.Errorf("sharding degenerate: replica executions A=%d B=%d", execA, execB)
	}
}

func caseClusterFailoverMidSweep(t *testing.T) {
	tsA, batchA, killA := bootReplica(t)
	tsB, batchB, _ := bootReplica(t)
	cs, err := cluster.New([]string{tsA.URL, tsB.URL}, cluster.WithQuarantine(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}

	// Stop replica A after the first completed run lands: new requests
	// 503 and its live suite stream is severed, exactly what a killed
	// process looks like to the coordinator. The sweep must finish on
	// B and still render byte-identically.
	var stopOnce sync.Once
	suite, err := cs.Suite(context.Background(), e2eBench[:1], e2eInsts(), func(p cluster.Progress) {
		stopOnce.Do(func() {
			killA.Store(true)
			tsA.CloseClientConnections()
		})
	})
	if err != nil {
		t.Fatalf("sweep did not survive losing a replica: %v", err)
	}
	want := samielsq.RunSuite(e2eBench[:1], e2eInsts())
	if got := suite.String(); got != want.String() {
		t.Errorf("post-failover suite differs from single-node RunSuite\ncluster:\n%s\nsingle-node:\n%s", got, want.String())
	}
	// The survivor carried the sweep; the stopped replica may have
	// executed a handful before dying, but every distinct spec is
	// covered at least once.
	specs := samielsq.SuiteSpecs(e2eBench[:1], e2eInsts())
	execA, execB := batchA.Stats().Executed, batchB.Stats().Executed
	if execB == 0 {
		t.Error("surviving replica executed nothing")
	}
	if execA+execB < int64(len(specs)) {
		t.Errorf("cluster executed %d+%d simulations, fewer than the %d distinct specs", execA, execB, len(specs))
	}
}

func caseRunCacheProbe(t *testing.T) {
	c, batch := bootServer(t)
	ctx := context.Background()

	spec := samielsq.RunSpec{Benchmark: "swim", Insts: e2eInsts(), Model: samielsq.ModelSAMIE}
	key := samielsq.RunKey(spec)

	// Probing an unknown key is a clean miss that never simulates.
	if _, ok, err := c.ProbeRun(ctx, key); err != nil || ok {
		t.Fatalf("probe before run = ok=%v err=%v, want miss", ok, err)
	}
	if batch.Stats().Requests != 0 {
		t.Fatal("cache probe reached the engine")
	}

	ran, err := c.Run(ctx, client.RunRequest{RunSpec: experiments.RunSpec{Benchmark: "swim", Model: client.ModelSAMIE, Insts: e2eInsts()}})
	if err != nil {
		t.Fatal(err)
	}
	if ran.Key != key {
		t.Fatalf("server key %q differs from library RunKey %q", ran.Key, key)
	}
	got, ok, err := c.ProbeRun(ctx, key)
	if err != nil || !ok {
		t.Fatalf("probe after run = ok=%v err=%v, want hit", ok, err)
	}
	if got.CPU != ran.CPU || got.LSQEnergyNJ != ran.LSQEnergyNJ {
		t.Errorf("probe payload differs from the original run")
	}
	if st := batch.Stats(); st.Requests != 1 || st.Executed != 1 {
		t.Errorf("probes distorted engine accounting: %+v", st)
	}
}

// caseClusterColdReplicaPeerWarm: a replica that joins with an empty
// disk cache serves a previously-executed sweep entirely from its
// peer's store — byte-identical figures, zero simulations of its own,
// every delivered key attributed to the peer tier.
func caseClusterColdReplicaPeerWarm(t *testing.T) {
	ctx := context.Background()

	// Replica A executes the sweep the normal way.
	tsA, batchA, _ := bootReplica(t)
	csA, err := cluster.New([]string{tsA.URL})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := csA.Suite(ctx, e2eBench, e2eInsts(), nil); err != nil {
		t.Fatal(err)
	}
	specs := samielsq.SuiteSpecs(e2eBench, e2eInsts())
	if exec := batchA.Stats().Executed; exec != int64(len(specs)) {
		t.Fatalf("warm replica executed %d of %d specs", exec, len(specs))
	}

	// Replica B: fresh process, empty disk cache, peer-wired to A.
	batchB, err := samielsq.NewBatchWithCache(0, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	batchB.SetPeerStore(cluster.NewPeerFetcher([]string{tsA.URL}))
	sB, err := server.New(server.Config{
		Batch:        batchB,
		Logger:       slog.New(slog.NewTextHandler(io.Discard, nil)),
		DefaultInsts: e2eInsts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	tsB := httptest.NewServer(sB.Handler())
	t.Cleanup(tsB.Close)

	// Re-shard the whole sweep onto B alone.
	csB, err := cluster.New([]string{tsB.URL})
	if err != nil {
		t.Fatal(err)
	}
	suite, err := csB.Suite(ctx, e2eBench, e2eInsts(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := samielsq.RunSuite(e2eBench, e2eInsts())
	if got := suite.String(); got != want.String() {
		t.Errorf("peer-warmed suite differs from single-node RunSuite\ncold replica:\n%s\nsingle-node:\n%s", got, want.String())
	}

	// The cold replica simulated nothing: every key came from A.
	if st := batchB.Stats(); st.Executed != 0 {
		t.Errorf("cold replica executed %d simulations, want 0: %+v", st.Executed, st)
	}
	ss := batchB.StoreStats()
	if ss.Peer.Hits != int64(len(specs)) || ss.PeerInstalls != int64(len(specs)) {
		t.Errorf("peer tier delivered %d keys and installed %d, want %d of each",
			ss.Peer.Hits, ss.PeerInstalls, len(specs))
	}
	if ss.Peer.Misses != 0 {
		t.Errorf("peer tier recorded %d misses against a fully warm sibling", ss.Peer.Misses)
	}
	if ss.PeerFetch.Count != uint64(len(specs)) {
		t.Errorf("fetch histogram observed %d probes, want %d", ss.PeerFetch.Count, len(specs))
	}

	// The delivery is visible on B's Prometheus surface.
	text, err := client.New(tsB.URL).Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantLine := fmt.Sprintf("samie_store_hits_total{tier=\"peer\"} %d", len(specs))
	if !strings.Contains(text, wantLine) {
		t.Errorf("/metrics missing %q", wantLine)
	}
	if !strings.Contains(text, "samie_store_peer_fetch_seconds_bucket{le=\"+Inf\"}") {
		t.Error("/metrics missing the peer-fetch histogram")
	}
}

// caseClusterSweepTrace: a coordinator-traced two-replica sweep
// reconstructs as one tree — the local sweep root covers a chunk child
// per shard request batch, every chunk has a server-side request span
// under the same trace ID on the replica that served it, and per-phase
// run timings land on every replica that executed work — while the
// rendered suite stays byte-identical to the single-node harness.
func caseClusterSweepTrace(t *testing.T) {
	ctx := context.Background()
	tsA, batchA, _ := bootReplica(t)
	tsB, batchB, _ := bootReplica(t)
	cs, err := cluster.New([]string{tsA.URL, tsB.URL})
	if err != nil {
		t.Fatal(err)
	}

	// A private enabled recorder stands in for samie-bench -server's
	// -trace-out: rooting the context in it routes the sweep and chunk
	// spans here without touching the process-wide default recorder.
	rec := obs.NewRecorder(0)
	rec.SetEnabled(true)
	tctx, root := rec.StartSpan(ctx, "e2e.sweep-trace")
	suite, err := cs.Suite(tctx, e2eBench, e2eInsts(), nil)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	want := samielsq.RunSuite(e2eBench, e2eInsts())
	if suite.String() != want.String() {
		t.Error("traced sweep no longer byte-identical to the single-node suite")
	}

	traceID := cs.SweepTraceID()
	if traceID == "" {
		t.Fatal("SweepTraceID empty after a traced sweep")
	}

	// Coordinator side: exactly one sweep span, every chunk its child.
	local := rec.Trace(traceID)
	sweepID := ""
	for _, sr := range local {
		if sr.Name == "sweep" {
			if sweepID != "" {
				t.Error("more than one sweep span in the trace")
			}
			sweepID = sr.SpanID
		}
	}
	if sweepID == "" {
		t.Fatal("no sweep span recorded")
	}
	chunkCovered := map[string]bool{} // chunk span id -> has a server-side child
	for _, sr := range local {
		if sr.Name != "sweep.chunk" {
			continue
		}
		if sr.ParentID != sweepID {
			t.Errorf("chunk span %s parented to %q, want the sweep span", sr.SpanID, sr.ParentID)
		}
		chunkCovered[sr.SpanID] = false
	}
	if len(chunkCovered) == 0 {
		t.Fatal("no sweep.chunk spans recorded")
	}

	// Replica side: every span the fleet retained for this trace carries
	// the trace ID and its source replica, and every chunk span has at
	// least one server-side request span as its remote child.
	remote := cs.TraceSpans(ctx, traceID)
	for _, sr := range remote {
		if sr.TraceID != traceID {
			t.Fatalf("replica span %s carries trace %s, want %s", sr.SpanID, sr.TraceID, traceID)
		}
		if _, isChunk := chunkCovered[sr.ParentID]; isChunk {
			chunkCovered[sr.ParentID] = true
		}
		src := ""
		for _, a := range sr.Attrs {
			if a.Key == "source" {
				src = a.Value
			}
		}
		if src != tsA.URL && src != tsB.URL {
			t.Errorf("replica span %s has source %q, want a replica URL", sr.SpanID, src)
		}
	}
	for id, covered := range chunkCovered {
		if !covered {
			t.Errorf("chunk span %s has no server-side child span", id)
		}
	}

	// Counter tracks: every replica that simulated work retained
	// occupancy tracks under the sweep trace, each tagged with its
	// source replica, and the merged Chrome export renders them as
	// counter ("C") events alongside the span tree.
	_, tracks := cs.TraceData(ctx, traceID)
	if len(tracks) == 0 {
		t.Fatal("traced sweep retained no counter tracks")
	}
	for _, tr := range tracks {
		if tr.TraceID != traceID {
			t.Errorf("counter track %q carries trace %s, want %s", tr.Name, tr.TraceID, traceID)
		}
		if tr.Source != tsA.URL && tr.Source != tsB.URL {
			t.Errorf("counter track %q has source %q, want a replica URL", tr.Name, tr.Source)
		}
		if len(tr.Samples) == 0 {
			t.Errorf("counter track %q has no samples", tr.Name)
		}
	}
	chrome, err := obs.ChromeTraceWithCounters(remote, tracks)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(chrome), `"ph": "C"`) {
		t.Error("merged Chrome export carries no counter events")
	}

	// Phase accounting: the aggregate measured-phase count covers the
	// whole sweep, and each replica observed it once per simulation it
	// executed.
	specs := samielsq.SuiteSpecs(e2eBench, e2eInsts())
	agg, err := cs.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n := agg.RunPhases["measured"].Count; n != uint64(len(specs)) {
		t.Errorf("aggregate measured-phase observations = %d, want %d", n, len(specs))
	}
	// The fleet-wide timeline rollup counts each simulation exactly
	// once: only the replica that executed a spec retains its telemetry.
	var occRuns int64
	for _, oa := range agg.TimelineStats {
		occRuns += oa.Runs
	}
	if occRuns != int64(len(specs)) {
		t.Errorf("aggregate occupancy rollup covers %d runs, want %d", occRuns, len(specs))
	}
	for name, b := range map[string]*samielsq.Batch{"A": batchA, "B": batchB} {
		ps := b.PhaseStats()
		if ex := b.Stats().Executed; ex > 0 && ps["measured"].Count != uint64(ex) {
			t.Errorf("replica %s measured-phase count %d != executed %d", name, ps["measured"].Count, ex)
		}
	}
}

// bootChaosReplica starts one service replica with deterministic fault
// injection enabled, returning its URL, the backing batch for
// exactly-once assertions, and the server handle for fault accounting.
func bootChaosReplica(t *testing.T, spec string) (string, *samielsq.Batch, *server.Server) {
	t.Helper()
	cspec, err := faultinject.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	batch := samielsq.NewBatch(0)
	s, err := server.New(server.Config{
		Batch:        batch,
		Logger:       slog.New(slog.NewTextHandler(io.Discard, nil)),
		DefaultInsts: e2eInsts(),
		Chaos:        cspec,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL, batch, s
}

// chaosCoordinator builds the resilient coordinator the chaos cases
// share: pinned backoff seed (reproducible), short waits (fast tests),
// and a retry budget generous enough for heavy injected fault rates.
func chaosCoordinator(t *testing.T, urls ...string) *cluster.ShardedClient {
	t.Helper()
	cs, err := cluster.New(urls,
		cluster.WithQuarantine(200*time.Millisecond),
		cluster.WithBackoffSeed(42),
		cluster.WithMaxRetryWait(250*time.Millisecond),
		cluster.WithRetryBudget(512))
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// caseClusterChaosSweep is the robustness capstone: a two-replica
// sweep with every fault kind injected at nonzero rates must still
// render byte-identically — against testdata/golden_suite.txt at the
// full budget — and execute each distinct spec exactly once
// cluster-wide. Faults may slow the sweep down; they must never change
// its bytes or its accounting.
func caseClusterChaosSweep(t *testing.T) {
	const spec = "err=0.1,lat=1ms:3ms,reset=0.05,trunc=0.25,seed=42"
	urlA, batchA, srvA := bootChaosReplica(t, spec)
	urlB, batchB, srvB := bootChaosReplica(t, spec)
	cs := chaosCoordinator(t, urlA, urlB)

	benchmarks, insts := e2eBench, e2eInsts()
	if !testing.Short() {
		// The golden bar: same benchmarks and budget the golden suite
		// pins, so the sweep output can be diffed against its bytes.
		benchmarks, insts = []string{"ammp", "gzip", "mcf", "swim"}, 25_000
	}
	suite, err := cs.Suite(context.Background(), benchmarks, insts, nil)
	if err != nil {
		t.Fatalf("sweep did not survive chaos: %v (sweep %+v)", err, cs.SweepStats())
	}
	if testing.Short() {
		if want := samielsq.RunSuite(benchmarks, insts).String(); suite.String() != want {
			t.Error("chaos sweep differs from single-node RunSuite")
		}
	} else {
		golden, err := os.ReadFile("internal/experiments/testdata/golden_suite.txt")
		if err != nil {
			t.Fatal(err)
		}
		if suite.String() != string(golden) {
			t.Error("chaos sweep not byte-identical to testdata/golden_suite.txt")
		}
	}

	// Exactly-once under fire: injected errors and resets fire before
	// the handler (nothing executes), truncated streams resume from the
	// replica's memo — so the distinct spec count is the exact
	// cluster-wide execution total.
	specs := samielsq.SuiteSpecs(benchmarks, insts)
	execA, execB := batchA.Stats().Executed, batchB.Stats().Executed
	if execA+execB != int64(len(specs)) {
		t.Errorf("cluster executed %d+%d simulations for %d distinct specs, want exactly once",
			execA, execB, len(specs))
	}
	// The case only proves something if faults actually fired.
	injected := srvA.ChaosCounts()
	injected.Add(srvB.ChaosCounts())
	if injected.Total() == 0 {
		t.Error("no faults injected across the sweep; the chaos spec never engaged")
	}
}

// caseClusterChaosStreamResume: with every suite stream truncated
// mid-body, the coordinator finishes the sweep by resuming undelivered
// specs from the same replica — which memoized the work it kept
// computing past the cut — so nothing re-executes and the rendering
// stays byte-identical.
func caseClusterChaosStreamResume(t *testing.T) {
	url, batch, srv := bootChaosReplica(t, "trunc=1,seed=7")
	cs := chaosCoordinator(t, url)

	suite, err := cs.Suite(context.Background(), e2eBench, e2eInsts(), nil)
	if err != nil {
		t.Fatalf("sweep did not survive total truncation: %v (sweep %+v)", err, cs.SweepStats())
	}
	if want := samielsq.RunSuite(e2eBench, e2eInsts()).String(); suite.String() != want {
		t.Error("resumed sweep differs from single-node RunSuite")
	}
	specs := samielsq.SuiteSpecs(e2eBench, e2eInsts())
	if exec := batch.Stats().Executed; exec != int64(len(specs)) {
		t.Errorf("replica executed %d simulations for %d distinct specs; resumes must drain the memo, not re-execute", exec, len(specs))
	}
	if st := cs.SweepStats(); st.Resumes == 0 {
		t.Errorf("sweep finished without a single stream resume under trunc=1: %+v (injected %+v)",
			st, srv.ChaosCounts())
	}
	if srv.ChaosCounts().Truncations == 0 {
		t.Error("no truncations fired; the case never exercised the resume path")
	}
}

// caseServerDrainStream: the graceful-drain contract end to end —
// beginning a drain under a live NDJSON suite stream produces an
// explicit terminal error event on the open connection (the
// coordinator's cue to re-request undelivered work elsewhere) and
// flips /healthz to 503 so nothing new is routed here.
func caseServerDrainStream(t *testing.T) {
	batch := samielsq.NewBatch(1)
	s, err := server.New(server.Config{
		Batch:        batch,
		Logger:       slog.New(slog.NewTextHandler(io.Discard, nil)),
		DefaultInsts: e2eInsts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// Large runs on a single worker keep the stream in flight while the
	// drain begins underneath it.
	var req client.SuiteRequest
	for i := 0; i < 16; i++ {
		req.Specs = append(req.Specs, client.RequestFor(experiments.RunSpec{
			Benchmark: "gzip", Insts: 1_000_000, Model: client.ModelConventional,
			ConvEntries: 8 + i,
		}))
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/suite?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	var runs int
	var terminal *client.SuiteEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() && terminal == nil {
		var ev client.SuiteEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch ev.Type {
		case "run":
			if runs++; runs == 1 {
				s.BeginDrain()
			}
		case "error", "result":
			terminal = &ev
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream severed without a terminal event: %v", err)
	}
	if terminal == nil || terminal.Type != "error" || !strings.Contains(terminal.Error, "draining") {
		t.Fatalf("terminal event %+v after %d runs, want an error event naming the drain", terminal, runs)
	}
	if runs == len(req.Specs) {
		t.Fatal("every spec completed before the drain took effect; the case never exercised an in-flight abort")
	}

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining /healthz answered %d, want 503", hz.StatusCode)
	}
}
