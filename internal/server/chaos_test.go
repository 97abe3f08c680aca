package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"samielsq/internal/faultinject"
	"samielsq/pkg/client"
)

// chaosClient is a plain client with transport retries disabled so
// tests observe injected faults directly instead of surviving them.
func chaosClient(base string) *client.Client {
	return client.New(base, client.WithTransportRetries(-1))
}

func TestChaosInjectsErrorsDeterministically(t *testing.T) {
	spec, err := faultinject.ParseSpec("err=0.3,throttle=0.2,seed=42")
	if err != nil {
		t.Fatal(err)
	}
	// Two fresh servers with the same seed, driven by the same
	// sequential request sequence, must fire identical fault counts.
	outcomes := func() (st client.ChaosState, statuses []int) {
		_, ts, _ := newTestServer(t, Config{Chaos: spec})
		for i := 0; i < 60; i++ {
			resp, err := http.Get(ts.URL + "/v1/runs/nonexistent-key")
			if err != nil {
				t.Fatalf("probe %d: %v", i, err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses = append(statuses, resp.StatusCode)
		}
		stats, serr := chaosClient(ts.URL).Stats(context.Background())
		if serr != nil {
			t.Fatal(serr)
		}
		return stats.Chaos, statuses
	}
	stA, seqA := outcomes()
	stB, seqB := outcomes()
	if stA.Injected != stB.Injected {
		t.Fatalf("same seed fired different counts: %+v vs %+v", stA.Injected, stB.Injected)
	}
	if stA.Injected.Errors == 0 || stA.Injected.Throttles == 0 {
		t.Fatalf("60 requests at err=0.3,throttle=0.2 fired %+v", stA.Injected)
	}
	for i := range seqA {
		if seqA[i] != seqB[i] {
			t.Fatalf("request %d: status %d vs %d under the same seed", i, seqA[i], seqB[i])
		}
	}
	if !stA.Enabled || stA.Spec != spec.String() {
		t.Fatalf("chaos state = %+v, want enabled with spec %q", stA, spec.String())
	}
}

func TestChaosThrottleCarriesRetryAfter(t *testing.T) {
	spec, _ := faultinject.ParseSpec("throttle=1,seed=1")
	_, ts, _ := newTestServer(t, Config{Chaos: spec})
	resp, err := http.Get(ts.URL + "/v1/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("injected 429 lacks Retry-After")
	}
}

func TestChaosResetSeversConnection(t *testing.T) {
	spec, _ := faultinject.ParseSpec("reset=1,seed=1")
	_, ts, _ := newTestServer(t, Config{Chaos: spec})
	_, err := chaosClient(ts.URL).Scenarios(context.Background())
	if err == nil {
		t.Fatal("request through reset=1 succeeded")
	}
	var ae *client.APIError
	if errors.As(err, &ae) {
		t.Fatalf("reset surfaced as an HTTP error (%v), want a transport failure", ae)
	}
}

func TestChaosTruncatesStreams(t *testing.T) {
	spec, _ := faultinject.ParseSpec("trunc=1,seed=7")
	s, ts, _ := newTestServer(t, Config{Chaos: spec})

	// A streamed suite over enough specs produces far more than the
	// truncation ceiling (8KB), so the cut must fire mid-stream and the
	// client must see the stream die without a result event.
	specs := make([]client.RunRequest, 0, 12)
	for i := 0; i < 12; i++ {
		specs = append(specs, client.RunRequest{
			Benchmark: "gzip", Model: client.ModelConventional,
			Insts: testInsts, ConvEntries: 8 + i,
		})
	}
	var events int
	err := chaosClient(ts.URL).Suite(context.Background(),
		client.SuiteRequest{Specs: specs}, func(ev client.SuiteEvent) { events++ })
	if err == nil {
		t.Fatal("truncated suite stream returned no error")
	}
	if c := s.ChaosCounts(); c.Truncations == 0 {
		t.Fatalf("no truncation fired: %+v", c)
	}

	// The replica kept simulating past the cut: every spec is memoized,
	// so a clean re-request — through a second server without chaos
	// over the same batch — serves the full set without executing
	// anything new. The client's error arrives as soon as the
	// connection is severed, while the handler is still filling the
	// memo into its swallowed writer — wait for it to finish before
	// snapshotting Executed, or the re-request races the original
	// handler's tail.
	_, clean, _ := newTestServer(t, Config{Batch: s.batch})
	var st client.StatsResponse
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, _ = chaosClient(clean.URL).Stats(context.Background())
		if st.Engine.Executed >= int64(len(specs)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("truncated handler never finished the memo: executed %d of %d", st.Engine.Executed, len(specs))
		}
		time.Sleep(10 * time.Millisecond)
	}
	before := st.Engine.Executed
	runs := 0
	err = chaosClient(clean.URL).Suite(context.Background(), client.SuiteRequest{Specs: specs}, func(ev client.SuiteEvent) {
		if ev.Type == "run" {
			runs++
		}
	})
	if err != nil {
		t.Fatalf("re-request after truncation: %v", err)
	}
	if runs != len(specs) {
		t.Fatalf("re-request returned %d runs, want %d", runs, len(specs))
	}
	st, _ = chaosClient(clean.URL).Stats(context.Background())
	if st.Engine.Executed != before {
		t.Fatalf("re-request re-executed: %d -> %d", before, st.Engine.Executed)
	}
}

// TestChaosArmedAtBoot: fault injection is fixed by Config.Chaos.
// Under err=1, liveness and observability still answer and every other
// request gets an injected 500; no route reconfigures it.
func TestChaosArmedAtBoot(t *testing.T) {
	status := func(method, url string) int {
		t.Helper()
		req, _ := http.NewRequest(method, url, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	_, clean, _ := newTestServer(t, Config{})
	for _, method := range []string{http.MethodGet, http.MethodPost} {
		if code := status(method, clean.URL+"/v1/chaos"); code != http.StatusNotFound {
			t.Errorf("%s /v1/chaos = %d, want 404: the route is gone", method, code)
		}
	}

	spec, _ := faultinject.ParseSpec("err=1,seed=3")
	_, ts, _ := newTestServer(t, Config{Chaos: spec})
	for _, path := range []string{"/healthz", "/metrics", "/v1/stats"} {
		if code := status(http.MethodGet, ts.URL+path); code != http.StatusOK {
			t.Errorf("GET %s under err=1 = %d, want 200 (exempt)", path, code)
		}
	}
	injected := []string{"/v1/scenarios", "/v1/runs/nonexistent-key", "/v1/figures/table1", "/v1/chaos"}
	for _, path := range injected {
		if code := status(http.MethodGet, ts.URL+path); code != http.StatusInternalServerError {
			t.Errorf("GET %s under err=1 = %d, want 500", path, code)
		}
	}
	st, err := chaosClient(ts.URL).Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Chaos.Enabled || st.Chaos.Spec != spec.String() || st.Chaos.Injected.Errors != int64(len(injected)) {
		t.Fatalf("stats chaos block = %+v, want enabled with spec %q and %d errors", st.Chaos, spec.String(), len(injected))
	}
}

func TestChaosMetricsAlwaysExported(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	text, err := chaosClient(ts.URL).Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range faultinject.Kinds() {
		want := fmt.Sprintf("samie_chaos_injected_total{kind=%q} 0", k)
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q", want)
		}
	}

	spec, _ := faultinject.ParseSpec("err=1,seed=9")
	_, ts, _ = newTestServer(t, Config{Chaos: spec})
	c := chaosClient(ts.URL)
	for i := 0; i < 3; i++ {
		if resp, err := http.Get(ts.URL + "/v1/scenarios"); err == nil {
			resp.Body.Close()
		}
	}
	if text, err = c.Metrics(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, `samie_chaos_injected_total{kind="error"} 3`) {
		t.Fatalf("metrics did not count injected errors:\n%s", text)
	}
	// Stats embeds the same view.
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Chaos.Injected.Errors != 3 || !st.Chaos.Enabled {
		t.Fatalf("stats chaos block = %+v", st.Chaos)
	}
}

func TestChaosLatencyDelays(t *testing.T) {
	spec, _ := faultinject.ParseSpec("lat=30ms:30ms,seed=2")
	s, ts, _ := newTestServer(t, Config{Chaos: spec})
	begin := time.Now()
	if _, err := chaosClient(ts.URL).Scenarios(context.Background()); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(begin); d < 30*time.Millisecond {
		t.Fatalf("request took %v, want >= 30ms injected latency", d)
	}
	if c := s.ChaosCounts(); c.Latencies == 0 {
		t.Fatalf("latency did not count: %+v", c)
	}
}
