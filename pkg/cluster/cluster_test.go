package cluster

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"samielsq/internal/experiments"
	"samielsq/internal/server"
)

// refWeight independently reimplements the pinned HRW weight (FNV-1a
// over "replica\x00key"), so a silent change to the production hash —
// which would strand every deployed coordinator's shard plan — fails
// this test.
func refWeight(rep, key string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(rep); i++ {
		h ^= uint64(rep[i])
		h *= prime
	}
	h ^= 0
	h *= prime
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime
	}
	return h
}

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = experiments.Key(experiments.RunSpec{
			Benchmark: "gzip", Insts: uint64(1000 + i), Model: experiments.ModelSAMIE,
		})
	}
	return keys
}

func TestRendezvousDeterministic(t *testing.T) {
	reps := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	shuffled := append([]string(nil), reps...)
	rand.New(rand.NewSource(7)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	r1, r2 := NewRendezvous(reps), NewRendezvous(shuffled)
	for _, key := range testKeys(500) {
		if r1.Owner(key) != r2.Owner(key) {
			t.Fatalf("owner for %q depends on replica input order", key)
		}
		// Owner matches the independently-computed reference: the hash
		// is pinned, so a fresh process (a "restart") must agree.
		wantRep, wantW := "", uint64(0)
		for _, rep := range reps {
			if w := refWeight(rep, key); wantRep == "" || w > wantW {
				wantRep, wantW = rep, w
			}
		}
		if got := r1.Owner(key); got != wantRep {
			t.Fatalf("owner for %q = %s, reference says %s", key, got, wantRep)
		}
		if ranked := r1.Ranked(key); ranked[0] != r1.Owner(key) || len(ranked) != len(reps) {
			t.Fatalf("Ranked disagrees with Owner for %q: %v", key, ranked)
		}
	}
}

func TestRendezvousMinimalDisruption(t *testing.T) {
	base := []string{"http://a:1", "http://b:1", "http://c:1", "http://d:1"}
	grown := append(append([]string(nil), base...), "http://e:1")
	rBase, rGrown := NewRendezvous(base), NewRendezvous(grown)

	keys := testKeys(2000)
	moved := 0
	for _, key := range keys {
		was, is := rBase.Owner(key), rGrown.Owner(key)
		if was != is {
			moved++
			// HRW's guarantee: a key only moves if the NEW replica now
			// owns it; ownership never migrates between survivors.
			if is != "http://e:1" {
				t.Fatalf("key %q moved %s -> %s, not to the added replica", key, was, is)
			}
		}
	}
	// Expect ~1/5 of the keys on the new replica; allow wide slack for
	// hash variance but fail on gross imbalance.
	want := len(keys) / len(grown)
	if moved > want*3/2 || moved < want/2 {
		t.Errorf("%d of %d keys moved when growing 4->5 replicas, want about %d", moved, len(keys), want)
	}

	// Shrinking: only the removed replica's keys move, to survivors.
	shrunk := NewRendezvous(base[:3])
	movedOut := 0
	for _, key := range keys {
		was, is := rBase.Owner(key), shrunk.Owner(key)
		if was == "http://d:1" {
			movedOut++
			if is == was {
				t.Fatalf("key %q still owned by the removed replica", key)
			}
		} else if was != is {
			t.Fatalf("key %q migrated between survivors (%s -> %s)", key, was, is)
		}
	}
	if movedOut == 0 {
		t.Fatal("removed replica owned no keys; test is vacuous")
	}
}

// bootReplica starts one samie-serve service over a fresh batch; the
// kill switch makes every subsequent request (healthz included) fail
// with 503, simulating a stopped replica without httptest's
// close-blocks-on-streams behavior.
func bootReplica(t *testing.T, workers int) (url string, batch *experiments.Batch, kill *atomic.Bool) {
	t.Helper()
	batch = experiments.NewBatch(workers)
	s, err := server.New(server.Config{
		Batch:        batch,
		Logger:       slog.New(slog.NewTextHandler(io.Discard, nil)),
		DefaultInsts: 5_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	kill = &atomic.Bool{}
	h := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if kill.Load() {
			http.Error(w, "replica stopped", http.StatusServiceUnavailable)
			return
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts.URL, batch, kill
}

// ownedBy returns a spec that rendezvous places on rep, searching the
// instruction budget upward from insts.
func ownedBy(t *testing.T, c *ShardedClient, rep string, insts uint64) experiments.RunSpec {
	t.Helper()
	for i := uint64(0); i < 64; i++ {
		spec := experiments.RunSpec{Benchmark: "swim", Model: experiments.ModelConventional, Insts: insts + i}
		if c.ring.Owner(experiments.Key(spec)) == rep {
			return spec
		}
	}
	t.Fatalf("no spec owned by %s in 64 tries", rep)
	return experiments.RunSpec{}
}

// TestShardedFailoverOnUnhealthy: a sweep whose owner is down runs on
// the survivor, and once the owner recovers its breaker's half-open
// probe readmits it, so its keys execute there again.
func TestShardedFailoverOnUnhealthy(t *testing.T) {
	urlA, batchA, killA := bootReplica(t, 1)
	urlB, batchB, _ := bootReplica(t, 1)
	c, err := New([]string{urlA, urlB}, WithQuarantine(50*time.Millisecond), WithMaxRetryWait(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Stop A: a spec it owns must fail over to B.
	spec := ownedBy(t, c, urlA, 5_000)
	killA.Store(true)
	if _, err := c.RunSpecs(ctx, []experiments.RunSpec{spec}, nil); err != nil {
		t.Fatalf("failover sweep failed: %v", err)
	}
	if batchB.Stats().Executed != 1 || batchA.Stats().Executed != 0 {
		t.Errorf("failover executed on A=%d B=%d, want 0/1",
			batchA.Stats().Executed, batchB.Stats().Executed)
	}
	// A's breaker is open now: health still reports the fabric serving.
	if err := c.Health(ctx); err != nil {
		t.Fatalf("fabric unhealthy with one live replica: %v", err)
	}

	// After recovery and the cooldown, A's breaker is half-open: the
	// next sweep probes it, readmits it, and A serves its keys again.
	killA.Store(false)
	time.Sleep(60 * time.Millisecond)
	if usable, probe := c.breakers.state(urlA); !usable || !probe {
		t.Fatalf("recovered replica's breaker is usable=%v half-open=%v, want a half-open probe", usable, probe)
	}
	spec2 := ownedBy(t, c, urlA, spec.Insts+1000)
	if _, err := c.RunSpecs(ctx, []experiments.RunSpec{spec2}, nil); err != nil {
		t.Fatal(err)
	}
	if batchA.Stats().Executed != 1 {
		t.Error("recovered replica did not resume serving its keys")
	}
	if usable, probe := c.breakers.state(urlA); !usable || probe {
		t.Errorf("readmitted replica's breaker is usable=%v half-open=%v, want closed", usable, probe)
	}
}

// TestRunSpecsWaitsOutSaturation: a fleet that sheds every shard with
// 429 + Retry-After for a while is waited out for as long as its hints
// ask, however short WithMaxRetryWait cuts each individual wait.
func TestRunSpecsWaitsOutSaturation(t *testing.T) {
	batch := experiments.NewBatch(1)
	s, err := server.New(server.Config{Batch: batch, Logger: slog.New(slog.DiscardHandler)})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	const saturated = 1500 * time.Millisecond
	start := time.Now()
	var shed atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/suite" && time.Since(start) < saturated {
			shed.Add(1)
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"saturated"}`, http.StatusTooManyRequests)
			return
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	// 20 capped 20ms waits end long before the fleet recovers: a
	// round-counting give-up would fail the sweep after ~0.5s.
	c, err := New([]string{ts.URL}, WithMaxRetryWait(20*time.Millisecond), WithRetryBudget(1000))
	if err != nil {
		t.Fatal(err)
	}
	specs := []experiments.RunSpec{{Benchmark: "gzip", Insts: 5_000, Model: experiments.ModelSAMIE}}
	if _, err := c.RunSpecs(context.Background(), specs, nil); err != nil {
		t.Fatalf("sweep gave up on a fleet saturated for %s: %v", saturated, err)
	}
	if st := c.SweepStats(); st.ThrottleWaits <= 20 || shed.Load() <= 20 {
		t.Errorf("recovered without outlasting 20 throttled rounds (%+v, %d shed); the test no longer covers the patience", st, shed.Load())
	}
	if ex := batch.Stats().Executed; ex != 1 {
		t.Errorf("replica executed %d, want 1", ex)
	}
}

func TestRunSpecsExactlyOnceAndAggregatedStats(t *testing.T) {
	urlA, batchA, _ := bootReplica(t, 2)
	urlB, batchB, _ := bootReplica(t, 2)
	c, err := New([]string{urlA, urlB})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	specs, rows, err := experiments.ScenarioSpecs("distrib-banking", []string{"gzip", "swim"}, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	var progress atomic.Int64
	results, err := c.RunSpecs(ctx, specs, func(p Progress) { progress.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(specs) || int(progress.Load()) != len(specs) {
		t.Fatalf("collected %d results and %d progress events for %d specs",
			len(results), progress.Load(), len(specs))
	}
	execA, execB := batchA.Stats().Executed, batchB.Stats().Executed
	if execA+execB != int64(len(specs)) {
		t.Errorf("cluster executed %d+%d simulations for %d distinct specs", execA, execB, len(specs))
	}
	// Exact placement: each replica executed precisely the keys it
	// owns. (With few specs and random test ports, a >0-per-replica
	// assertion would be a coin-flip; ownership is deterministic.)
	var ownedA int64
	for _, s := range specs {
		if c.ring.Owner(experiments.Key(s)) == urlA {
			ownedA++
		}
	}
	if execA != ownedA || execB != int64(len(specs))-ownedA {
		t.Errorf("executions A=%d B=%d do not match ownership A=%d B=%d",
			execA, execB, ownedA, int64(len(specs))-ownedA)
	}

	// Re-running the same specs lands every key on the owner that
	// already holds it: nothing executes again.
	if again, err := c.RunSpecs(ctx, specs, nil); err != nil || len(again) != len(specs) {
		t.Fatalf("re-run collected %d of %d results: %v", len(again), len(specs), err)
	}
	if tot := batchA.Stats().Executed + batchB.Stats().Executed; tot != int64(len(specs)) {
		t.Errorf("re-run executed again: %d total executions for %d specs", tot, len(specs))
	}

	// The aggregated stats endpoint sees the same totals.
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Engine.Executed != int64(len(specs)) {
		t.Errorf("aggregated executed %d, want %d", st.Engine.Executed, len(specs))
	}
	if st.Workers != batchA.Workers()+batchB.Workers() {
		t.Errorf("aggregated workers %d", st.Workers)
	}

	// The scenario row assembled over the same cluster renders
	// byte-identically to the library harness (and re-executes
	// nothing).
	row, _ := experiments.LookupFigure("distrib-banking")
	local, err := c.Assemble(ctx, experiments.FigureSpecs([]experiments.Figure{row}, rows, 5_000), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := row.Run(ctx, local, rows, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := PlanCovered(local); err != nil {
		t.Error(err)
	}
	direct, err := experiments.NewBatch(0).Scenario(context.Background(), "distrib-banking", rows, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.String() != direct.String() {
		t.Errorf("cluster scenario differs from library:\ncluster:\n%s\nlibrary:\n%s", res.String(), direct.String())
	}
	if tot := batchA.Stats().Executed + batchB.Stats().Executed; tot != int64(len(specs)) {
		t.Errorf("scenario assembly re-executed: %d total executions", tot)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("empty replica list accepted")
	}
	c, err := New([]string{" http://a:1/ ", "http://a:1", "http://b:1"})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Replicas(); len(got) != 2 {
		t.Fatalf("duplicate replicas not collapsed: %v", got)
	}
}

func ExampleNewRendezvous() {
	r := NewRendezvous([]string{"http://a:8344", "http://b:8344"})
	key := experiments.Key(experiments.RunSpec{Benchmark: "swim", Model: experiments.ModelSAMIE})
	fmt.Println(r.Owner(key) != "")
	// Output: true
}

func TestRunSpecsFailsFastOnRejectedShard(t *testing.T) {
	// Replicas with a tight -max-insts cap: a shard above it is a 400
	// that no replica can ever accept. The sweep must fail promptly
	// without quarantining the (healthy) replicas or burning stall
	// rounds on a doomed request.
	boot := func() (string, *atomic.Bool) {
		batch := experiments.NewBatch(1)
		s, err := server.New(server.Config{
			Batch:    batch,
			Logger:   slog.New(slog.NewTextHandler(io.Discard, nil)),
			MaxInsts: 10_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		return ts.URL, nil
	}
	urlA, _ := boot()
	urlB, _ := boot()
	c, err := New([]string{urlA, urlB})
	if err != nil {
		t.Fatal(err)
	}
	specs := []experiments.RunSpec{
		{Benchmark: "gzip", Insts: 1_000_000, Model: experiments.ModelSAMIE},
		{Benchmark: "swim", Insts: 1_000_000, Model: experiments.ModelSAMIE},
	}
	start := time.Now()
	_, err = c.RunSpecs(context.Background(), specs, nil)
	if err == nil {
		t.Fatal("over-cap shard accepted")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("rejected shard took %s to fail; should fail fast, not stall-retry", elapsed)
	}
	// The replicas were never at fault: both must still be usable.
	for _, rep := range c.Replicas() {
		if usable, _ := c.breakers.state(rep); !usable {
			t.Errorf("healthy replica %s quarantined over a client error", rep)
		}
	}
}

// TestRunSpecsReshardsRefusedChunk: a replica that answers a chunk's
// first request with a 503, as a draining one does, began no stream
// and holds none of the chunk, so the chunk re-shards without being
// resumed in place: the owner sees no more suite requests than it
// takes to trip its breaker, and the sweep completes on the survivor.
func TestRunSpecsReshardsRefusedChunk(t *testing.T) {
	var refused atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/suite" {
			refused.Add(1)
		}
		http.Error(w, "draining", http.StatusServiceUnavailable)
	}))
	t.Cleanup(ts.Close)
	urlB, batchB, _ := bootReplica(t, 1)
	c, err := New([]string{ts.URL, urlB}, WithMaxRetryWait(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	spec := ownedBy(t, c, ts.URL, 5_000)
	results, err := c.RunSpecs(context.Background(), []experiments.RunSpec{spec}, nil)
	if err != nil {
		t.Fatalf("sweep with a draining owner failed: %v (stats %+v)", err, c.SweepStats())
	}
	if len(results) != 1 || batchB.Stats().Executed != 1 {
		t.Fatalf("got %d results, survivor executed %d; want 1 and 1", len(results), batchB.Stats().Executed)
	}
	if n := refused.Load(); n > int64(c.breakers.threshold) {
		t.Errorf("draining owner got %d suite requests, want at most the breaker threshold %d", n, c.breakers.threshold)
	}
	if st := c.SweepStats(); st.Resumes != 0 {
		t.Errorf("a refused chunk was resumed in place: %+v", st)
	}
}

// TestRunSpecsReshardsConnectionRefused: a replica whose port refuses
// the connection made no TCP connection, so it started none of the
// chunk; like a status answer, the refusal goes to its breaker instead
// of being resumed in place, and the sweep completes on the survivor.
// Nothing listens on the port, so the breaker trips on the first
// refusal, and the next round re-shards onto the survivor at once,
// without the pause a round with every breaker open waits.
func TestRunSpecsReshardsConnectionRefused(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := "http://" + ln.Addr().String()
	ln.Close()
	urlB, batchB, _ := bootReplica(t, 1)
	c, err := New([]string{closed, urlB}, WithMaxRetryWait(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	spec := ownedBy(t, c, closed, 5_000)
	start := time.Now()
	results, err := c.RunSpecs(context.Background(), []experiments.RunSpec{spec}, nil)
	if err != nil {
		t.Fatalf("sweep with a refusing owner failed: %v (stats %+v)", err, c.SweepStats())
	}
	if took := time.Since(start); took >= 500*time.Millisecond {
		t.Errorf("sweep took %v: the re-shard waited out the all-open pause (500 ms)", took)
	}
	if len(results) != 1 || batchB.Stats().Executed != 1 {
		t.Fatalf("got %d results, survivor executed %d; want 1 and 1", len(results), batchB.Stats().Executed)
	}
	// The refusal opens the breaker at once: one round on the closed
	// port, one on the survivor.
	if st := c.SweepStats(); st.Resumes != 0 || st.Rounds != 2 || st.BreakerTrips != 1 {
		t.Errorf("stats %+v; want no resume, 2 rounds and 1 breaker trip", st)
	}
}

func TestRunSpecsChunksLargeShards(t *testing.T) {
	// Shards larger than shardChunk split into sequential bounded
	// requests; every run still arrives exactly once.
	old := shardChunk
	shardChunk = 2
	defer func() { shardChunk = old }()

	urlA, batchA, _ := bootReplica(t, 2)
	urlB, batchB, _ := bootReplica(t, 2)
	c, err := New([]string{urlA, urlB})
	if err != nil {
		t.Fatal(err)
	}
	specs, _, err := experiments.ScenarioSpecs("shared-lsq-sizes", []string{"gzip", "swim"}, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) <= shardChunk {
		t.Fatalf("test needs more than %d specs to chunk, have %d", shardChunk, len(specs))
	}
	results, err := c.RunSpecs(context.Background(), specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(specs) {
		t.Fatalf("collected %d of %d results", len(results), len(specs))
	}
	if tot := batchA.Stats().Executed + batchB.Stats().Executed; tot != int64(len(specs)) {
		t.Errorf("chunked sweep executed %d simulations for %d distinct specs", tot, len(specs))
	}
}
