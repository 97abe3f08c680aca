package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"samielsq/internal/obs"
	"samielsq/pkg/client"
)

// ShardedClient drives a set of samie-serve replicas as if they were
// one server; `samie-bench -server` builds one over its replica list
// (one URL is a ring of one). Work reaches the fleet as RunSpecs
// sweeps: each spec goes to the rendezvous owner of its canonical key —
// repeated requests for the same work always land on the same warm
// replica — with a per-replica circuit breaker (consecutive failures
// trip, a half-open health probe readmits), Retry-After-aware jittered
// waits on a saturated fleet, and failover down the key's weight
// ranking. Safe for concurrent use.
type ShardedClient struct {
	ring        *Rendezvous
	clients     map[string]*client.Client
	breakers    *breakerSet
	bo          client.Backoff
	retryBudget int
	log         *slog.Logger

	sweepMu    sync.Mutex
	lastSweep  SweepStats
	sweepTrace string
}

// Option customizes a ShardedClient.
type Option func(*ShardedClient)

// WithQuarantine sets how long a tripped breaker stays open before its
// half-open probe; default 3s. (The name predates the breaker: the
// open state is what the old quarantine timer became.)
func WithQuarantine(d time.Duration) Option {
	return func(c *ShardedClient) { c.breakers.cooldown = d }
}

// WithMaxRetryWait caps every backoff sleep of a sweep — a resumed
// shard stream's pause, and each wait on a saturated fleet's
// Retry-After hint (the sweep keeps waiting for as long as the hints
// ask; the cap only makes it poll more often); default 15s.
func WithMaxRetryWait(d time.Duration) Option {
	return func(c *ShardedClient) { c.bo.Cap = d }
}

// WithBackoffSeed pins the deterministic-jitter identity (tests, or
// operators who want distinct coordinators spread explicitly). The
// default derives from the process, so coordinators honoring the same
// Retry-After hint wake staggered instead of in lockstep.
func WithBackoffSeed(seed uint64) Option {
	return func(c *ShardedClient) { c.bo.Seed = seed }
}

// WithLogger routes the coordinator's operational log lines (stream
// resumes, replica loss) to l; by default they are discarded so
// library embedders stay quiet.
func WithLogger(l *slog.Logger) Option {
	return func(c *ShardedClient) {
		if l != nil {
			c.log = l
		}
	}
}

// WithRetryBudget bounds the total number of shard retries (stream
// resumes, re-shards after replica loss, throttle rounds) one RunSpecs
// sweep may spend before giving up; default 32. See SweepStats.
func WithRetryBudget(n int) Option {
	return func(c *ShardedClient) {
		if n >= 0 {
			c.retryBudget = n
		}
	}
}

// New builds the fabric over the replica base URLs (e.g.
// "http://host-a:8344"). At least one replica is required; duplicates
// are collapsed.
func New(replicas []string, opts ...Option) (*ShardedClient, error) {
	urls := make([]string, 0, len(replicas))
	for _, r := range replicas {
		if r = strings.TrimRight(strings.TrimSpace(r), "/"); r != "" {
			urls = append(urls, r)
		}
	}
	ring := NewRendezvous(urls)
	if len(ring.Replicas()) == 0 {
		return nil, fmt.Errorf("cluster: at least one replica URL is required")
	}
	c := &ShardedClient{
		ring:        ring,
		clients:     map[string]*client.Client{},
		breakers:    newBreakerSet(2, 3*time.Second),
		bo:          client.Backoff{Cap: 15 * time.Second, Seed: processSeed()},
		retryBudget: 32,
		log:         slog.New(slog.DiscardHandler),
	}
	for _, rep := range ring.Replicas() {
		c.clients[rep] = client.New(rep)
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// processSeed derives a per-coordinator jitter identity, so separate
// coordinator processes de-synchronize even when configured
// identically. Within one process the schedule is deterministic.
func processSeed() uint64 {
	return uint64(os.Getpid())<<32 ^ uint64(time.Now().UnixNano())
}

// Replicas returns the configured replica URLs, sorted.
func (c *ShardedClient) Replicas() []string { return c.ring.Replicas() }

// healthyCandidate returns the highest-ranked replica for key whose
// breaker admits work right now. A replica whose cooldown just lapsed
// (half-open) is health-probed first, so a still-dead replica is not
// handed fresh work on faith: the probe's answer closes its breaker or
// re-opens it for another cooldown. When every replica is down it
// returns the key's owner — trying beats failing without trying.
func (c *ShardedClient) healthyCandidate(ctx context.Context, key string) string {
	ranked := c.ring.Ranked(key)
	for _, rep := range ranked {
		usable, probe := c.breakers.state(rep)
		if !usable {
			continue
		}
		if probe {
			if err := c.clients[rep].Health(ctx); err != nil {
				c.breakers.failure(rep)
				continue
			}
			c.breakers.success(rep)
		}
		return rep
	}
	return ranked[0]
}

// permanent reports a response that no other replica would answer
// differently: the request itself is wrong (4xx short of the 429
// saturation signal).
func permanent(err error) bool {
	var ae *client.APIError
	return errors.As(err, &ae) && ae.Status/100 == 4 && ae.Status != http.StatusTooManyRequests
}

// Stats aggregates /v1/stats across every reachable replica (see
// FoldStats). An error is returned only when no replica answers.
func (c *ShardedClient) Stats(ctx context.Context) (client.StatsResponse, error) {
	per, err := c.PerReplicaStats(ctx)
	if err != nil {
		return client.StatsResponse{}, err
	}
	return FoldStats(per), nil
}

// FoldStats folds per-replica /v1/stats answers (as PerReplicaStats
// returns them) into fleet totals: counters and capacity gauges sum,
// uptime reports the longest-lived replica.
func FoldStats(per map[string]client.StatsResponse) client.StatsResponse {
	agg := client.StatsResponse{RunPhases: obs.PhaseStats{}}
	// Fold replicas in sorted-URL order: the aggregate includes
	// float64 sums (energy, histogram totals, occupancy aggregates)
	// whose rounding depends on addition order, so folding in map
	// order would make repeated -stats calls disagree in the last
	// bits. Sorting pins the fold order fleet-wide.
	reps := make([]string, 0, len(per))
	for rep := range per {
		reps = append(reps, rep)
	}
	sort.Strings(reps)
	for _, rep := range reps {
		st := per[rep]
		agg.RunPhases.Add(st.RunPhases)
		agg.Engine.Requests += st.Engine.Requests
		agg.Engine.Executed += st.Engine.Executed
		agg.Engine.Hits += st.Engine.Hits
		agg.Engine.Inflight += st.Engine.Inflight
		agg.Engine.QueueDepth += st.Engine.QueueDepth
		agg.Engine.Canceled += st.Engine.Canceled
		agg.Engine.Evictions += st.Engine.Evictions
		agg.Disk.Hits += st.Disk.Hits
		agg.Disk.Misses += st.Disk.Misses
		agg.Disk.Writes += st.Disk.Writes
		agg.DistinctRuns += st.DistinctRuns
		agg.Workers += st.Workers
		agg.MaxConcurrent += st.MaxConcurrent
		agg.InflightHTTP += st.InflightHTTP
		agg.RequestsServed += st.RequestsServed
		agg.Throttled += st.Throttled
		agg.ProbeHits += st.ProbeHits
		agg.ProbeMisses += st.ProbeMisses
		agg.SuiteSpecs += st.SuiteSpecs
		agg.Store.Add(st.Store)
		agg.Preloaded += st.Preloaded
		agg.Goroutines += st.Goroutines
		agg.HeapBytes += st.HeapBytes
		agg.TraceDropped += st.TraceDropped
		// Timeline rollups merge exactly-once across the fleet: only the
		// replica that simulated a run holds its telemetry, so summing
		// per-benchmark aggregates and energy never double-counts.
		if len(st.TimelineStats) > 0 && agg.TimelineStats == nil {
			agg.TimelineStats = map[string]obs.OccupancyAgg{}
		}
		//lint:ordered distinct benchmarks merge into distinct entries; cross-replica order is pinned by the sorted fold above
		for bench, oa := range st.TimelineStats {
			cur := agg.TimelineStats[bench]
			cur.Add(oa)
			agg.TimelineStats[bench] = cur
		}
		if len(st.EnergyPJ) > 0 && agg.EnergyPJ == nil {
			agg.EnergyPJ = map[string]float64{}
		}
		for k, v := range st.EnergyPJ {
			agg.EnergyPJ[k] += v
		}
		if st.UptimeSeconds > agg.UptimeSeconds {
			agg.UptimeSeconds = st.UptimeSeconds
		}
		if agg.CacheDir == "" {
			agg.CacheDir = st.CacheDir
		}
	}
	return agg
}

// PerReplicaStats fetches /v1/stats from every replica, keyed by
// replica URL; unreachable replicas are omitted. An error is returned
// only when no replica answers.
func (c *ShardedClient) PerReplicaStats(ctx context.Context) (map[string]client.StatsResponse, error) {
	out := map[string]client.StatsResponse{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var lastErr error
	for _, rep := range c.Replicas() {
		wg.Add(1)
		go func(rep string) {
			defer wg.Done()
			st, err := c.clients[rep].Stats(ctx)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				lastErr = err
				return
			}
			out[rep] = st
		}(rep)
	}
	wg.Wait()
	if len(out) == 0 {
		return nil, fmt.Errorf("cluster: no replica answered /v1/stats: %w", lastErr)
	}
	return out, nil
}

// Health probes every replica's /healthz concurrently; nil means at
// least one replica is up (the fabric can serve), with quarantine
// state refreshed for all of them.
func (c *ShardedClient) Health(ctx context.Context) error {
	var wg sync.WaitGroup
	errs := make([]error, len(c.Replicas()))
	reps := c.Replicas()
	for i, rep := range reps {
		wg.Add(1)
		go func(i int, rep string) {
			defer wg.Done()
			if err := c.clients[rep].Health(ctx); err != nil {
				c.breakers.failure(rep)
				errs[i] = err
			} else {
				c.breakers.success(rep)
			}
		}(i, rep)
	}
	wg.Wait()
	var lastErr error
	for i, err := range errs {
		if err == nil {
			return nil
		}
		lastErr = fmt.Errorf("%s: %w", reps[i], err)
	}
	return fmt.Errorf("cluster: no healthy replica: %w", lastErr)
}

// SweepTraceID returns the trace ID of the most recent RunSpecs sweep
// (also the one behind Suite and Assemble), or "" when tracing was
// disabled during the sweep. Feed it to TraceSpans to reassemble the
// fleet-wide trace tree.
func (c *ShardedClient) SweepTraceID() string {
	c.sweepMu.Lock()
	defer c.sweepMu.Unlock()
	return c.sweepTrace
}

// TraceSpans collects every span the fleet retained for one trace:
// each replica's GET /v1/trace/{id} is queried concurrently and the
// results are merged, with each span's "source" attribute set to the
// replica URL that recorded it (coordinator-side spans are the
// caller's to contribute — they live in its own obs recorder). A
// replica that never saw the trace (404) contributes nothing; an
// unreachable replica is skipped the same way, so the merged view is
// best-effort by design. The caller typically appends its local
// recorder's spans and hands the lot to obs.ChromeTrace.
func (c *ShardedClient) TraceSpans(ctx context.Context, traceID string) []obs.SpanRecord {
	spans, _ := c.TraceData(ctx, traceID)
	return spans
}

// TraceData is TraceSpans plus the counter tracks the fleet retained
// for the trace: each replica's occupancy/IPC samples come back with
// CounterTrack.Source set to the replica URL, so a merged Perfetto
// export renders each replica's counters in its own lane next to its
// spans.
func (c *ShardedClient) TraceData(ctx context.Context, traceID string) ([]obs.SpanRecord, []obs.CounterTrack) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	var all []obs.SpanRecord
	var tracks []obs.CounterTrack
	for _, rep := range c.Replicas() {
		wg.Add(1)
		go func(rep string) {
			defer wg.Done()
			tr, ok, err := c.clients[rep].Trace(ctx, traceID)
			if err != nil || !ok {
				return
			}
			for i := range tr.Spans {
				tr.Spans[i].Attrs = append(tr.Spans[i].Attrs, obs.SpanAttr{Key: "source", Value: rep})
			}
			for i := range tr.Counters {
				tr.Counters[i].Source = rep
			}
			mu.Lock()
			all = append(all, tr.Spans...)
			tracks = append(tracks, tr.Counters...)
			mu.Unlock()
		}(rep)
	}
	wg.Wait()
	sort.SliceStable(all, func(i, j int) bool { return all[i].Start.Before(all[j].Start) })
	sort.SliceStable(tracks, func(i, j int) bool {
		if tracks[i].Source != tracks[j].Source {
			return tracks[i].Source < tracks[j].Source
		}
		return tracks[i].Name < tracks[j].Name
	})
	return all, tracks
}
