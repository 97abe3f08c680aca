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

	"samielsq/internal/experiments"
	"samielsq/internal/obs"
	"samielsq/pkg/client"
)

// ShardedClient drives a set of samie-serve replicas as if they were
// one server; `samie-bench -server` builds one over its replica list
// (one URL is a ring of one). Each request routes to the rendezvous
// owner of its canonical key — repeated requests for the same work
// always land on the same warm replica — with a per-replica circuit
// breaker (consecutive failures trip, half-open health probe
// readmits), 429/Retry-After-aware jittered retry, and failover down
// the key's weight ranking. Safe for concurrent use.
type ShardedClient struct {
	ring        *Rendezvous
	clients     map[string]*client.Client
	breakers    *breakerSet
	bo          client.Backoff
	retries429  int
	retryBudget int
	log         *slog.Logger

	sweepMu    sync.Mutex
	lastSweep  SweepStats
	sweepTrace string
}

// Option customizes a ShardedClient.
type Option func(*ShardedClient)

// WithHTTPClient substitutes the *http.Client used for every replica.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *ShardedClient) {
		for rep := range c.clients {
			c.clients[rep] = client.New(rep, client.WithHTTPClient(hc))
		}
	}
}

// WithQuarantine sets how long a tripped breaker stays open before its
// half-open probe; default 3s. (The name predates the breaker: the
// open state is what the old quarantine timer became.)
func WithQuarantine(d time.Duration) Option {
	return func(c *ShardedClient) { c.breakers.cooldown = d }
}

// WithBreakerThreshold sets how many consecutive failures trip a
// replica's breaker; default 2, so one flaky exchange never exiles a
// healthy replica. 1 restores trip-on-first-failure.
func WithBreakerThreshold(n int) Option {
	return func(c *ShardedClient) {
		if n >= 1 {
			c.breakers.threshold = n
		}
	}
}

// WithMaxRetryWait caps every backoff sleep, including how long a
// 429's Retry-After hint is honored before the request fails over
// anyway; default 15s.
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
		retries429:  2,
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

// markDown records a failed exchange with a replica; enough
// consecutive failures trip its breaker.
func (c *ShardedClient) markDown(rep string) {
	c.breakers.failure(rep)
}

// markUp closes a replica's breaker after a successful exchange.
func (c *ShardedClient) markUp(rep string) {
	c.breakers.success(rep)
}

// replicaState reports whether a replica is currently usable and
// whether it should be health-probed before carrying a real request
// (its breaker is half-open).
func (c *ShardedClient) replicaState(rep string) (usable, probeFirst bool) {
	return c.breakers.state(rep)
}

// candidates returns the failover order for key restricted to usable
// replicas; when every breaker is open it returns the full ranking
// (trying a possibly-dead replica beats failing without trying).
func (c *ShardedClient) candidates(key string) []string {
	ranked := c.ring.Ranked(key)
	usable := ranked[:0:0]
	for _, rep := range ranked {
		if ok, _ := c.replicaState(rep); ok {
			usable = append(usable, rep)
		}
	}
	if len(usable) == 0 {
		return ranked
	}
	return usable
}

// reprobe applies the half-open policy for one replica: when its
// breaker's cooldown just lapsed, a /healthz probe decides readmission
// (markUp, closing the breaker) or re-opening (markDown, returning the
// probe error). Both routing walks — do and healthyCandidate — share
// this, so the policy lives in one place. Callers decide separately
// whether a replica with an open breaker may be tried at all.
func (c *ShardedClient) reprobe(ctx context.Context, rep string) error {
	if _, probe := c.replicaState(rep); !probe {
		return nil
	}
	if err := c.clients[rep].Health(ctx); err != nil {
		c.markDown(rep)
		return err
	}
	c.markUp(rep)
	return nil
}

// healthyCandidate returns the highest-ranked replica for key that is
// usable right now, health-probing any whose quarantine just expired
// so a still-dead replica is not handed fresh work on faith. When
// every replica is down it returns the key's owner — trying beats
// failing without trying.
func (c *ShardedClient) healthyCandidate(ctx context.Context, key string) string {
	ranked := c.ring.Ranked(key)
	for _, rep := range ranked {
		if usable, _ := c.replicaState(rep); !usable {
			continue
		}
		if c.reprobe(ctx, rep) != nil {
			continue
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

// backoff sleeps before retrying rep, under the shared client.Backoff
// policy: a 429's Retry-After hint is honored (bounded by
// WithMaxRetryWait) with deterministic jitter layered on top, so N
// coordinators given the same hint wake staggered instead of
// re-stampeding the replica in lockstep; other errors get the capped
// exponential schedule. The hint is APIError.RetryAfter, which
// pkg/client stamps through its single client.ParseRetryAfter parser
// (delta-seconds and HTTP-date forms, clamped non-negative) — the
// fabric never re-reads headers itself.
func (c *ShardedClient) backoff(ctx context.Context, rep string, attempt int, err error) error {
	return c.bo.Sleep(ctx, rep, attempt, err)
}

// do routes one request: try the key's replicas in weight order,
// health-probing a just-unquarantined replica first, honoring
// Retry-After on 429 (bounded retries per replica), quarantining and
// failing over on transport or server errors.
func (c *ShardedClient) do(ctx context.Context, key string, f func(cl *client.Client) error) error {
	var lastErr error
	for _, rep := range c.candidates(key) {
		cl := c.clients[rep]
		if err := c.reprobe(ctx, rep); err != nil {
			lastErr = err
			continue
		}
		for attempt := 0; ; attempt++ {
			err := f(cl)
			if err == nil {
				c.markUp(rep)
				return nil
			}
			if ctx.Err() != nil {
				return err
			}
			if permanent(err) {
				return err
			}
			if client.IsThrottled(err) && attempt < c.retries429 {
				// Saturated, not dead: the replica asked us to come
				// back. Honor the hint before failing over.
				if werr := c.backoff(ctx, rep, attempt, err); werr != nil {
					return werr
				}
				continue
			}
			// Transport failure, server error, or an exhausted 429
			// budget: count it against the breaker and fall through to
			// the next-ranked replica.
			if !client.IsThrottled(err) {
				c.markDown(rep)
			}
			lastErr = err
			break
		}
	}
	return fmt.Errorf("cluster: every replica failed: %w", lastErr)
}

// Run executes one simulation on the replica owning the spec's
// canonical key, so identical requests from any coordinator coalesce
// on the same warm replica.
func (c *ShardedClient) Run(ctx context.Context, req client.RunRequest) (client.RunResponse, error) {
	spec, err := req.Spec()
	if err != nil {
		return client.RunResponse{}, err
	}
	key := experiments.Key(spec)
	var out client.RunResponse
	err = c.do(ctx, key, func(cl *client.Client) error {
		var e error
		out, e = cl.Run(ctx, req)
		return e
	})
	return out, err
}

// ProbeRun asks the cluster whether any replica already holds the
// result for a canonical key, checking the owner first and falling
// back down the ranking (a rebalance may have left the artifact on a
// previous owner).
func (c *ShardedClient) ProbeRun(ctx context.Context, key string) (client.RunResponse, bool, error) {
	var lastErr error
	for _, rep := range c.candidates(key) {
		out, ok, err := c.clients[rep].ProbeRun(ctx, key)
		if err != nil {
			if ctx.Err() != nil {
				return client.RunResponse{}, false, err
			}
			if permanent(err) {
				// The probe itself is malformed (4xx): no replica would
				// answer differently, and quarantining healthy replicas
				// over the requester's mistake would blind the fabric —
				// mirror do()/RunSpecs and fail fast instead.
				return client.RunResponse{}, false, err
			}
			c.markDown(rep)
			lastErr = err
			continue
		}
		c.markUp(rep)
		if ok {
			return out, true, nil
		}
	}
	if lastErr != nil {
		return client.RunResponse{}, false, fmt.Errorf("cluster: probe failed on every reachable replica: %w", lastErr)
	}
	return client.RunResponse{}, false, nil
}

// Stats aggregates /v1/stats across every reachable replica: counters
// and capacity gauges sum, uptime reports the longest-lived replica.
// An error is returned only when no replica answers.
func (c *ShardedClient) Stats(ctx context.Context) (client.StatsResponse, error) {
	per, err := c.PerReplicaStats(ctx)
	if err != nil {
		return client.StatsResponse{}, err
	}
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
	return agg, nil
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
				c.markDown(rep)
				errs[i] = err
			} else {
				c.markUp(rep)
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
