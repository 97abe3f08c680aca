package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"syscall"
	"time"

	"samielsq/internal/experiments"
	"samielsq/internal/obs"
	"samielsq/pkg/client"
)

// Progress reports one completed remote simulation to a RunSpecs
// observer.
type Progress struct {
	Replica     string // replica that delivered the run
	Key         string // canonical spec key
	Done, Total int
}

// shardChunk caps how many specs one POST /v1/suite request carries.
// Chunking keeps every request proportionate to the server's single
// -request-timeout (a whole multi-hundred-run shard in one request
// would 504 mid-sweep at large budgets), bounds how much a severed
// stream loses, and stays far under the server's per-request spec cap.
// A var so tests can exercise multi-chunk shards cheaply.
var shardChunk = 64

// maxStreamResumes bounds how many times one replica's severed shard
// stream is resumed in place (re-requesting only undelivered specs
// from the same replica) before the replica is declared lost and its
// breaker takes the failure.
const maxStreamResumes = 4

// SweepStats is the retry/round accounting for one RunSpecs sweep —
// the diagnosable numbers behind "the sweep is slow/stalled".
type SweepStats struct {
	Rounds        int   `json:"rounds"`         // planning rounds (1 = failure-free)
	Resumes       int   `json:"resumes"`        // same-replica stream resumes
	ThrottleWaits int   `json:"throttle_waits"` // rounds spent honoring Retry-After
	RetriesUsed   int   `json:"retries_used"`   // budget consumed (resumes + re-shard rounds)
	RetryBudget   int   `json:"retry_budget"`   // configured per-sweep budget
	BreakerTrips  int64 `json:"breaker_trips"`  // breakers tripped during the sweep
}

// sweepState tracks one sweep's retry budget and statistics.
type sweepState struct {
	mu     sync.Mutex
	stats  SweepStats
	budget int
}

// spend consumes n units of the retry budget, returning false when the
// budget is exhausted.
func (s *sweepState) spend(n int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.budget < n {
		return false
	}
	s.budget -= n
	s.stats.RetriesUsed += n
	return true
}

// SweepStats returns the accounting of the most recently completed
// RunSpecs sweep (also the one behind Suite and Assemble).
func (c *ShardedClient) SweepStats() SweepStats {
	c.sweepMu.Lock()
	defer c.sweepMu.Unlock()
	return c.lastSweep
}

// RunSpecs executes an explicit spec set across the cluster: each spec
// is assigned to the rendezvous owner of its canonical key, every
// replica receives its shard as a sequence of bounded POST /v1/suite
// requests, and results stream back as the simulations complete.
//
// A shard stream that dies mid-body (reset, truncation) is first
// resumed in place: only the undelivered specs are re-requested from
// the same replica — which has kept simulating and memoized them, so
// the resume drains as cache hits and cluster-wide Executed accounting
// stays exactly-once. Only after maxStreamResumes consecutive dead
// streams is the replica declared lost: its breaker takes the failure
// and the remaining specs re-shard onto the survivors — completed runs
// are never re-requested — so a sweep survives losing replicas as long
// as one stays up. A replica that answers a chunk's first request with
// an error status (a 503 while draining, a 500) began no stream, so it
// is declared lost at once, without resuming; a refused connection
// also trips its breaker at once. A merely saturated
// replica (429) is not penalized:
// its Retry-After hint is honored (jittered) before the work is
// re-planned. Every resume and every re-shard round draws from the
// per-sweep retry budget (WithRetryBudget), so a pathological fleet
// fails loudly with accounting (SweepStats) instead of spinning.
// onProgress, when non-nil, observes every completed run from a single
// goroutine. Results are keyed by canonical spec key.
func (c *ShardedClient) RunSpecs(ctx context.Context, specs []experiments.RunSpec, onProgress func(Progress)) (map[string]client.RunResponse, error) {
	pending := make(map[string]experiments.RunSpec, len(specs))
	for _, s := range specs {
		pending[experiments.Key(s)] = s
	}
	total := len(pending)
	results := make(map[string]client.RunResponse, total)
	var mu sync.Mutex // guards pending + results + onProgress

	// Root the sweep in one trace: every shard chunk below opens a
	// child span whose context rides that chunk's Suite requests as a
	// traceparent header, so the whole multi-replica sweep reconstructs
	// as a single tree (coordinator spans locally, replica spans via
	// GET /v1/trace/{id} — see TraceSpans). With tracing disabled the
	// span is nil and every call on it is a no-op.
	ctx, sweepSpan := obs.StartSpan(ctx, "sweep")
	sweepSpan.SetAttr("specs", fmt.Sprintf("%d", total))
	defer sweepSpan.End()
	c.sweepMu.Lock()
	c.sweepTrace = ""
	if sc := sweepSpan.Context(); sc.IsValid() {
		c.sweepTrace = sc.Trace.String()
	}
	c.sweepMu.Unlock()

	sweep := &sweepState{budget: c.retryBudget}
	sweep.stats.RetryBudget = c.retryBudget
	tripsBefore, _ := c.breakers.snapshot()
	defer func() {
		trips, _ := c.breakers.snapshot()
		sweep.mu.Lock()
		sweep.stats.BreakerTrips = trips - tripsBefore
		st := sweep.stats
		sweep.mu.Unlock()
		c.sweepMu.Lock()
		c.lastSweep = st
		c.sweepMu.Unlock()
	}()

	// Stall accounting: rounds that fail for cause (dead replicas) get
	// a short budget; rounds shed with 429 + Retry-After are the
	// server keeping its promise, so they wait out the hint instead of
	// a fixed pause, and the sweep gives up only after the fleet has
	// stayed saturated for maxThrottledRounds hints of wall clock
	// (throttlePatience) — a capped wait polls more often, it does not
	// shorten the patience.
	const maxStalledRounds = 3
	stalled, throttledRounds := 0, 0
	var throttledSince time.Time
	for len(pending) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sweep.mu.Lock()
		sweep.stats.Rounds++
		firstRound := sweep.stats.Rounds == 1
		sweep.mu.Unlock()
		// Re-shard rounds (everything after the first plan) spend
		// retry budget: a sweep that keeps re-planning is retrying.
		roundTrips, _ := c.breakers.snapshot()
		if !firstRound && !sweep.spend(1) {
			mu.Lock()
			remaining := len(pending)
			mu.Unlock()
			return nil, fmt.Errorf("cluster: sweep retry budget (%d) exhausted with %d of %d specs undone (%s)",
				c.retryBudget, remaining, total, sweepDebug(sweep))
		}
		// Plan this round's shards: every pending spec goes to its
		// highest-ranked usable replica. Shards are disjoint, so in the
		// failure-free case each distinct spec executes exactly once
		// cluster-wide. A shard lists its specs' keys.
		shards := map[string][]string{}
		mu.Lock()
		keys := make([]string, 0, len(pending))
		for key := range pending {
			keys = append(keys, key)
		}
		sort.Strings(keys) // deterministic shard bodies
		for _, key := range keys {
			rep := c.healthyCandidate(ctx, key)
			shards[rep] = append(shards[rep], key)
		}
		before := len(pending)
		mu.Unlock()

		var wg sync.WaitGroup
		errsMu := sync.Mutex{}
		var lastErr, fatalErr, throttleErr error
		//lint:ordered shards run concurrently per replica; launch order is immaterial and shard bodies are already key-sorted
		for rep, shard := range shards {
			wg.Add(1)
			go func(rep string, shard []string) {
				defer wg.Done()
				// lastTrace remembers the server-side traceparent of the
				// most recent run event this shard's streams delivered —
				// only this goroutine's stream callbacks write it, so no
				// extra lock. When a stream dies it names the trace the
				// resume re-requests work under.
				lastTrace := ""
				onEvent := func(ev client.SuiteEvent) {
					if ev.Type != "run" || ev.Run == nil {
						return
					}
					if ev.Trace != "" {
						lastTrace = ev.Trace
					}
					mu.Lock()
					defer mu.Unlock()
					key := ev.Run.Key
					if _, dup := results[key]; dup {
						return
					}
					if _, want := pending[key]; !want {
						return
					}
					results[key] = *ev.Run
					delete(pending, key)
					if onProgress != nil {
						onProgress(Progress{Replica: rep, Key: key, Done: len(results), Total: total})
					}
				}
				// undelivered filters a chunk down to the specs whose
				// results have not yet arrived on any stream.
				undelivered := func(chunk []string) []client.RunRequest {
					mu.Lock()
					defer mu.Unlock()
					reqs := make([]client.RunRequest, 0, len(chunk))
					for _, key := range chunk {
						if spec, want := pending[key]; want {
							reqs = append(reqs, client.RequestFor(spec))
						}
					}
					return reqs
				}
				peers := c.peersFor(rep)
				resumes := 0
				for start := 0; start < len(shard); start += shardChunk {
					end := min(start+shardChunk, len(shard))
					chunk := shard[start:end]
					// Each chunk gets a child span of the sweep root; its
					// context rides the chunk's Suite requests (including
					// resumes, which stay under the same chunk span) as
					// the traceparent header.
					chunkCtx, chunkSpan := obs.StartSpan(ctx, "sweep.chunk")
					chunkSpan.SetAttr("replica", rep)
					chunkSpan.SetAttr("specs", fmt.Sprintf("%d", len(chunk)))
					chunkDone := func() bool {
						defer chunkSpan.End()
						for attempt := 0; ; attempt++ {
							reqs := undelivered(chunk)
							if len(reqs) == 0 {
								return true
							}
							err := c.clients[rep].Suite(chunkCtx, client.SuiteRequest{Specs: reqs, Peers: peers}, onEvent)
							if err == nil {
								return true
							}
							if ctx.Err() != nil {
								return false
							}
							if permanent(err) {
								// The chunk itself was rejected (4xx): no
								// replica will answer differently, so fail the
								// sweep fast instead of penalizing healthy
								// replicas and re-sending a doomed request.
								errsMu.Lock()
								if fatalErr == nil {
									fatalErr = fmt.Errorf("%s rejected the shard: %w", rep, err)
								}
								errsMu.Unlock()
								return false
							}
							if client.IsThrottled(err) {
								// Saturated, not dead: keep the replica in the
								// ring and let the round honor its hint.
								errsMu.Lock()
								throttleErr = err
								errsMu.Unlock()
								return false
							}
							// The stream died mid-body. Resume against the SAME
							// replica first: it has kept simulating the chunk and
							// memoized the results, so the re-request drains from
							// its cache without re-executing anything — moving
							// the work elsewhere would double-execute it. That
							// holds whatever a resume request itself answers.
							// A status answered to the chunk's first request
							// (a 503 from a draining replica, a 500) is
							// different: no stream began, the replica holds
							// none of the chunk, and asking again in place
							// would only repeat the refusal. So is a refused
							// connection (a stopped replica): no TCP
							// connection was made, so no work started. A
							// reset or a truncated body may follow work the
							// replica began, and is resumed.
							var ae *client.APIError
							connRefused := attempt == 0 && errors.Is(err, syscall.ECONNREFUSED)
							refused := connRefused || attempt == 0 && errors.As(err, &ae)
							if !refused && resumes < maxStreamResumes && sweep.spend(1) {
								resumes++
								sweep.mu.Lock()
								sweep.stats.Resumes++
								sweep.mu.Unlock()
								// Name the trace the re-requested specs belong
								// to, so a truncated sweep is greppable from
								// the coordinator log straight into the trace
								// view.
								tp := lastTrace
								if tp == "" {
									tp = chunkSpan.TraceParent()
								}
								c.log.Info("shard stream died, resuming in place",
									"replica", rep, "undelivered", len(reqs),
									"resume", resumes, "trace", tp, "err", err)
								if werr := c.bo.Sleep(ctx, rep, resumes-1, err); werr != nil {
									return false
								}
								continue
							}
							// Refused, or out of resumes (or budget): the
							// replica is lost. Its breaker takes the failure
							// and the next round re-shards whatever it had not
							// delivered. Nothing listens behind a refused
							// connection, so that breaker opens at once rather
							// than after another round of the same refusal.
							if connRefused {
								c.breakers.down(rep)
							} else {
								c.breakers.failure(rep)
							}
							c.log.Warn("replica lost mid-sweep, re-sharding its work",
								"replica", rep, "undelivered", len(reqs), "err", err)
							errsMu.Lock()
							lastErr = fmt.Errorf("%s: %w", rep, err)
							errsMu.Unlock()
							return false
						}
					}()
					if !chunkDone {
						return
					}
				}
			}(rep, shard)
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if fatalErr != nil {
			return nil, fatalErr
		}

		mu.Lock()
		remaining := len(pending)
		mu.Unlock()
		switch {
		case remaining == 0:
		case remaining < before:
			stalled, throttledRounds = 0, 0
		case throttleErr != nil:
			throttledRounds++
			sweep.mu.Lock()
			sweep.stats.ThrottleWaits++
			sweep.mu.Unlock()
			if throttledRounds == 1 {
				throttledSince = time.Now()
			} else if waited := time.Since(throttledSince); waited >= throttlePatience(throttleErr) {
				return nil, fmt.Errorf("cluster: sweep throttled for %d rounds (%s) with %d of %d specs undone (%s): %w",
					throttledRounds, waited.Round(time.Millisecond), remaining, total, sweepDebug(sweep), throttleErr)
			}
			// Wait out the server's own Retry-After hint (client.Backoff
			// caps it at WithMaxRetryWait and layers deterministic
			// jitter on top), so coordinators given the same hint wake
			// staggered instead of re-stampeding the fleet in lockstep.
			if err := c.bo.Sleep(ctx, "sweep", throttledRounds-1, throttleErr); err != nil {
				return nil, err
			}
		default:
			stalled++
			if stalled >= maxStalledRounds {
				if lastErr == nil {
					// Every chunk request succeeded yet nothing it
					// streamed matched a pending key: the replicas are
					// computing canonical spec keys differently from
					// this coordinator (mixed-version deployment — the
					// key covers the full normalized spec, including
					// the CPU configuration).
					return nil, fmt.Errorf("cluster: sweep stalled with %d of %d specs undone (%s): replicas answered but delivered no pending keys (coordinator/replica version skew?)", remaining, total, sweepDebug(sweep))
				}
				return nil, fmt.Errorf("cluster: sweep stalled with %d of %d specs undone (%s): %w", remaining, total, sweepDebug(sweep), lastErr)
			}
			// A round that opened a breaker while some replica's
			// breaker is still closed re-shards onto that replica at
			// once. Otherwise every replica is open: give the breakers
			// a moment toward half-open before re-sharding the same
			// work.
			if trips, open := c.breakers.snapshot(); trips > roundTrips && open < len(c.clients) {
				continue
			}
			select {
			case <-time.After(500 * time.Millisecond):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	}
	return results, nil
}

// maxThrottledRounds is how many of a saturated fleet's Retry-After
// hints a sweep waits out before giving up.
const maxThrottledRounds = 20

// throttlePatience is how long a sweep tolerates a saturated fleet:
// maxThrottledRounds of the server's own Retry-After hint (1s when the
// 429 carried none), measured in wall clock.
func throttlePatience(err error) time.Duration {
	hint := time.Second
	var ae *client.APIError
	if errors.As(err, &ae) && ae.RetryAfter > 0 {
		hint = ae.RetryAfter
	}
	return maxThrottledRounds * hint
}

// sweepDebug renders a sweep's accounting for error messages, so a
// failed sweep reports what it spent instead of failing opaquely.
func sweepDebug(s *sweepState) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return fmt.Sprintf("rounds=%d resumes=%d throttle_waits=%d retries_used=%d/%d",
		s.stats.Rounds, s.stats.Resumes, s.stats.ThrottleWaits, s.stats.RetriesUsed, s.stats.RetryBudget)
}

// peersFor returns the replica set minus the target — the sibling
// list a shard request carries so the target can warm its tier-2
// peer-fetch store from the rest of the fleet (e.g. after a rebalance
// moved keys it never executed). Nil for a single-replica ring: a
// replica with no siblings has nothing to adopt, and an empty push
// must not clear an operator's static -peers configuration.
func (c *ShardedClient) peersFor(rep string) []string {
	all := c.ring.Replicas()
	peers := make([]string, 0, len(all)-1)
	for _, r := range all {
		if r != rep {
			peers = append(peers, r)
		}
	}
	if len(peers) == 0 {
		return nil
	}
	return peers
}

// Suite regenerates the paper's full evaluation by fanning the suite
// spec set across the cluster and reassembling it locally (Assemble):
// the standard Suite harness then renders entirely from the offered
// results — byte-identical to the single-node RunSuite output, nil
// benchmarks resolving per row as there. The run-accounting line
// (experiments.SuiteRuns) charges the sweep's distinct simulations as
// executed (remotely, exactly once in the failure-free case) against
// the same request pattern the single-node harness issues.
func (c *ShardedClient) Suite(ctx context.Context, benchmarks []string, insts uint64, onProgress func(Progress)) (experiments.SuiteResult, error) {
	specs := experiments.SuiteSpecs(benchmarks, insts)
	local, err := c.Assemble(ctx, specs, onProgress)
	if err != nil {
		return experiments.SuiteResult{}, err
	}
	res := local.Suite(benchmarks, insts)
	if err := PlanCovered(local); err != nil {
		return experiments.SuiteResult{}, err
	}
	res.Runs = experiments.SuiteRuns(local, len(specs))
	return res, nil
}

// PlanCovered asserts the shard plan covered every simulation the
// local rendering pass requested. The local batch exists to serve the
// harnesses from offered remote results; if it executed anything
// itself, the spec enumeration drifted from a harness and the cluster
// was silently bypassed for those runs — a programming bug that must
// surface loudly (the rendered output would still be correct, which is
// exactly why nothing else would ever notice).
func PlanCovered(local *experiments.Batch) error {
	if ex := local.Stats().Executed; ex > 0 {
		return fmt.Errorf("cluster: %d simulations ran locally during reassembly: the shard plan (FigureSpecs) no longer covers the harnesses", ex)
	}
	return nil
}

// Assemble fans the specs out in one RunSpecs sweep and returns a
// local batch warmed with every collected result, ready to render any
// harness over them as pure cache hits (check with PlanCovered).
func (c *ShardedClient) Assemble(ctx context.Context, specs []experiments.RunSpec, onProgress func(Progress)) (*experiments.Batch, error) {
	byKey := make(map[string]experiments.RunSpec, len(specs))
	for _, s := range specs {
		byKey[experiments.Key(s)] = s
	}
	results, err := c.RunSpecs(ctx, specs, onProgress)
	if err != nil {
		return nil, err
	}
	local := experiments.NewBatch(0)
	//lint:ordered each key installs its own result; Offer is per-key with no cross-key state
	for key, rr := range results {
		local.Offer(byKey[key], rr.Result())
	}
	return local, nil
}
