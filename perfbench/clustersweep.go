package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"samielsq/internal/experiments"
	"samielsq/internal/experiments/engine"
	"samielsq/pkg/cluster"
)

// The golden matrix: the suite the repository's golden test pins, 148
// distinct specs.
var goldenBenchmarks = []string{"ammp", "gzip", "mcf", "swim"}

const (
	goldenInsts = 25_000
	// sweepReplicas replicas with one simulation worker each.
	sweepReplicas = 2
)

// runClusterSweep is the segment every traced run adds for the cluster
// and engine layers: one golden-suite sweep through
// cluster.ShardedClient.Suite over two fresh, cold replicas, checked
// byte for byte against the golden file. It is not a declared workload
// and reports per-layer metrics only; its timings are raw wall-clock.
func runClusterSweep(cfg segCfg) (segResult, error) {
	var res segResult
	golden, err := os.ReadFile(filepath.Join(cfg.root, "internal", "experiments", "testdata", "golden_suite.txt"))
	if err != nil {
		return res, err
	}
	distinct := len(experiments.SuiteSpecs(goldenBenchmarks, goldenInsts))

	ssp := cfg.tr.begin("sweep", 0)
	defer ssp.end()
	bsp := cfg.tr.begin("setup", ssp.id)
	rs := make([]*replica, sweepReplicas)
	urls := make([]string, sweepReplicas)
	defer func() {
		for _, r := range rs {
			if r != nil {
				r.retire()
				r.ep.close()
			}
		}
	}()
	for i := range rs {
		ep, err := listen("127.0.0.1:0")
		if err != nil {
			return res, err
		}
		r, err := bootReplica(ep, filepath.Join(cfg.work, fmt.Sprintf("sweep-%d", i)),
			replicaOpts{workers: 1, peerAdopt: true})
		if err != nil {
			ep.close()
			return res, err
		}
		rs[i], urls[i] = r, ep.url
	}
	bsp.end()
	sc, err := cluster.New(urls, cluster.WithLogger(quietLog))
	if err != nil {
		return res, err
	}

	lastBy := map[string]float64{}
	var lastAny float64
	sp := cfg.tr.begin("cluster.ShardedClient.Suite", ssp.id)
	t0 := time.Now()
	suite, err := sc.Suite(context.Background(), goldenBenchmarks, goldenInsts, func(p cluster.Progress) {
		at := time.Since(t0).Seconds()
		lastBy[p.Replica] = at
		lastAny = at
	})
	sp.end()
	rsp := cfg.tr.begin("experiments.SuiteResult.String", ssp.id)
	ok := err == nil && suite.String() == string(golden)
	rsp.end()
	end := time.Since(t0).Seconds()

	var sum engine.Stats // summed over the replicas
	var most int64
	var warmS, measS float64
	for _, r := range rs {
		st := r.batch.Stats()
		sum.Requests += st.Requests
		sum.Executed += st.Executed
		sum.Hits += st.Hits
		sum.Evictions += st.Evictions
		most = max(most, st.Executed)
		ph := r.batch.PhaseStats()
		warmS += ph["warmup"].Sum
		measS += ph["measured"].Sum
	}
	res.attempted = 1
	if !ok || sum.Executed != int64(distinct) {
		res.failed = 1
	}
	first := lastAny
	for _, t := range lastBy {
		first = min(first, t)
	}
	stats := sc.SweepStats()
	res.unitCost = end
	res.layer = map[string]float64{
		"cluster.sweep_s":      end,
		"cluster.tail_s":       end - first,
		"cluster.replica_skew": float64(most) * sweepReplicas / float64(distinct),
		"cluster.sim_util":     (warmS + measS) / (sweepReplicas * end),
		"cluster.rounds":       float64(stats.Rounds),
		"cluster.retries_used": float64(stats.RetriesUsed),
		"phase.warmup_s":       warmS,
		"phase.measured_s":     measS,
		"experiments.render_s": end - lastAny,
		"engine.requests":      float64(sum.Requests),
		"engine.executed":      float64(sum.Executed),
		"engine.hits":          float64(sum.Hits),
		"engine.evictions":     float64(sum.Evictions),
	}
	return res, nil
}
