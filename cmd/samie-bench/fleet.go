package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sort"
	"strings"
	"time"

	"samielsq/internal/obs"
	"samielsq/pkg/client"
	"samielsq/pkg/cluster"
)

// openFleet builds the -server driver: the rendezvous-sharded fabric
// over the comma-separated replica URLs (one URL is a ring of one),
// logging stream resumes and replica loss to stderr.
func openFleet(urls string, retryBudget int) (*cluster.ShardedClient, error) {
	return cluster.New(strings.Split(urls, ","),
		cluster.WithRetryBudget(retryBudget),
		cluster.WithLogger(slog.New(slog.NewTextHandler(os.Stderr, nil))))
}

// progress reports a sweep's completed runs on stderr.
func progress(label string) func(cluster.Progress) {
	return func(p cluster.Progress) {
		fmt.Fprintf(os.Stderr, "\r%s: %d/%d runs (last from %s)", label, p.Done, p.Total, p.Replica)
		if p.Done == p.Total {
			fmt.Fprintln(os.Stderr)
		}
	}
}

// printFleetStats writes the fleet's accounting to w: one block per
// replica (engine, store tiers, run phases), the cluster totals, the
// last sweep's retry accounting and the occupancy rollup. Every line
// comes from one /v1/stats answer per replica, so the totals are the
// sum of the replica lines above them.
func printFleetStats(ctx context.Context, w io.Writer, c *cluster.ShardedClient) error {
	per, err := c.PerReplicaStats(ctx)
	if err != nil {
		return err
	}
	reps := make([]string, 0, len(per))
	for rep := range per {
		reps = append(reps, rep)
	}
	sort.Strings(reps)
	agg := cluster.FoldStats(per)
	for _, rep := range reps {
		st := per[rep]
		fmt.Fprintf(w, "replica %s: %d executed, %d of %d served from cache, %d workers, up %s\n",
			rep, st.Engine.Executed, st.Engine.Hits, st.Engine.Requests,
			st.Workers, (time.Duration(st.UptimeSeconds) * time.Second).Round(time.Second))
		if ps := st.Store.Peer; ps.Hits > 0 || ps.Misses > 0 {
			fmt.Fprintf(w, "  store: mem %d/%d, disk %d/%d, peer %d/%d hits/misses, %d peer-installed\n",
				st.Store.Mem.Hits, st.Store.Mem.Misses, st.Store.Disk.Hits, st.Store.Disk.Misses,
				ps.Hits, ps.Misses, st.Store.PeerInstalls)
		}
		if line := phaseLine(st.RunPhases); line != "" {
			fmt.Fprintf(w, "  phases: %s\n", line)
		}
	}
	fmt.Fprintf(w, "cluster: %d replicas, %d simulations executed, %d of %d requests served from cache\n",
		len(reps), agg.Engine.Executed, agg.Engine.Hits, agg.Engine.Requests)
	if ps := agg.Store.Peer; ps.Hits > 0 || ps.Misses > 0 {
		fmt.Fprintf(w, "cluster store: %d peer fetches delivered, %d missed, %d installed to disk\n",
			ps.Hits, ps.Misses, agg.Store.PeerInstalls)
	}
	sw := c.SweepStats()
	fmt.Fprintf(w, "cluster sweep: %d rounds, %d stream resumes, %d throttle waits, %d of %d retry budget spent, %d breaker trips\n",
		sw.Rounds, sw.Resumes, sw.ThrottleWaits, sw.RetriesUsed, sw.RetryBudget, sw.BreakerTrips)
	if id := c.SweepTraceID(); id != "" {
		fmt.Fprintf(w, "cluster sweep trace: %s\n", id)
	}
	printOccupancyTable(w, agg)
	return nil
}

// printOccupancyTable renders the fleet-wide interval-telemetry
// rollup: one row per benchmark personality with mean/peak structure
// occupancy and sampled IPC, then the modeled per-structure energy
// split. Silent when no replica retained telemetry (all runs were
// cache hits, or the fleet predates interval sampling).
func printOccupancyTable(w io.Writer, agg client.StatsResponse) {
	if len(agg.TimelineStats) > 0 {
		benches := make([]string, 0, len(agg.TimelineStats))
		for b := range agg.TimelineStats {
			benches = append(benches, b)
		}
		sort.Strings(benches)
		fmt.Fprintf(w, "cluster occupancy (sampled intervals, per personality):\n")
		fmt.Fprintf(w, "  %-12s %6s %10s %9s %9s %9s %9s %8s\n",
			"benchmark", "runs", "samples", "lsq-mean", "lsq-peak", "rob-mean", "rob-peak", "ipc")
		for _, b := range benches {
			oa := agg.TimelineStats[b]
			fmt.Fprintf(w, "  %-12s %6d %10d %9.1f %9d %9.1f %9d %8.3f\n",
				b, oa.Runs, oa.Samples, oa.MeanLSQ(), oa.PeakLSQ, oa.MeanROB(), oa.PeakROB, oa.MeanIPC())
		}
	}
	if len(agg.EnergyPJ) > 0 {
		structs := make([]string, 0, len(agg.EnergyPJ))
		for k := range agg.EnergyPJ {
			structs = append(structs, k)
		}
		sort.Strings(structs)
		var parts []string
		for _, k := range structs {
			parts = append(parts, fmt.Sprintf("%s=%.3guJ", k, agg.EnergyPJ[k]*1e-6))
		}
		fmt.Fprintf(w, "cluster energy (sampled): %s\n", strings.Join(parts, " "))
	}
}

// phaseLine renders one replica's per-phase latency percentiles
// (p50/p95/p99 from the samie_run_phase_seconds snapshot), skipping
// phases the replica never entered. Empty when the replica predates
// phase accounting.
func phaseLine(ps obs.PhaseStats) string {
	var parts []string
	for _, p := range obs.AllPhases() {
		h := ps[p.String()]
		if h.Count == 0 {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s p50=%s p95=%s p99=%s n=%d",
			p, fmtSecs(h.Quantile(0.50)), fmtSecs(h.Quantile(0.95)), fmtSecs(h.Quantile(0.99)), h.Count))
	}
	return strings.Join(parts, ", ")
}

// fmtSecs renders a seconds quantile as a compact duration.
func fmtSecs(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(10 * time.Microsecond).String()
}

// writeTrace exports this invocation's trace as Chrome trace-event
// JSON: every span and counter track the process recorded and, with a
// fleet, each replica's retained spans and counters for the sweeps
// this invocation ran, tagged with their source so Perfetto lays them
// out in per-process lanes. No-op without -trace-out.
func writeTrace(ctx context.Context, path string, fleet *cluster.ShardedClient, sweeps []string) {
	if path == "" {
		return
	}
	spans := obs.Default().Spans()
	tracks := obs.Default().Counters()
	if fleet != nil {
		for i := range spans {
			spans[i].Attrs = append(spans[i].Attrs, obs.SpanAttr{Key: "source", Value: "coordinator"})
		}
		seen := map[string]bool{}
		for _, id := range sweeps {
			if id == "" || seen[id] {
				continue
			}
			seen[id] = true
			s, t := fleet.TraceData(ctx, id)
			spans = append(spans, s...)
			tracks = append(tracks, t...)
		}
	}
	data, err := obs.ChromeTraceWithCounters(spans, tracks)
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "trace-out: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "trace: %d spans, %d counter tracks written to %s\n", len(spans), len(tracks), path)
}
