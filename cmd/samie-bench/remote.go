package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"samielsq"
	"samielsq/internal/experiments"
	"samielsq/internal/obs"
	"samielsq/pkg/client"
	"samielsq/pkg/cluster"
)

// remoteClient builds the driver for -server: a plain typed client for
// one URL, or the rendezvous-sharded fabric when the flag carries a
// comma-separated replica list.
func remoteClient(serverURL string) (client.API, error) {
	if strings.Contains(serverURL, ",") {
		return cluster.New(strings.Split(serverURL, ","))
	}
	return client.New(serverURL), nil
}

// runRemote executes the requested figures and scenarios against a
// samie-serve instance (or a replica set behind the cluster fabric)
// instead of simulating locally; the server-side batches dedup the
// work across every client. Returns a process exit code.
func runRemote(serverURL string, benchmarks []string, insts uint64, figures []experiments.Figure, scenarios []string, listScenarios, stats bool) int {
	c, err := remoteClient(serverURL)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	// With -trace-out the default recorder is live, so this roots every
	// remote request (figures, scenario streams, sharded sweeps) of the
	// invocation in one trace; otherwise the span is nil and free.
	ctx, root := obs.StartSpan(context.Background(), "bench.remote")
	defer root.End()
	if err := c.Health(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "server %s unreachable: %v\n", serverURL, err)
		return 1
	}

	if listScenarios {
		infos, err := c.Scenarios(ctx)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		for _, info := range infos {
			fmt.Printf("%-20s %s (%d variants)\n", info.Name, info.Description, len(info.Variants))
		}
		return 0
	}

	// Figures render the same text the local harnesses produce; the
	// bytes come from the server's shared batch.
	for _, f := range figures {
		fig, err := c.Figure(ctx, f.Name, benchmarks, insts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Println(fig.Text)
	}

	for _, name := range scenarios {
		res, err := c.RunScenario(ctx, name,
			client.ScenarioRunRequest{Benchmarks: benchmarks, Insts: insts},
			func(ev client.ScenarioEvent) {
				if ev.Type == "cell" {
					fmt.Fprintf(os.Stderr, "\r%s: %d/%d cells", name, ev.Done, ev.Total)
					if ev.Done == ev.Total {
						fmt.Fprintln(os.Stderr)
					}
				}
			})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Println(res.Text)
	}

	if stats {
		st, err := c.Stats(ctx)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("server batch: %d simulations executed, %d of %d requests served from cache (%.0f%% reuse), %d workers\n",
			st.Engine.Executed, st.Engine.Hits, st.Engine.Requests, 100*st.Engine.HitRate(), st.Workers)
		if st.CacheDir != "" {
			fmt.Printf("server disk cache %s: %d hits, %d misses, %d writes\n",
				st.CacheDir, st.Disk.Hits, st.Disk.Misses, st.Disk.Writes)
		}
	}
	return 0
}

// runPrune applies the disk-cache bounds and reports what it did.
// Returns a process exit code.
func runPrune(dir string, maxBytes int64, maxAge time.Duration) int {
	ps, err := samielsq.PruneCache(dir, maxBytes, maxAge)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("pruned %s: removed %d artifacts (%d bytes), %d remain (%d bytes)\n",
		dir, ps.Removed, ps.FreedBytes, ps.Remaining, ps.RemainingBytes)
	return 0
}
