// Command samie-bench regenerates the paper's evaluation artefacts:
// the paper rows of the figure table (internal/experiments/figtable.go),
// its figures and static tables. All simulations execute through one
// shared batch, so a spec several rows need simulates exactly once.
//
// Usage:
//
//	samie-bench                      # everything, default budget
//	samie-bench -insts 1000000       # higher-fidelity run
//	samie-bench -fig 5 -fig 6        # specific figures
//	samie-bench -fig table1          # a static table, by its row name
//	samie-bench -fig claims          # the paper's claims beside the reproduced values
//	samie-bench -bench ammp,swim     # subset of the suite
//	samie-bench -list-scenarios      # the figure table's scenario sweeps
//	samie-bench -scenario models     # run a registered sweep
//	samie-bench -workers 4 -stats    # bound the pool, cache stats on stderr
//	samie-bench -cachedir ""         # disable the on-disk run cache
//	samie-bench -prune -prune-max-bytes 1000000000      # bound the disk cache
//	samie-bench -server http://host:8344 -fig 5 -fig 6  # remote mode via samie-serve
//	samie-bench -server http://a:8344,http://b:8344     # remote mode over a replica set
//	samie-bench -server ... -stats -trace-out sweep.json # + fleet accounting and trace
//	samie-bench -profile             # measure hot-path throughput
//	samie-bench -profile -baseline BENCH_hotpath.json   # gate one session on the last recorded one
//	samie-bench -baseline sessions.json                 # gate interleaved baseline, change sessions (CI)
//	samie-bench -trajectory BENCH_e2e.json              # chain-linked end-to-end perf index per PR
//
// Results are spilled to an on-disk cache (content-addressed by the
// canonical RunSpec key, default <user cache dir>/samielsq, override
// with -cachedir, disable with -cachedir "") so repeated invocations
// reuse finished simulations across processes.
//
// With -server the simulations run on samie-serve replicas instead:
// the specs the suite or the selected figure-table rows (figures and
// scenarios alike) need are sharded across the replica list by
// rendezvous hashing of their canonical keys (one URL is a ring of
// one), in one sweep per invocation, and the artefacts render locally
// from the results —
// byte-identical to local mode however the keys spread. Without a
// selection flag stdout is the whole suite — every paper row, then its
// accounting line — in both modes
// (internal/experiments/testdata/golden_suite.txt at -bench
// ammp,gzip,mcf,swim -insts 25000). See docs/cluster.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"samielsq"
	"samielsq/internal/experiments"
	"samielsq/internal/obs"
	"samielsq/pkg/cluster"
)

type stringList []string

func (f *stringList) String() string     { return strings.Join(*f, ",") }
func (f *stringList) Set(v string) error { *f = append(*f, v); return nil }

func main() {
	var figs, scenarios stringList
	insts := flag.Uint64("insts", experiments.DefaultInsts, "measured instructions per benchmark")
	benchCSV := flag.String("bench", "", "comma-separated benchmark subset (default: all 26)")
	var selectors []string
	for _, f := range experiments.Figures() {
		selectors = append(selectors, f.Selects...)
	}
	flag.Var(&figs, "fig", "figure or table to regenerate ("+strings.Join(selectors, ",")+"); repeatable")
	flag.Var(&scenarios, "scenario", "registered scenario sweep to run; repeatable")
	listScenarios := flag.Bool("list-scenarios", false, "list registered scenario sweeps and exit")
	workers := flag.Int("workers", 0, "max concurrent simulations (default GOMAXPROCS)")
	stats := flag.Bool("stats", false, "print the shared batch's run-cache accounting (with -server: per-replica, sweep and occupancy accounting) on stderr")
	cachedir := flag.String("cachedir", "auto", `on-disk run cache directory ("auto" = <user cache dir>/samielsq, "" disables)`)
	serverURL := flag.String("server", "", "run remotely on these comma-separated samie-serve base URLs, sharding the simulations by rendezvous hashing, instead of simulating locally")
	retryBudget := flag.Int("max-retry-budget", 32, "with -server: total stream resumes + re-shard rounds one sweep may spend before giving up")
	prune := flag.Bool("prune", false, "prune the on-disk run cache per -prune-max-* and exit")
	pruneMaxBytes := flag.Int64("prune-max-bytes", 0, "with -prune: keep at most this many artifact bytes (0 = unbounded)")
	pruneMaxAge := flag.Duration("prune-max-age", 0, "with -prune: drop artifacts older than this (0 = keep forever)")
	profile := flag.Bool("profile", false, "measure hot-path throughput (insts/sec per model) and exit")
	profileInsts := flag.Uint64("profile-insts", 50_000, "measured instructions per profile case")
	profileReps := flag.Int("profile-reps", 3, "repetitions per profile case (best wins)")
	profileLabel := flag.String("profile-label", "local", "label for the recorded profile session")
	benchOut := flag.String("bench-out", "", "append the profile session to this BENCH_*.json file")
	baseline := flag.String("baseline", "", "throughput gate (exit 1 on regression): with -profile, the new session against this BENCH_*.json file's last one; alone, this file's sessions as interleaved baseline, change pairs")
	tolerance := flag.Float64("tolerance", 0.10, "smallest fractional throughput regression the -baseline gate fails; the baseline sessions' A/A spread widens it")
	traceOut := flag.String("trace-out", "", "write this invocation's span trace as Chrome trace-event JSON here (open in Perfetto); with -server it includes every replica's spans and counter tracks for the sweeps")
	trajectory := flag.String("trajectory", "", "render the chain-linked end-to-end perf index recorded in this BENCH_e2e.json file and exit")
	timelineOut := flag.String("timeline-out", "", "write every locally simulated run's interval timeline as NDJSON here (one meta line + one sample line per interval, per run)")
	flag.Parse()

	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments: %v\n", flag.Args())
		os.Exit(2)
	}
	if *trajectory != "" {
		f, err := readE2EFile(*trajectory)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		renderTrajectory(os.Stdout, f)
		return
	}
	if *traceOut != "" {
		obs.Default().SetEnabled(true)
	}
	if *profile || *baseline != "" {
		var cur *benchEntry
		if *profile {
			entry := runProfile(*profileInsts, *profileReps, *profileLabel)
			cur = &entry
			if *benchOut != "" {
				if err := writeBenchOut(*benchOut, entry); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				fmt.Printf("profile session appended to %s\n", *benchOut)
			}
		}
		if *baseline == "" {
			return
		}
		pairs, err := gatePairs(*baseline, cur)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if failures := compareBaseline(pairs, *tolerance); len(failures) > 0 {
			for _, f := range failures {
				fmt.Fprintln(os.Stderr, "REGRESSION:", f)
			}
			os.Exit(1)
		}
		fmt.Println("no regression beyond the bounds")
		return
	}
	// Resolve the disk cache directory once; -prune and the local
	// batch share the -cachedir semantics.
	dir, dirErr := experiments.ResolveCacheDir(*cachedir)
	if dirErr != nil {
		fmt.Fprintf(os.Stderr, "disk cache disabled: %v\n", dirErr)
		dir = ""
	}
	if *prune {
		if dir == "" {
			fmt.Fprintln(os.Stderr, "-prune needs a cache directory (-cachedir)")
			os.Exit(2)
		}
		os.Exit(runPrune(dir, *pruneMaxBytes, *pruneMaxAge))
	}

	var benchmarks []string // nil = each row's default rows
	if *benchCSV != "" {
		benchmarks = strings.Split(*benchCSV, ",")
	}

	// Without a selection flag the whole suite renders: every paper
	// row, then the accounting line. Otherwise only the figure-table
	// rows the -fig names and -scenario names select (paper rows in
	// table order, then scenarios in flag order). An unknown figure or
	// scenario is rejected before any simulation runs or any server is
	// contacted.
	suite := len(figs) == 0 && len(scenarios) == 0
	selected, err := experiments.SelectFigures(figs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for _, name := range scenarios {
		row, ok := experiments.LookupFigure(name)
		if !ok || row.Scenario == nil {
			fmt.Fprintf(os.Stderr, "unknown scenario %q (see -list-scenarios)\n", name)
			os.Exit(2)
		}
		selected = append(selected, row)
	}
	if suite {
		selected = experiments.Figures()
	}
	// So is a run the simulator cannot take, such as an unknown -bench
	// name.
	specs := experiments.FigureSpecs(selected, benchmarks, *insts)
	for _, s := range specs {
		if _, err := experiments.ValidateSpec(s); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	if *listScenarios {
		for _, name := range experiments.ScenarioNames() {
			row, _ := experiments.LookupFigure(name)
			fmt.Printf("%-20s %s (%d variants)\n", name, row.Scenario.Description, len(row.Scenario.Variants))
		}
		return
	}

	// Remote mode: the simulations run on the replicas; a bad URL list
	// is a usage error, an unreachable fleet a runtime one. A selection
	// that simulates nothing (static tables only) has nothing to place:
	// it renders locally, and the fleet is never contacted.
	ctx := context.Background()
	var fleet *cluster.ShardedClient
	if *serverURL != "" {
		if fleet, err = openFleet(*serverURL, *retryBudget); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if len(specs) == 0 {
			fleet = nil
		} else if err := fleet.Health(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "server %s unreachable: %v\n", *serverURL, err)
			os.Exit(1)
		}
	}

	// Locally, one batch serves every row this invocation renders,
	// spilling results to disk unless -cachedir "" asked not to (a
	// cache failure degrades to the uncached batch).
	var batch *experiments.Batch
	if fleet == nil {
		batch, dir = experiments.OpenBatch(*workers, dir, func(err error) {
			fmt.Fprintf(os.Stderr, "disk cache disabled: %v\n", err)
		})
	}
	// One span per artefact so -trace-out shows where the invocation's
	// wall-clock went (recorder disabled otherwise: StartSpan returns
	// nil and this is free); sweeps collects the trace IDs of the fleet
	// sweeps for the fleet-wide export.
	die := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	traced := func(name string, fn func(ctx context.Context) error) {
		ctx, sp := obs.StartSpan(ctx, name)
		err := fn(ctx)
		sp.End()
		if err != nil {
			die(err)
		}
	}
	var sweeps []string
	swept := func() { sweeps = append(sweeps, fleet.SweepTraceID()) }

	// Remotely, one sweep runs every spec the rows need and the rows
	// render from its results, with nothing run locally; the suite's
	// accounting then charges the swept specs as its executions.
	rowBatch, offered := batch, 0
	if fleet != nil {
		traced("assemble", func(ctx context.Context) (err error) {
			rowBatch, err = fleet.Assemble(ctx, specs, progress("figures"))
			swept()
			return err
		})
		offered = len(specs)
	}
	traced("figures", func(ctx context.Context) error {
		rows, err := rowBatch.Render(ctx, selected, benchmarks, *insts)
		for _, row := range rows {
			fmt.Println(row.Artefact)
		}
		return err
	})
	if fleet != nil {
		if err := cluster.PlanCovered(rowBatch); err != nil {
			die(err)
		}
	}
	if suite {
		// Exact bytes: the suite ends with its accounting line.
		fmt.Print(experiments.Accounting(experiments.SuiteRuns(rowBatch, offered)))
	}

	if fleet != nil {
		if *stats {
			if err := printFleetStats(ctx, os.Stderr, fleet); err != nil {
				die(err)
			}
		}
		writeTrace(ctx, *traceOut, fleet, sweeps)
		return
	}
	if *stats {
		st := batch.Stats()
		fmt.Fprintf(os.Stderr, "shared batch: %d simulations executed, %d of %d requests served from cache (%.0f%% reuse), %d workers\n",
			st.Executed, st.Hits, st.Requests, 100*st.HitRate(), batch.Workers())
		if dir != "" {
			ds := batch.DiskStats()
			fmt.Fprintf(os.Stderr, "disk cache %s: %d hits, %d misses, %d writes\n", dir, ds.Hits, ds.Misses, ds.Writes)
		}
	}
	if *timelineOut != "" {
		if err := writeTimelines(*timelineOut, batch.Timelines()); err != nil {
			fmt.Fprintf(os.Stderr, "timeline-out: %v\n", err)
		}
	}
	writeTrace(ctx, *traceOut, nil, nil)
}

// writeTimelines dumps the batch's retained run timelines as NDJSON:
// for each run a meta line ({"key","benchmark","model","stride",
// "samples"}) followed by one line per interval sample. Runs served
// from the disk cache carry no timeline and are absent.
func writeTimelines(path string, tls []experiments.RunTimeline) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	var samples int
	for _, tl := range tls {
		meta := struct {
			Key       string `json:"key"`
			Benchmark string `json:"benchmark"`
			Model     string `json:"model"`
			Stride    uint64 `json:"stride"`
			Samples   int    `json:"samples"`
		}{tl.Key, tl.Benchmark, tl.Model, tl.Stride, len(tl.Samples)}
		if err := enc.Encode(meta); err != nil {
			f.Close()
			return err
		}
		for _, ts := range tl.Samples {
			if err := enc.Encode(ts); err != nil {
				f.Close()
				return err
			}
		}
		samples += len(tl.Samples)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "timeline: %d runs, %d samples written to %s\n", len(tls), samples, path)
	return nil
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
