// Command samie-bench regenerates the paper's evaluation artefacts:
// every figure (1, 3, 4, 5, 6, 7-12) and table (1, 4, 5, 6) plus the
// §3.6 delay analysis. All simulations execute through one shared
// batch, so a spec needed by several figures (e.g. the
// conventional/SAMIE pair behind Figures 5/6 and 7-12) simulates
// exactly once.
//
// Usage:
//
//	samie-bench                      # everything, default budget
//	samie-bench -insts 1000000       # higher-fidelity run
//	samie-bench -fig 5 -fig 6        # specific figures
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
//	samie-bench -profile -baseline BENCH_hotpath.json   # CI regression gate
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
// selection flag stdout is the whole suite with its accounting line in
// both modes (internal/experiments/testdata/golden_suite.txt at
// -bench ammp,gzip,mcf,swim -insts 25000). See docs/cluster.md.
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
	flag.Var(&figs, "fig", "figure to regenerate (1,3,4,5,6,7..12); repeatable")
	flag.Var(&scenarios, "scenario", "registered scenario sweep to run; repeatable")
	listScenarios := flag.Bool("list-scenarios", false, "list registered scenario sweeps and exit")
	workers := flag.Int("workers", 0, "max concurrent simulations (default GOMAXPROCS)")
	stats := flag.Bool("stats", false, "print the shared batch's run-cache accounting (with -server: per-replica, sweep and occupancy accounting) on stderr")
	table1 := flag.Bool("table1", false, "regenerate Table 1 only")
	delays := flag.Bool("delays", false, "regenerate the §3.6 delay analysis only")
	tables456 := flag.Bool("tables456", false, "print Tables 4/5/6 and model cross-checks only")
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
	baseline := flag.String("baseline", "", "compare the profile session against this BENCH_*.json (exit 1 on regression)")
	tolerance := flag.Float64("tolerance", 0.20, "allowed fractional throughput regression vs -baseline")
	traceOut := flag.String("trace-out", "", "write this invocation's span trace as Chrome trace-event JSON here (open in Perfetto); with -server it includes every replica's spans and counter tracks for the sweeps")
	timelineOut := flag.String("timeline-out", "", "write every locally simulated run's interval timeline as NDJSON here (one meta line + one sample line per interval, per run)")
	flag.Parse()

	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments: %v\n", flag.Args())
		os.Exit(2)
	}
	if *traceOut != "" {
		obs.Default().SetEnabled(true)
	}
	if *profile {
		entry := runProfile(*profileInsts, *profileReps, *profileLabel)
		if *benchOut != "" {
			if err := writeBenchOut(*benchOut, entry); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("profile session appended to %s\n", *benchOut)
		}
		if *baseline != "" {
			failures, err := compareBaseline(entry, *baseline, *tolerance)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if len(failures) > 0 {
				for _, f := range failures {
					fmt.Fprintln(os.Stderr, "REGRESSION:", f)
				}
				os.Exit(1)
			}
			fmt.Printf("all cases within %.0f%% of baseline\n", *tolerance*100)
		}
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

	// Without a selection flag the whole suite renders; otherwise only
	// the figure-table rows the -fig numbers and -scenario names select
	// (figures in table order, then scenarios in flag order) and the
	// tables asked for. An unknown figure or scenario is rejected before
	// any simulation runs or any server is contacted.
	suite := len(figs) == 0 && len(scenarios) == 0 && !*table1 && !*delays && !*tables456
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
	// So is a run the simulator cannot take, such as an unknown -bench
	// name.
	if err := vetRunSet(suite, selected, benchmarks, *insts); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *listScenarios {
		for _, name := range experiments.ScenarioNames() {
			row, _ := experiments.LookupFigure(name)
			fmt.Printf("%-20s %s (%d variants)\n", name, row.Scenario.Description, len(row.Scenario.Variants))
		}
		return
	}

	// Remote mode: the simulations run on the replicas; a bad URL list
	// is a usage error, an unreachable fleet a runtime one.
	ctx := context.Background()
	var fleet *cluster.ShardedClient
	if *serverURL != "" {
		if fleet, err = openFleet(*serverURL, *retryBudget); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := fleet.Health(ctx); err != nil {
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

	if suite {
		if benchmarks == nil {
			benchmarks = experiments.Benchmarks()
		}
		traced("suite", func(ctx context.Context) (err error) {
			var res experiments.SuiteResult
			if fleet == nil {
				res = batch.Suite(benchmarks, *insts)
			} else {
				res, err = fleet.Suite(ctx, benchmarks, *insts, progress("suite"))
				swept()
				if err != nil {
					return err
				}
			}
			// Exact bytes: the suite ends with its accounting line.
			fmt.Print(res.String())
			return nil
		})
	}
	if len(selected) > 0 {
		// Remotely, one sweep runs every spec the selected rows need,
		// the rows render from its results, and nothing may have run
		// locally.
		rowBatch := batch
		if fleet != nil {
			traced("figures", func(ctx context.Context) (err error) {
				rowBatch, err = fleet.Assemble(ctx, experiments.FigureSpecs(selected, benchmarks, *insts), progress("figures"))
				swept()
				return err
			})
		}
		for _, row := range selected {
			traced("figure "+row.Name, func(ctx context.Context) error {
				out, err := row.Run(ctx, rowBatch, row.ResolveBenchmarks(benchmarks), *insts)
				if err == nil {
					fmt.Println(out)
				}
				return err
			})
		}
		if fleet != nil {
			if err := cluster.PlanCovered(rowBatch); err != nil {
				die(err)
			}
		}
	}
	if *table1 {
		fmt.Println(experiments.Table1())
	}
	if *delays {
		fmt.Println(experiments.Delays())
	}
	if *tables456 {
		fmt.Println(experiments.Tables456String())
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

// vetRunSet checks every simulation the invocation will request — the
// suite's or the selected rows' specs — with experiments.ValidateSpec.
func vetRunSet(suite bool, selected []experiments.Figure, benchmarks []string, insts uint64) error {
	if suite {
		selected = experiments.Figures()
	}
	for _, s := range experiments.FigureSpecs(selected, benchmarks, insts) {
		if _, err := experiments.ValidateSpec(s); err != nil {
			return err
		}
	}
	return nil
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
