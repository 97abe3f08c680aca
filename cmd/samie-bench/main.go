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
//	samie-bench -list-scenarios      # named sweeps from the registry
//	samie-bench -scenario models     # run a registered sweep
//	samie-bench -workers 4 -stats    # bound the pool, print cache stats
//	samie-bench -cachedir ""         # disable the on-disk run cache
//	samie-bench -prune -prune-max-bytes 1000000000      # bound the disk cache
//	samie-bench -server http://host:8344 -fig 5 -fig 6  # remote mode via samie-serve
//	samie-bench -server http://a:8344,http://b:8344     # remote mode over a replica set (pkg/cluster)
//	samie-bench -profile             # measure hot-path throughput
//	samie-bench -profile -baseline BENCH_hotpath.json   # CI regression gate
//
// Results are spilled to an on-disk cache (content-addressed by the
// canonical RunSpec key, default <user cache dir>/samielsq, override
// with -cachedir, disable with -cachedir "") so repeated invocations
// reuse finished simulations across processes.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"samielsq/internal/experiments"
	"samielsq/internal/obs"
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
	stats := flag.Bool("stats", false, "print the shared batch's run-cache accounting")
	table1 := flag.Bool("table1", false, "regenerate Table 1 only")
	delays := flag.Bool("delays", false, "regenerate the §3.6 delay analysis only")
	tables456 := flag.Bool("tables456", false, "print Tables 4/5/6 and model cross-checks only")
	cachedir := flag.String("cachedir", "auto", `on-disk run cache directory ("auto" = <user cache dir>/samielsq, "" disables)`)
	serverURL := flag.String("server", "", "run remotely against this samie-serve base URL (or a comma-separated replica list, sharded by rendezvous hashing) instead of simulating locally")
	prune := flag.Bool("prune", false, "prune the on-disk run cache per -prune-max-* and exit")
	pruneMaxBytes := flag.Int64("prune-max-bytes", 0, "with -prune: keep at most this many artifact bytes (0 = unbounded)")
	pruneMaxAge := flag.Duration("prune-max-age", 0, "with -prune: drop artifacts older than this (0 = keep forever)")
	profile := flag.Bool("profile", false, "measure hot-path throughput (insts/sec per model) and exit")
	profileInsts := flag.Uint64("profile-insts", 50_000, "measured instructions per profile case")
	profileReps := flag.Int("profile-reps", 3, "repetitions per profile case (best wins)")
	profileLabel := flag.String("profile-label", "local", "label for the recorded profile session")
	profileLegacy := flag.Bool("profile-legacy-walk", false, "profile on the pre-wakeup LegacyIssueWalk issue engine (before/after trajectory entries; skips the figure1 sweep)")
	benchOut := flag.String("bench-out", "", "append the profile session to this BENCH_*.json file")
	baseline := flag.String("baseline", "", "compare the profile session against this BENCH_*.json (exit 1 on regression)")
	tolerance := flag.Float64("tolerance", 0.20, "allowed fractional throughput regression vs -baseline")
	traceOut := flag.String("trace-out", "", "write this invocation's span trace as Chrome trace-event JSON here (open in Perfetto); for the fleet-wide sweep view use samie-cluster -trace-out")
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
		entry := runProfile(*profileInsts, *profileReps, *profileLabel, *profileLegacy)
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

	var benchmarks []string // nil = the full suite
	if *benchCSV != "" {
		benchmarks = strings.Split(*benchCSV, ",")
	}

	specific := len(figs) > 0 || len(scenarios) > 0 || *table1 || *delays || *tables456
	// Every figure by default; with any selection flag, only the rows
	// the -fig numbers name. An unknown number is rejected before any
	// simulation runs.
	selected := experiments.Figures()
	if specific {
		var err error
		if selected, err = experiments.SelectFigures(figs); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	// Remote mode: the figures and scenarios run on a samie-serve
	// instance whose long-lived batch dedups work across all clients;
	// the static tables never simulate, so they render locally.
	if *serverURL != "" {
		code := runRemote(*serverURL, benchmarks, *insts, selected, scenarios, *listScenarios, *stats)
		if code == 0 && !*listScenarios {
			if !specific || *table1 {
				fmt.Println(experiments.Table1())
			}
			if !specific || *delays {
				fmt.Println(experiments.Delays())
			}
			if !specific || *tables456 {
				fmt.Println(experiments.Tables456String())
			}
		}
		writeTrace(*traceOut)
		os.Exit(code)
	}

	if *listScenarios {
		for _, name := range experiments.ScenarioNames() {
			sc, _ := experiments.LookupScenario(name)
			fmt.Printf("%-20s %s (%d variants)\n", name, sc.Description, len(sc.Variants))
		}
		return
	}

	// Validate scenario names before any simulation runs: a typo must
	// not cost a full figure sweep first.
	for _, name := range scenarios {
		if _, ok := experiments.LookupScenario(name); !ok {
			fmt.Fprintf(os.Stderr, "unknown scenario %q (see -list-scenarios)\n", name)
			os.Exit(2)
		}
	}

	// Scenarios resolve their own default rows (Scenario.Benchmarks,
	// e.g. the adversarial workloads) when -bench is absent, so they
	// must see the unfilled list; the figure harnesses default to the
	// full suite here.
	scenarioBench := benchmarks
	if benchmarks == nil {
		benchmarks = experiments.Benchmarks()
	}

	// One batch shared by every figure and scenario this invocation
	// renders, spilling results to disk unless -cachedir "" asked not
	// to (a cache failure degrades to the uncached batch).
	var batch *experiments.Batch
	batch, dir = experiments.OpenBatch(*workers, dir, func(err error) {
		fmt.Fprintf(os.Stderr, "disk cache disabled: %v\n", err)
	})

	// One span per harness so -trace-out shows where a local
	// invocation's wall-clock went (recorder disabled otherwise:
	// StartSpan returns nil and this is free).
	traced := func(name string, fn func()) {
		_, sp := obs.StartSpan(context.Background(), name)
		defer sp.End()
		fn()
	}
	for _, fig := range selected {
		traced("figure "+fig.Name, func() {
			out, err := fig.Run(context.Background(), batch, benchmarks, *insts)
			if err != nil {
				// A background context never cancels: this is a
				// contained simulation panic.
				panic(err)
			}
			fmt.Println(out)
		})
	}
	for _, name := range scenarios {
		var res experiments.ScenarioResult
		var err error
		traced("scenario "+name, func() { res, err = batch.Scenario(context.Background(), name, scenarioBench, *insts, nil) })
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Println(res)
	}
	if !specific || *table1 {
		fmt.Println(experiments.Table1())
	}
	if !specific || *delays {
		fmt.Println(experiments.Delays())
	}
	if !specific || *tables456 {
		fmt.Println(experiments.Tables456String())
	}
	if *stats {
		st := batch.Stats()
		fmt.Printf("shared batch: %d simulations executed, %d of %d requests served from cache (%.0f%% reuse), %d workers\n",
			st.Executed, st.Hits, st.Requests, 100*st.HitRate(), batch.Workers())
		if dir != "" {
			ds := batch.DiskStats()
			fmt.Printf("disk cache %s: %d hits, %d misses, %d writes\n", dir, ds.Hits, ds.Misses, ds.Writes)
		}
	}
	if *timelineOut != "" {
		if err := writeTimelines(*timelineOut, batch.Timelines()); err != nil {
			fmt.Fprintf(os.Stderr, "timeline-out: %v\n", err)
		}
	}
	// Flush the disk cache's debounced index before exiting.
	if err := batch.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "cache close: %v\n", err)
	}
	writeTrace(*traceOut)
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

// writeTrace exports every span and counter track this process
// recorded as Chrome trace-event JSON. No-op without -trace-out.
func writeTrace(path string) {
	if path == "" {
		return
	}
	spans := obs.Default().Spans()
	tracks := obs.Default().Counters()
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
