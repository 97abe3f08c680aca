// Command perfbench is the repository benchmark. It drives one of two
// seeded workloads in-process against the simulator's public layers and
// prints the metrics BENCHMARK.json declares:
//
//	core-matrix  every LSQ model × five programs through experiments.Run
//	serve-zipf   two closed-loop HTTP clients replaying the repository's
//	             sweep drivers against an in-process samie-serve replica
//	             backed by a warm sibling
//
// With --trace 0 it reports the end-to-end metrics of the named
// workload; with --trace 1 it reports the per-layer metrics, recording
// spans around every layer call it makes (written to
// .bench_build/spans/) and a CPU profile of the cycle core. A traced
// run also sweeps the golden suite over two cold replicas for the
// cluster layer. See README.md in this directory for the metric
// definitions.
//
// Usage (from the repository root, normally through run.sh):
//
//	perfbench --workload core-matrix --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// segCfg parameterizes one workload segment.
type segCfg struct {
	seed int64
	// dur is the measurement window; every segment completes at least
	// one unit of its work (a matrix pass, a request block, a sweep)
	// even when dur is zero.
	dur  time.Duration
	tr   *tracer // nil: tracing off
	ref  *refClock
	root string // repository checkout the segment reads inputs from
	work string // scratch directory the segment may write under
}

// segResult is what one segment measured.
type segResult struct {
	attempted, failed int
	e2e               map[string]float64
	layer             map[string]float64
	// unitCost is host seconds per unit of the workload's primary work
	// (per stepped instruction, per request, per sweep); the traced and
	// untraced values give bench.trace_overhead.
	unitCost float64
	// samples is the number of latencies behind run_p50_ms/run_p99_ms.
	samples int
	// summary is extra text for the untraced run's summary line.
	summary string
}

type segment func(segCfg) (segResult, error)

type namedSegment struct {
	name string
	run  segment
}

// workloads are the declared workloads, in the order a traced run
// executes the ones it was not asked for.
var workloads = []namedSegment{
	{"core-matrix", runCoreMatrix},
	{"serve-zipf", runServeZipf},
}

// tracedOnly are segments only a traced run executes, after the other
// workloads.
var tracedOnly = []namedSegment{
	{"cluster-sweep", runClusterSweep},
}

// specFile is the benchmark definition, relative to the repository root
// the benchmark runs from.
const specFile = "BENCHMARK.json"

func main() {
	workload := flag.String("workload", "", "core-matrix or serve-zipf")
	seed := flag.Int64("seed", 1, "workload seed: the driver draws, the op order and the sibling's warm half derive from it")
	seconds := flag.Float64("seconds", 20, "measurement window in seconds")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()
	if flag.NArg() > 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	res, err := run(specFile, *workload, *seed, time.Duration(*seconds*float64(time.Second)), *traceFlag == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type benchSpec struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run executes the requested workload and assembles the output line.
// Metric names and units come from the benchmark definition, which is
// the single list of what must be reported: a computed metric the
// definition lacks, or a declared one nothing computed, is an error.
func run(specPath, workload string, seed int64, dur time.Duration, traced bool) (result, error) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return result{}, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return result{}, fmt.Errorf("%s: %w", specPath, err)
	}
	root, err := filepath.Abs(filepath.Dir(specPath))
	if err != nil {
		return result{}, err
	}
	idx := -1
	for i, w := range workloads {
		if w.name == workload {
			idx = i
		}
	}
	if idx < 0 {
		return result{}, fmt.Errorf("unknown workload %q (want core-matrix or serve-zipf)", workload)
	}
	work := filepath.Join(root, ".bench_build", "work", strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(work)
	cfg := segCfg{seed: seed, dur: dur, root: root, work: work, ref: newRefClock()}

	var values map[string]float64
	var defs []metricDef
	var attempted, failed int
	if !traced {
		r, err := workloads[idx].run(cfg)
		if err != nil {
			return result{}, fmt.Errorf("%s: %w", workload, err)
		}
		attempted, failed = r.attempted, r.failed
		values = r.e2e
		values["peak_rss_mb"] = peakRSSMB()
		defs = spec.EndToEnd
		fmt.Printf("%s seed=%d: attempted=%d failed=%d failed_ratio=%g latency_samples=%d%s\n",
			workload, seed, attempted, failed, ratio(failed, attempted), r.samples, r.summary)
	} else {
		values, attempted, failed, err = runTraced(cfg, idx)
		if err != nil {
			return result{}, err
		}
		defs = spec.PerLayer
	}

	out := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return result{}, fmt.Errorf("metric %s is declared in %s but was not measured", d.Name, specPath)
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		delete(values, d.Name)
	}
	if len(values) > 0 {
		var extra []string
		for k := range values {
			extra = append(extra, k)
		}
		return result{}, fmt.Errorf("measured metrics missing from %s: %s", specPath, strings.Join(extra, ", "))
	}
	if out.Attempted < 1 {
		return result{}, errors.New("no operations attempted")
	}
	return out, nil
}

// runTraced produces the per-layer metrics. Each other workload and
// each traced-only segment runs first, once, traced and at its minimum
// size, so every layer is measured on a segment that exercises it; this
// also warms the process before the comparison that follows. The named
// workload then runs twice for half the window each, untraced then
// traced, which gives bench.trace_overhead. A layer metric comes from
// the named workload when that workload produces it, else from the
// first other segment that does.
func runTraced(cfg segCfg, idx int) (map[string]float64, int, int, error) {
	tr := newTracer()
	var others []segResult
	for i, w := range append(append([]namedSegment(nil), workloads...), tracedOnly...) {
		if i == idx {
			continue
		}
		compact := cfg
		compact.dur = 0
		compact.tr = tr
		r, err := w.run(compact)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("%s (traced, compact): %w", w.name, err)
		}
		others = append(others, r)
	}
	name := workloads[idx].name
	half := cfg
	half.dur = cfg.dur / 2
	untraced, err := workloads[idx].run(half)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("%s (untraced): %w", name, err)
	}
	half.tr = tr
	traced, err := workloads[idx].run(half)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("%s (traced): %w", name, err)
	}
	values := traced.layer
	attempted := untraced.attempted + traced.attempted
	failed := untraced.failed + traced.failed
	for _, r := range others {
		attempted += r.attempted
		failed += r.failed
		for k, v := range r.layer {
			if _, ok := values[k]; !ok {
				values[k] = v
			}
		}
	}
	values["bench.trace_overhead"] = traced.unitCost / untraced.unitCost
	values["bench.latency_samples"] = float64(traced.samples)
	values["failed_ratio"] = ratio(failed, attempted)
	values["bench.ref_ms"] = median(cfg.ref.ms)
	path := filepath.Join(cfg.root, ".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", name, cfg.seed))
	if err := tr.write(path, name, cfg.seed); err != nil {
		return nil, 0, 0, err
	}
	return values, attempted, failed, nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	// Without procfs fall back to what the Go runtime obtained from the
	// OS, an upper bound on the heap's share of the resident set.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
