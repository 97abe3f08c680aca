package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"samielsq/internal/experiments"
)

// The -profile mode measures raw simulator throughput (instructions
// simulated per second) on a fixed case matrix — one case per LSQ
// model on representative workloads, a Figure 1 sweep and the short
// golden suite — and records the repo's performance trajectory in
// BENCH_hotpath.json. CI profiles the parent commit and the working
// tree alternately on one runner and gates the change with -baseline
// over those interleaved sessions (absolute insts/sec are not
// comparable across machines, nor single cases across sessions).

// benchEntry is one measurement session.
type benchEntry struct {
	Label string      `json:"label"`
	Date  string      `json:"date"`
	Go    string      `json:"go"`
	Insts uint64      `json:"insts_per_case"`
	Notes string      `json:"notes,omitempty"`
	Cases []benchCase `json:"cases"`
}

type benchCase struct {
	Name        string  `json:"name"`
	InstsPerSec float64 `json:"insts_per_sec"`
}

// benchFile is the BENCH_hotpath.json layout: an append-only history,
// oldest first. The last entry is the baseline CI compares against.
type benchFile struct {
	Schema  int          `json:"schema"`
	History []benchEntry `json:"history"`
}

// profileSpec names one profiled configuration.
type profileSpec struct {
	name string
	spec func(bench string, insts uint64) experiments.RunSpec
}

var profileSpecs = []profileSpec{
	{"samie", func(b string, n uint64) experiments.RunSpec {
		return experiments.RunSpec{Benchmark: b, Insts: n, Model: experiments.ModelSAMIE}
	}},
	{"conventional", func(b string, n uint64) experiments.RunSpec {
		return experiments.RunSpec{Benchmark: b, Insts: n, Model: experiments.ModelConventional}
	}},
	{"arb64x2", func(b string, n uint64) experiments.RunSpec {
		return experiments.RunSpec{Benchmark: b, Insts: n, Model: experiments.ModelARB,
			ARBBanks: 64, ARBAddrs: 2, ARBInflight: 128}
	}},
	{"unbounded", func(b string, n uint64) experiments.RunSpec {
		return experiments.RunSpec{Benchmark: b, Insts: n, Model: experiments.ModelUnbounded}
	}},
}

var profileBenchmarks = []string{"gzip", "swim"}

// adversarialProfile extends the matrix with the stress personalities
// the event-driven wakeup scheduler targets: the serial random load
// chain (worst case for an O(in-flight) per-cycle issue walk) and the
// store-dominated burst mix. Profiled under the two models whose
// per-cycle cost the scheduler changes most.
var (
	adversarialBenchmarks = []string{"pointer-chaser", "store-burst"}
	adversarialModelNames = []string{"samie", "conventional"}
)

// runProfileCase measures one spec: reps repetitions, best throughput
// wins (the first repetition also pays trace materialization; later
// ones measure the simulator itself, which is what the trajectory
// tracks).
func runProfileCase(spec experiments.RunSpec, reps int) float64 {
	n := experiments.Normalize(spec)
	simulated := n.Warmup + n.Insts
	best := 0.0
	for r := 0; r < reps; r++ {
		start := time.Now()
		experiments.Run(n)
		if ips := float64(simulated) / time.Since(start).Seconds(); ips > best {
			best = ips
		}
	}
	return best
}

// figure1FastSuite is the representative slice the aggregate
// Figure1-class case sweeps (17 LSQ configurations per program).
var figure1FastSuite = []string{"ammp", "facerec", "swim", "mcf", "gzip"}

// runFigure1Sweep measures the aggregate throughput of a full Figure 1
// regeneration — the heaviest multi-model workload in the repo. Each
// program runs once per ARB geometry at both in-flight caps, plus the
// unbounded reference.
func runFigure1Sweep(reps int) float64 {
	const insts = 60_000
	specsPerProgram := float64(2*len(experiments.Figure1Configs()) + 1)
	simulated := float64(len(figure1FastSuite)) * specsPerProgram * (insts + insts/2)
	best := 0.0
	for r := 0; r < reps; r++ {
		start := time.Now()
		experiments.NewBatch(0).Figure1(figure1FastSuite, insts)
		if ips := simulated / time.Since(start).Seconds(); ips > best {
			best = ips
		}
	}
	return best
}

// The short-suite case runs the golden programs' figure suite at the
// short budget the serve-zipf benchmark workload simulates. At 2000
// instructions a run spends most of its cycles in quiescent spans and
// pays its per-run set-up often, which the 50k cases above do not
// show.
var shortSuiteBenchmarks = []string{"ammp", "gzip", "mcf", "swim"}

const shortSuiteInsts = 2000

// runShortSuite measures the aggregate throughput of every
// SuiteSpecs spec of the short suite, run one after another on one
// goroutine, best of reps passes.
func runShortSuite(reps int) float64 {
	specs := experiments.SuiteSpecs(shortSuiteBenchmarks, shortSuiteInsts)
	simulated := 0.0
	for i, s := range specs {
		specs[i] = experiments.Normalize(s)
		simulated += float64(specs[i].Warmup + specs[i].Insts)
	}
	best := 0.0
	for r := 0; r < reps; r++ {
		start := time.Now()
		for _, s := range specs {
			experiments.Run(s)
		}
		if ips := simulated / time.Since(start).Seconds(); ips > best {
			best = ips
		}
	}
	return best
}

// runProfile executes the matrix and returns the session entry.
func runProfile(insts uint64, reps int, label string) benchEntry {
	e := benchEntry{
		Label: label,
		Date:  time.Now().UTC().Format("2006-01-02"),
		Go:    runtime.Version(),
		Insts: insts,
	}
	record := func(name string, ips float64) {
		e.Cases = append(e.Cases, benchCase{Name: name, InstsPerSec: ips})
		fmt.Printf("%-26s %12.0f insts/sec\n", name, ips)
	}
	measure := func(name string, spec experiments.RunSpec) { record(name, runProfileCase(spec, reps)) }
	for _, ps := range profileSpecs {
		for _, b := range profileBenchmarks {
			measure(ps.name+"/"+b, ps.spec(b, insts))
		}
	}
	for _, ps := range profileSpecs {
		for _, mname := range adversarialModelNames {
			if ps.name != mname {
				continue
			}
			for _, b := range adversarialBenchmarks {
				measure(ps.name+"/"+b, ps.spec(b, insts))
			}
		}
	}
	record("figure1-sweep/fastsuite", runFigure1Sweep(min(reps, 2)))
	record("suite-2k/golden", runShortSuite(reps))
	sort.Slice(e.Cases, func(i, j int) bool { return e.Cases[i].Name < e.Cases[j].Name })
	return e
}

func readBenchFile(path string) (benchFile, error) {
	var f benchFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != 1 || len(f.History) == 0 {
		return f, fmt.Errorf("%s: unsupported schema or empty history", path)
	}
	return f, nil
}

func (e benchEntry) caseMap() map[string]float64 {
	m := make(map[string]float64, len(e.Cases))
	for _, c := range e.Cases {
		m[c.Name] = c.InstsPerSec
	}
	return m
}

// sessionPair is one baseline profile session and the change's session
// measured after it on the same runner.
type sessionPair struct{ base, change benchEntry }

// interleavedPairs splits a session file written by alternating
// baseline and change runs (baseline, change, baseline, change, …)
// into its pairs.
func interleavedPairs(f benchFile) ([]sessionPair, error) {
	if len(f.History)%2 != 0 {
		return nil, fmt.Errorf("%d sessions: want baseline, change pairs", len(f.History))
	}
	pairs := make([]sessionPair, 0, len(f.History)/2)
	for i := 0; i < len(f.History); i += 2 {
		pairs = append(pairs, sessionPair{f.History[i], f.History[i+1]})
	}
	return pairs, nil
}

// gatePairs returns the session pairs -baseline gates: the file's last
// session with cur, or without cur, the file's interleaved sessions.
func gatePairs(path string, cur *benchEntry) ([]sessionPair, error) {
	f, err := readBenchFile(path)
	if err != nil {
		return nil, err
	}
	if cur != nil {
		return []sessionPair{{f.History[len(f.History)-1], *cur}}, nil
	}
	return interleavedPairs(f)
}

// logRatios returns ln(b/a) for every case of b that a measured.
func logRatios(a, b benchEntry) map[string]float64 {
	am := a.caseMap()
	r := make(map[string]float64, len(b.Cases))
	for _, c := range b.Cases {
		if want := am[c.Name]; want > 0 && c.InstsPerSec > 0 {
			r[c.Name] = math.Log(c.InstsPerSec / want)
		}
	}
	return r
}

// meanLog is the mean of the values of m: the log of a geometric-mean
// ratio.
func meanLog(m map[string]float64) float64 {
	if len(m) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range m {
		sum += v
	}
	return sum / float64(len(m))
}

// compareBaseline is the throughput gate over profile sessions measured
// in interleaved pairs on one runner, and reports what fails it:
//
//   - the change, when the geometric mean over the pairs of each pair's
//     geometric-mean change/baseline ratio reads more than bound below
//     1. The bound is tolerance, widened to the A/A spread of the
//     baseline sessions: the largest geometric-mean ratio between two
//     of them;
//   - a single case, when it reads more than its bound below its
//     baseline in every pair, where its bound is tolerance widened to
//     the case's own A/A spread. One pair cannot tell a case's
//     regression from its session-to-session swing (±35% on a shared
//     2-vCPU runner), so this needs two pairs or more.
//
// Cases missing from a baseline session are informational only.
func compareBaseline(pairs []sessionPair, tolerance float64) (failures []string) {
	// Bounds are kept as logs of the ratio: a ratio r fails below
	// exp(-bound).
	floor := -math.Log(1 - tolerance)
	bound, caseBound := floor, map[string]float64{}
	for i := range pairs {
		for j := i + 1; j < len(pairs); j++ {
			aa := logRatios(pairs[i].base, pairs[j].base)
			bound = max(bound, math.Abs(meanLog(aa)))
			for name, v := range aa {
				caseBound[name] = max(caseBound[name], math.Abs(v))
			}
		}
	}
	geo := 0.0
	regressed := map[string]int{}
	for i, p := range pairs {
		r, base := logRatios(p.base, p.change), p.base.caseMap()
		geo += meanLog(r) / float64(len(pairs))
		for _, c := range p.change.Cases {
			v, ok := r[c.Name]
			if !ok {
				fmt.Printf("pair %d  %-26s %12.0f  (not in the baseline)\n", i+1, c.Name, c.InstsPerSec)
				continue
			}
			fmt.Printf("pair %d  %-26s %12.0f vs baseline %12.0f  (%.2fx)\n", i+1, c.Name, c.InstsPerSec, base[c.Name], math.Exp(v))
			if v < -max(floor, caseBound[c.Name]) {
				regressed[c.Name]++
			}
		}
	}
	fmt.Printf("geometric-mean ratio %.3fx over %d pair(s), bound %.1f%%\n", math.Exp(geo), len(pairs), (1-math.Exp(-bound))*100)
	if geo < -bound {
		failures = append(failures, fmt.Sprintf("geometric-mean throughput %.1f%% below the baseline, beyond the %.1f%% bound",
			(1-math.Exp(geo))*100, (1-math.Exp(-bound))*100))
	}
	if len(pairs) < 2 {
		return failures
	}
	names := make([]string, 0, len(regressed))
	for name, n := range regressed {
		if n == len(pairs) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		failures = append(failures, fmt.Sprintf("%s: below its bound in all %d pairs", name, len(pairs)))
	}
	return failures
}

// writeBenchOut writes (or appends to) a bench file at path. Only a
// missing file starts a fresh history: an unreadable or incompatible
// existing file is an error, so the append-only trajectory is never
// silently overwritten.
func writeBenchOut(path string, e benchEntry) error {
	f := benchFile{Schema: 1}
	prev, err := readBenchFile(path)
	switch {
	case err == nil:
		f = prev
	case os.IsNotExist(err):
		// fresh file
	default:
		return fmt.Errorf("refusing to overwrite %s: %w", path, err)
	}
	f.History = append(f.History, e)
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
