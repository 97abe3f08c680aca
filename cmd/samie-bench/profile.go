package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"samielsq/internal/experiments"
)

// The -profile mode measures raw simulator throughput (instructions
// simulated per second) on a fixed case matrix — one case per LSQ
// model on representative workloads — and records the repo's
// performance trajectory in BENCH_hotpath.json. CI re-profiles the
// baseline commit on its own runner and gates the working tree with
// -baseline against that same-machine session (absolute insts/sec are
// not comparable across machines).

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

// runProfile executes the matrix and returns the session entry.
func runProfile(insts uint64, reps int, label string) benchEntry {
	e := benchEntry{
		Label: label,
		Date:  time.Now().UTC().Format("2006-01-02"),
		Go:    runtime.Version(),
		Insts: insts,
	}
	measure := func(name string, spec experiments.RunSpec) {
		ips := runProfileCase(spec, reps)
		e.Cases = append(e.Cases, benchCase{Name: name, InstsPerSec: ips})
		fmt.Printf("%-26s %12.0f insts/sec\n", name, ips)
	}
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
	ips := runFigure1Sweep(min(reps, 2))
	e.Cases = append(e.Cases, benchCase{Name: "figure1-sweep/fastsuite", InstsPerSec: ips})
	fmt.Printf("%-26s %12.0f insts/sec\n", "figure1-sweep/fastsuite", ips)
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

// compareBaseline reports the cases of `cur` that regressed more than
// tolerance (fraction) against the last history entry of the baseline
// file. Cases absent from the baseline are informational only.
func compareBaseline(cur benchEntry, basePath string, tolerance float64) (failures []string, err error) {
	f, err := readBenchFile(basePath)
	if err != nil {
		return nil, err
	}
	base := f.History[len(f.History)-1]
	baseCases := base.caseMap()
	for _, c := range cur.Cases {
		want, ok := baseCases[c.Name]
		if !ok || want <= 0 {
			continue
		}
		ratio := c.InstsPerSec / want
		fmt.Printf("%-22s %12.0f vs baseline %12.0f  (%.2fx)\n", c.Name, c.InstsPerSec, want, ratio)
		if ratio < 1-tolerance {
			failures = append(failures,
				fmt.Sprintf("%s: %.0f insts/sec is %.0f%% below baseline %.0f",
					c.Name, c.InstsPerSec, (1-ratio)*100, want))
		}
	}
	return failures, nil
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
