package experiments

import (
	"context"
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"sync"

	"samielsq/internal/core"
	"samielsq/internal/cpu"
	"samielsq/internal/stats"
	"samielsq/internal/trace"
)

// Variant is one column of a scenario: a named spec builder applied to
// every benchmark in the sweep.
type Variant struct {
	Name string
	Spec func(bench string, insts uint64) RunSpec
}

// Scenario is a named, registered sweep: a set of variants evaluated
// over a benchmark list through a shared batch. New workloads are one
// registry entry, not a new harness.
type Scenario struct {
	Name        string
	Description string
	Variants    []Variant

	// Benchmarks, when set, are the default rows of the sweep when the
	// caller passes none; nil means the full 26-program SPEC suite.
	// Scenarios built around non-SPEC workloads (the adversarial
	// personalities) use this so `-scenario name` needs no -bench.
	Benchmarks []string
}

// ResolveBenchmarks applies the scenario's default rows: an explicit
// list wins, then the scenario's own default, then the full suite.
// Every consumer of the rule — Scenario, ScenarioSpecs, the HTTP
// handler — resolves through here, so the precedence lives in exactly
// one place.
func (sc Scenario) ResolveBenchmarks(benchmarks []string) []string {
	if len(benchmarks) > 0 {
		return benchmarks
	}
	if len(sc.Benchmarks) > 0 {
		return sc.Benchmarks
	}
	return Benchmarks()
}

var (
	scenarioMu  sync.RWMutex
	scenarioReg = map[string]Scenario{}
)

// RegisterScenario adds a scenario to the registry. It panics on an
// empty name, no variants, or a duplicate name: registration is a
// programming act, typically from init or test setup.
func RegisterScenario(s Scenario) {
	if s.Name == "" || len(s.Variants) == 0 {
		panic("experiments: scenario needs a name and at least one variant")
	}
	scenarioMu.Lock()
	defer scenarioMu.Unlock()
	if _, dup := scenarioReg[s.Name]; dup {
		panic(fmt.Sprintf("experiments: scenario %q registered twice", s.Name))
	}
	scenarioReg[s.Name] = s
}

// ScenarioNames returns the registered scenario names, sorted.
func ScenarioNames() []string {
	scenarioMu.RLock()
	defer scenarioMu.RUnlock()
	names := make([]string, 0, len(scenarioReg))
	for n := range scenarioReg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// LookupScenario returns a registered scenario by name.
func LookupScenario(name string) (Scenario, bool) {
	scenarioMu.RLock()
	defer scenarioMu.RUnlock()
	s, ok := scenarioReg[name]
	return s, ok
}

// ScenarioResult is the outcome of one scenario sweep: IPC and LSQ
// dynamic energy per (benchmark, variant) cell.
type ScenarioResult struct {
	Name       string
	Benchmarks []string
	Variants   []string
	Insts      uint64

	IPC      [][]float64 // [benchmark][variant]
	EnergyNJ [][]float64 // LSQ dynamic energy, nJ; 0 for models without an energy account
}

// ScenarioProgress reports one completed sweep cell to a Scenario
// observer.
type ScenarioProgress struct {
	Benchmark   string
	Variant     string
	IPC         float64
	EnergyNJ    float64
	Done, Total int
}

// Scenario evaluates a registered scenario through the batch: every
// (benchmark, variant) cell is one spec, deduplicated against
// everything else the batch has run. onCell (when non-nil) observes
// every cell as its simulation completes, from a single goroutine, in
// completion order. Cancellation withdraws the sweep's queued
// simulations; a cell whose simulation panics surfaces as an error
// instead of tearing the process down.
func (bt *Batch) Scenario(ctx context.Context, name string, benchmarks []string, insts uint64, onCell func(ScenarioProgress)) (ScenarioResult, error) {
	sc, ok := LookupScenario(name)
	if !ok {
		return ScenarioResult{}, fmt.Errorf("experiments: unknown scenario %q (have %s)",
			name, strings.Join(ScenarioNames(), ", "))
	}
	benchmarks = sc.ResolveBenchmarks(benchmarks)
	if insts == 0 {
		insts = DefaultInsts
	}
	res := ScenarioResult{Name: name, Benchmarks: benchmarks, Insts: insts}
	for _, v := range sc.Variants {
		res.Variants = append(res.Variants, v.Name)
	}
	res.IPC = make([][]float64, len(benchmarks))
	res.EnergyNJ = make([][]float64, len(benchmarks))
	for bi := range benchmarks {
		res.IPC[bi] = make([]float64, len(sc.Variants))
		res.EnergyNJ[bi] = make([]float64, len(sc.Variants))
	}

	type cell struct {
		bi, vi      int
		ipc, energy float64
		err         error
	}
	total := len(benchmarks) * len(sc.Variants)
	results := make(chan cell, total)
	for bi, bench := range benchmarks {
		for vi, v := range sc.Variants {
			go func(bi, vi int, bench string, v Variant) {
				c := cell{bi: bi, vi: vi}
				defer func() {
					if p := recover(); p != nil {
						// The panic site's stack is only reachable here;
						// carry it so the failure stays diagnosable once
						// flattened to an error.
						c.err = fmt.Errorf("experiments: scenario cell %s/%s panicked: %v\n%s",
							bench, v.Name, p, debug.Stack())
					}
					results <- c
				}()
				r, err := bt.RunCtx(ctx, v.Spec(bench, insts))
				if err != nil {
					c.err = err
					return
				}
				c.ipc, c.energy = r.CPU.IPC, r.LSQEnergyNJ()
			}(bi, vi, bench, v)
		}
	}
	var firstErr error
	for done := 1; done <= total; done++ {
		c := <-results
		if c.err != nil {
			if firstErr == nil {
				firstErr = c.err
			}
			continue
		}
		res.IPC[c.bi][c.vi] = c.ipc
		res.EnergyNJ[c.bi][c.vi] = c.energy
		if onCell != nil && firstErr == nil {
			onCell(ScenarioProgress{
				Benchmark: benchmarks[c.bi],
				Variant:   res.Variants[c.vi],
				IPC:       c.ipc,
				EnergyNJ:  c.energy,
				Done:      done,
				Total:     total,
			})
		}
	}
	if firstErr != nil {
		return ScenarioResult{}, firstErr
	}
	return res, nil
}

// GeoMeanIPC returns the geometric-mean IPC per variant.
func (r ScenarioResult) GeoMeanIPC() []float64 {
	out := make([]float64, len(r.Variants))
	for vi := range r.Variants {
		vs := make([]float64, 0, len(r.Benchmarks))
		for bi := range r.Benchmarks {
			vs = append(vs, r.IPC[bi][vi])
		}
		out[vi] = stats.GeoMean(vs)
	}
	return out
}

// String renders the IPC sweep with a geometric-mean row, then the
// LSQ-energy sweep.
//
//samie:deterministic
func (r ScenarioResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scenario %s: IPC per variant (%d instructions)\n", r.Name, r.Insts)
	ti := stats.NewTable(append([]string{"benchmark"}, r.Variants...)...)
	for bi, bench := range r.Benchmarks {
		cells := []any{bench}
		for _, v := range r.IPC[bi] {
			cells = append(cells, v)
		}
		ti.AddRow(cells...)
	}
	gm := []any{"geomean"}
	for _, v := range r.GeoMeanIPC() {
		gm = append(gm, v)
	}
	ti.AddRow(gm...)
	b.WriteString(ti.String())

	b.WriteString("LSQ dynamic energy (nJ) per variant\n")
	te := stats.NewTable(append([]string{"benchmark"}, r.Variants...)...)
	for bi, bench := range r.Benchmarks {
		cells := []any{bench}
		for _, v := range r.EnergyNJ[bi] {
			cells = append(cells, v)
		}
		te.AddRow(cells...)
	}
	b.WriteString(te.String())
	return b.String()
}

// samieVariant builds a SAMIE variant from a config mutation.
func samieVariant(name string, mutate func(*core.Config)) Variant {
	return Variant{Name: name, Spec: func(bench string, insts uint64) RunSpec {
		cfg := core.PaperConfig()
		mutate(&cfg)
		return RunSpec{Benchmark: bench, Insts: insts, Model: ModelSAMIE, SAMIE: &cfg}
	}}
}

// cpuVariant builds a SAMIE variant with a CPU-config mutation.
func cpuVariant(name string, mutate func(*cpu.Config)) Variant {
	return Variant{Name: name, Spec: func(bench string, insts uint64) RunSpec {
		ccfg := cpu.PaperConfig()
		mutate(&ccfg)
		return RunSpec{Benchmark: bench, Insts: insts, Model: ModelSAMIE, CPU: &ccfg}
	}}
}

// The built-in sweeps: every axis of the paper's design space plus the
// CPU knobs the harnesses expose.
func init() {
	RegisterScenario(Scenario{
		Name:        "models",
		Description: "every LSQ organization at its paper operating point",
		Variants: []Variant{
			{Name: "conv-128", Spec: func(b string, i uint64) RunSpec {
				return RunSpec{Benchmark: b, Insts: i, Model: ModelConventional, ConvEntries: 128}
			}},
			{Name: "conv-16", Spec: func(b string, i uint64) RunSpec {
				return RunSpec{Benchmark: b, Insts: i, Model: ModelConventional, ConvEntries: 16}
			}},
			{Name: "unbounded", Spec: func(b string, i uint64) RunSpec {
				return RunSpec{Benchmark: b, Insts: i, Model: ModelUnbounded}
			}},
			{Name: "arb-64x2", Spec: func(b string, i uint64) RunSpec {
				return RunSpec{Benchmark: b, Insts: i, Model: ModelARB, ARBBanks: 64, ARBAddrs: 2, ARBInflight: 128}
			}},
			samieVariant("samie-paper", func(*core.Config) {}),
		},
	})
	RegisterScenario(Scenario{
		Name:        "shared-lsq-sizes",
		Description: "SAMIE SharedLSQ capacity sweep (Figure 4's axis)",
		Variants: []Variant{
			samieVariant("shared-0", func(c *core.Config) { c.SharedEntries = 0 }),
			samieVariant("shared-4", func(c *core.Config) { c.SharedEntries = 4 }),
			samieVariant("shared-8", func(c *core.Config) { c.SharedEntries = 8 }),
			samieVariant("shared-16", func(c *core.Config) { c.SharedEntries = 16 }),
			samieVariant("shared-32", func(c *core.Config) { c.SharedEntries = 32 }),
		},
	})
	RegisterScenario(Scenario{
		Name:        "distrib-banking",
		Description: "DistribLSQ banks x entries geometries (Figure 3's axis)",
		Variants: []Variant{
			samieVariant("128x1", func(c *core.Config) { c.Banks, c.EntriesPerBank = 128, 1 }),
			samieVariant("64x2", func(c *core.Config) { c.Banks, c.EntriesPerBank = 64, 2 }),
			samieVariant("32x4", func(c *core.Config) { c.Banks, c.EntriesPerBank = 32, 4 }),
		},
	})
	RegisterScenario(Scenario{
		Name:        "slots-per-entry",
		Description: "instruction slots per DistribLSQ entry",
		Variants: []Variant{
			samieVariant("slots-4", func(c *core.Config) { c.SlotsPerEntry = 4 }),
			samieVariant("slots-8", func(c *core.Config) { c.SlotsPerEntry = 8 }),
			samieVariant("slots-16", func(c *core.Config) { c.SlotsPerEntry = 16 }),
		},
	})
	RegisterScenario(Scenario{
		Name:        "addrbuffer-sizes",
		Description: "AddrBuffer slot count sweep",
		Variants: []Variant{
			samieVariant("ab-16", func(c *core.Config) { c.AddrBufferSlots = 16 }),
			samieVariant("ab-32", func(c *core.Config) { c.AddrBufferSlots = 32 }),
			samieVariant("ab-64", func(c *core.Config) { c.AddrBufferSlots = 64 }),
		},
	})
	RegisterScenario(Scenario{
		Name:        "arb-inflight",
		Description: "ARB 64x2 in-flight cap sweep (Figure 1's second axis)",
		Variants: []Variant{
			{Name: "inflight-32", Spec: func(b string, i uint64) RunSpec {
				return RunSpec{Benchmark: b, Insts: i, Model: ModelARB, ARBBanks: 64, ARBAddrs: 2, ARBInflight: 32}
			}},
			{Name: "inflight-64", Spec: func(b string, i uint64) RunSpec {
				return RunSpec{Benchmark: b, Insts: i, Model: ModelARB, ARBBanks: 64, ARBAddrs: 2, ARBInflight: 64}
			}},
			{Name: "inflight-128", Spec: func(b string, i uint64) RunSpec {
				return RunSpec{Benchmark: b, Insts: i, Model: ModelARB, ARBBanks: 64, ARBAddrs: 2, ARBInflight: 128}
			}},
		},
	})
	RegisterScenario(Scenario{
		Name:        "dcache-ports",
		Description: "L1 Dcache port count under the SAMIE-LSQ",
		Variants: []Variant{
			cpuVariant("ports-1", func(c *cpu.Config) { c.DcachePorts = 1 }),
			cpuVariant("ports-2", func(c *cpu.Config) { c.DcachePorts = 2 }),
			cpuVariant("ports-4", func(c *cpu.Config) { c.DcachePorts = 4 }),
		},
	})
	RegisterScenario(Scenario{
		Name:        "deadlock-patience",
		Description: "§3.3 deadlock-avoidance patience sweep",
		Variants: []Variant{
			cpuVariant("patience-8", func(c *cpu.Config) { c.DeadlockPatience = 8 }),
			cpuVariant("patience-32", func(c *cpu.Config) { c.DeadlockPatience = 32 }),
			cpuVariant("patience-128", func(c *cpu.Config) { c.DeadlockPatience = 128 }),
		},
	})
	RegisterScenario(Scenario{
		Name:        "adversarial",
		Description: "LSQ organizations under the adversarial stress workloads (default rows: pointer-chaser, store-burst)",
		Benchmarks:  trace.AdversarialBenchmarks(),
		Variants: []Variant{
			{Name: "conv-128", Spec: func(b string, i uint64) RunSpec {
				return RunSpec{Benchmark: b, Insts: i, Model: ModelConventional, ConvEntries: 128}
			}},
			{Name: "unbounded", Spec: func(b string, i uint64) RunSpec {
				return RunSpec{Benchmark: b, Insts: i, Model: ModelUnbounded}
			}},
			samieVariant("samie-paper", func(*core.Config) {}),
		},
	})
	RegisterScenario(Scenario{
		Name:        "ablations",
		Description: "§3.4 extension switches: way caching, TLB caching, fast way-known",
		Variants: []Variant{
			samieVariant("baseline", func(*core.Config) {}),
			samieVariant("no-way-caching", func(c *core.Config) { c.DisableWayCaching = true }),
			samieVariant("no-tlb-caching", func(c *core.Config) { c.DisableTLBCaching = true }),
			samieVariant("fast-way-known", func(c *core.Config) { c.FastWayKnown = true }),
		},
	})
}
