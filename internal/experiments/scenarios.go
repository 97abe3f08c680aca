package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

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
// over a benchmark list through a shared batch. Registering one adds a
// row to the figure table, so a new workload is one table row, not a
// new harness.
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

// specs enumerates the sweep's cells benchmark by benchmark, one spec
// per (benchmark, variant); Batch.scenario reads its results back in
// this order.
func (sc Scenario) specs(benchmarks []string, insts uint64) []RunSpec {
	specs := make([]RunSpec, 0, len(benchmarks)*len(sc.Variants))
	for _, b := range benchmarks {
		for _, v := range sc.Variants {
			specs = append(specs, v.Spec(b, insts))
		}
	}
	return specs
}

// RegisterScenario appends the scenario to the figure table as a row.
// It panics on an empty name, no variants, or a name any row already
// has (the paper's "1" ... "energy" included): registration is a
// programming act, typically from init or test setup, and the table
// is not guarded against concurrent readers.
func RegisterScenario(s Scenario) {
	if s.Name == "" || len(s.Variants) == 0 {
		panic("experiments: scenario needs a name and at least one variant")
	}
	if _, dup := LookupFigure(s.Name); dup {
		panic(fmt.Sprintf("experiments: scenario %q names an existing figure-table row", s.Name))
	}
	figures = append(figures, Figure{
		Name:  s.Name,
		Specs: s.specs,
		Run: erase(func(bt *Batch, ctx context.Context, benchmarks []string, insts uint64) (ScenarioResult, error) {
			return bt.scenario(ctx, s, benchmarks, insts)
		}),
		Scenario: &s,
	})
}

// ScenarioNames returns the registered scenario names, sorted.
func ScenarioNames() []string {
	names := make([]string, 0, len(figures)-paperRows)
	for _, f := range figures[paperRows:] {
		names = append(names, f.Name)
	}
	sort.Strings(names)
	return names
}

// scenarioRow returns the figure-table row of a registered scenario.
func scenarioRow(name string) (Figure, error) {
	if f, ok := LookupFigure(name); ok && f.Scenario != nil {
		return f, nil
	}
	return Figure{}, fmt.Errorf("experiments: unknown scenario %q (have %s)",
		name, strings.Join(ScenarioNames(), ", "))
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

// Scenario evaluates a registered scenario through the batch over the
// benchmarks its row resolves (Figure.ResolveBenchmarks): every
// (benchmark, variant) cell is one spec, deduplicated against
// everything else the batch has run. Cancellation withdraws the
// sweep's queued simulations; a cell whose simulation panics surfaces
// as an error instead of tearing the process down.
func (bt *Batch) Scenario(ctx context.Context, name string, benchmarks []string, insts uint64) (ScenarioResult, error) {
	f, err := scenarioRow(name)
	if err != nil {
		return ScenarioResult{}, err
	}
	return bt.scenario(ctx, *f.Scenario, f.ResolveBenchmarks(benchmarks), insts)
}

// scenario renders one sweep over resolved benchmarks, one RunCtx per
// cell.
func (bt *Batch) scenario(ctx context.Context, sc Scenario, benchmarks []string, insts uint64) (ScenarioResult, error) {
	if insts == 0 {
		insts = DefaultInsts
	}
	runs, err := bt.RunEachCtx(ctx, sc.specs(benchmarks, insts), nil)
	if err != nil {
		return ScenarioResult{}, err
	}
	res := ScenarioResult{Name: sc.Name, Benchmarks: benchmarks, Insts: insts}
	for _, v := range sc.Variants {
		res.Variants = append(res.Variants, v.Name)
	}
	res.IPC = make([][]float64, len(benchmarks))
	res.EnergyNJ = make([][]float64, len(benchmarks))
	for bi := range benchmarks {
		cells := runs[bi*len(sc.Variants) : (bi+1)*len(sc.Variants)]
		res.IPC[bi] = make([]float64, len(cells))
		res.EnergyNJ[bi] = make([]float64, len(cells))
		for vi, r := range cells {
			res.IPC[bi][vi], res.EnergyNJ[bi][vi] = r.CPU.IPC, r.LSQEnergyNJ()
		}
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
