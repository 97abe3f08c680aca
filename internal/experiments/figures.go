package experiments

import (
	"context"
	"fmt"
	"strings"

	"samielsq/internal/core"
	"samielsq/internal/stats"
)

// mustFigure unwraps a harness result for the context-less typed
// methods: with a background context the only possible error is a
// contained simulation panic, which is re-raised.
func mustFigure[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// ---- Figure 1 ---------------------------------------------------------------

// ARBConfig is one banks-x-addresses point of Figure 1.
type ARBConfig struct{ Banks, Addrs int }

// Figure1Configs returns the paper's eight ARB geometries
// (1x128 ... 128x1).
func Figure1Configs() []ARBConfig {
	return []ARBConfig{
		{1, 128}, {2, 64}, {4, 32}, {8, 16}, {16, 8}, {32, 4}, {64, 2}, {128, 1},
	}
}

// Figure1Row is the relative IPC of one ARB configuration.
type Figure1Row struct {
	Config     ARBConfig
	RelIPC     float64 // geometric-mean IPC relative to the unbounded LSQ
	RelIPCHalf float64 // same with the in-flight cap halved (64)
}

// Figure1Result holds the Figure 1 series.
type Figure1Result struct {
	Rows  []Figure1Row
	Insts uint64
}

// Figure1 reproduces Figure 1: ARB IPC relative to an ideal unbounded
// LSQ for the eight geometries, with the normal (128) and halved (64)
// in-flight caps.
func (bt *Batch) Figure1(benchmarks []string, insts uint64) Figure1Result {
	return mustFigure(bt.figure1(context.Background(), benchmarks, insts))
}

// column is one series of a figure: the spec it simulates for each
// benchmark. A harness requests each of its columns across the
// benchmark list in order, and its figure-table row enumerates the
// same columns as its spec set (see Figure.Specs).
type column func(benchmark string) RunSpec

// request simulates the column across the benchmarks through bt,
// returning the results in benchmark order (see RunEachCtx).
func (c column) request(ctx context.Context, bt *Batch, benchmarks []string) ([]RunResult, error) {
	specs := make([]RunSpec, len(benchmarks))
	for i, b := range benchmarks {
		specs[i] = c(b)
	}
	return bt.RunEachCtx(ctx, specs, nil)
}

// figure1Columns lists Figure 1's series: the unbounded baseline, then
// each ARB geometry at the full (128) and halved (64) in-flight caps.
func figure1Columns(insts uint64) []column {
	cols := []column{func(b string) RunSpec {
		return RunSpec{Benchmark: b, Insts: insts, Model: ModelUnbounded}
	}}
	for _, cfg := range Figure1Configs() {
		for _, inflight := range [...]int{128, 64} {
			cols = append(cols, func(b string) RunSpec {
				return RunSpec{
					Benchmark: b, Insts: insts, Model: ModelARB,
					ARBBanks: cfg.Banks, ARBAddrs: cfg.Addrs, ARBInflight: inflight,
				}
			})
		}
	}
	return cols
}

// figure1 is Figure1 with cancellation: when ctx fires, the figure's
// queued simulations are withdrawn and the context error is returned
// (started or shared simulations finish into the cache). Every figure
// harness behaves the same way; the figure table calls them.
func (bt *Batch) figure1(ctx context.Context, benchmarks []string, insts uint64) (Figure1Result, error) {
	cols := figure1Columns(insts)
	base, err := cols[0].request(ctx, bt, benchmarks)
	if err != nil {
		return Figure1Result{}, err
	}
	baseIPC := make(map[string]float64, len(base))
	for _, r := range base {
		baseIPC[r.Spec.Benchmark] = r.CPU.IPC
	}
	res := Figure1Result{Insts: insts}
	for i, cfg := range Figure1Configs() {
		row := Figure1Row{Config: cfg}
		for h, rel := range [...]*float64{&row.RelIPC, &row.RelIPCHalf} {
			runs, err := cols[1+2*i+h].request(ctx, bt, benchmarks)
			if err != nil {
				return Figure1Result{}, err
			}
			ratios := make([]float64, 0, len(runs))
			for _, r := range runs {
				if b := baseIPC[r.Spec.Benchmark]; b > 0 {
					ratios = append(ratios, r.CPU.IPC/b)
				}
			}
			*rel = stats.GeoMean(ratios)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders the figure as a table.
//
//samie:deterministic
func (f Figure1Result) String() string {
	t := stats.NewTable("BanksxAddrs", "%IPC vs unbounded", "%IPC (half in-flight)")
	for _, r := range f.Rows {
		t.AddRow(fmt.Sprintf("%dx%d", r.Config.Banks, r.Config.Addrs),
			stats.Percent(r.RelIPC), stats.Percent(r.RelIPCHalf))
	}
	return "Figure 1: ARB IPC relative to an unbounded LSQ\n" + t.String()
}

// ---- Figure 3 ---------------------------------------------------------------

// Figure3Row is one benchmark's mean unbounded-SharedLSQ occupancy
// under three DistribLSQ geometries.
type Figure3Row struct {
	Benchmark                  string
	Occ128x1, Occ64x2, Occ32x4 float64
}

// Figure3Result holds the Figure 3 series.
type Figure3Result struct {
	Rows  []Figure3Row
	Insts uint64
}

// Figure3 reproduces Figure 3: average occupancy of an unbounded
// SharedLSQ for DistribLSQ geometries 128x1, 64x2 and 32x4 (8 slots
// per entry).
func (bt *Batch) Figure3(benchmarks []string, insts uint64) Figure3Result {
	return mustFigure(bt.figure3(context.Background(), benchmarks, insts))
}

// samieColumn is the SAMIE-LSQ series under one configuration.
func samieColumn(cfg core.Config, insts uint64) column {
	return func(b string) RunSpec {
		c := cfg
		return RunSpec{Benchmark: b, Insts: insts, Model: ModelSAMIE, SAMIE: &c}
	}
}

// figure3Geoms are the DistribLSQ geometries Figure 3 sweeps with an
// unbounded SharedLSQ.
var figure3Geoms = []struct{ banks, entries int }{{128, 1}, {64, 2}, {32, 4}}

// figure3Columns lists Figure 3's series: an unbounded SharedLSQ under
// each DistribLSQ geometry of figure3Geoms.
func figure3Columns(insts uint64) []column {
	cols := make([]column, 0, len(figure3Geoms))
	for _, g := range figure3Geoms {
		cfg := core.PaperConfig()
		cfg.Banks, cfg.EntriesPerBank = g.banks, g.entries
		cfg.SharedUnbounded = true
		cols = append(cols, samieColumn(cfg, insts))
	}
	return cols
}

// figure3 is Figure3 with cancellation (see figure1).
func (bt *Batch) figure3(ctx context.Context, benchmarks []string, insts uint64) (Figure3Result, error) {
	res := Figure3Result{Insts: insts}
	rows := make(map[string]*Figure3Row, len(benchmarks))
	for _, b := range benchmarks {
		rows[b] = &Figure3Row{Benchmark: b}
	}
	for gi, col := range figure3Columns(insts) {
		runs, err := col.request(ctx, bt, benchmarks)
		if err != nil {
			return Figure3Result{}, err
		}
		for _, r := range runs {
			occ := r.SAMIE.MeanSharedOcc()
			switch gi {
			case 0:
				rows[r.Spec.Benchmark].Occ128x1 = occ
			case 1:
				rows[r.Spec.Benchmark].Occ64x2 = occ
			case 2:
				rows[r.Spec.Benchmark].Occ32x4 = occ
			}
		}
	}
	for _, b := range benchmarks {
		res.Rows = append(res.Rows, *rows[b])
	}
	return res, nil
}

// String renders the figure as a table with a SPEC average row.
//
//samie:deterministic
func (f Figure3Result) String() string {
	t := stats.NewTable("benchmark", "128x1", "64x2", "32x4")
	var a1, a2, a3 []float64
	for _, r := range f.Rows {
		t.AddRow(r.Benchmark, r.Occ128x1, r.Occ64x2, r.Occ32x4)
		a1, a2, a3 = append(a1, r.Occ128x1), append(a2, r.Occ64x2), append(a3, r.Occ32x4)
	}
	t.AddRow("SPEC", stats.ArithMean(a1), stats.ArithMean(a2), stats.ArithMean(a3))
	return "Figure 3: average entries occupied in an unbounded SharedLSQ\n" + t.String()
}

// ---- Figure 4 ---------------------------------------------------------------

// Figure4Result counts, for each SharedLSQ size, how many programs
// keep the AddrBuffer unused for at least 99% of their cycles.
type Figure4Result struct {
	Sizes    []int
	Programs []int          // cumulative count per size
	PerBench map[string]int // minimal SharedLSQ size per benchmark (-1 if none)
	Insts    uint64
}

// Figure4 reproduces Figure 4, sweeping the SharedLSQ size.
func (bt *Batch) Figure4(benchmarks []string, insts uint64, sizes []int) Figure4Result {
	return mustFigure(bt.figure4(context.Background(), benchmarks, insts, sizes))
}

// figure4DefaultSizes is the SharedLSQ capacity axis Figure 4 sweeps
// when the caller passes none.
var figure4DefaultSizes = []int{0, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48, 52, 56, 60}

// figure4Columns lists Figure 4's series: the paper configuration at
// each SharedLSQ size (size 0 leaves only the DistribLSQ).
func figure4Columns(insts uint64, sizes []int) []column {
	cols := make([]column, 0, len(sizes))
	for _, size := range sizes {
		cfg := core.PaperConfig()
		cfg.SharedEntries = size
		cols = append(cols, samieColumn(cfg, insts))
	}
	return cols
}

// figure4 is Figure4 with cancellation (see figure1).
func (bt *Batch) figure4(ctx context.Context, benchmarks []string, insts uint64, sizes []int) (Figure4Result, error) {
	if len(sizes) == 0 {
		sizes = figure4DefaultSizes
	}
	res := Figure4Result{Sizes: sizes, Insts: insts, PerBench: make(map[string]int)}
	need := make(map[string]int, len(benchmarks))
	for _, b := range benchmarks {
		need[b] = -1
	}
	for i, col := range figure4Columns(insts, sizes) {
		size := sizes[i]
		runs, err := col.request(ctx, bt, benchmarks)
		if err != nil {
			return Figure4Result{}, err
		}
		for _, r := range runs {
			b := r.Spec.Benchmark
			if need[b] < 0 && r.SAMIE.ABEmptyFraction() >= 0.99 {
				need[b] = size
			}
		}
	}
	for _, size := range sizes {
		n := 0
		for _, b := range benchmarks {
			if need[b] >= 0 && need[b] <= size {
				n++
			}
		}
		res.Programs = append(res.Programs, n)
	}
	for b, s := range need {
		res.PerBench[b] = s
	}
	return res, nil
}

// String renders the cumulative curve.
//
//samie:deterministic
func (f Figure4Result) String() string {
	t := stats.NewTable("SharedLSQ entries", "programs with AddrBuffer idle >= 99% of cycles")
	for i, s := range f.Sizes {
		t.AddRow(s, f.Programs[i])
	}
	return "Figure 4: programs not using the AddrBuffer for 99% of execution\n" + t.String()
}

// ---- Figures 5 & 6 ----------------------------------------------------------

// Figure56Row is one benchmark's SAMIE-vs-conventional comparison.
type Figure56Row struct {
	Benchmark     string
	ConvIPC       float64
	SAMIEIPC      float64
	IPCLossPct    float64 // positive = SAMIE slower (Figure 5)
	DeadlocksPerM float64 // deadlock flushes per million cycles (Figure 6)
}

// Figure56Result holds Figures 5 and 6 (one simulation pair yields
// both).
type Figure56Result struct {
	Rows  []Figure56Row
	Insts uint64
}

// Figure56 reproduces Figure 5 (% IPC loss of SAMIE-LSQ vs the
// 128-entry conventional LSQ) and Figure 6 (deadlock-avoidance flushes
// per million cycles).
func (bt *Batch) Figure56(benchmarks []string, insts uint64) Figure56Result {
	return mustFigure(bt.figure56(context.Background(), benchmarks, insts))
}

// pairColumns lists the series Figures 5/6 and the energy figures
// share: the 128-entry conventional LSQ, then the paper's SAMIE-LSQ.
func pairColumns(insts uint64) []column {
	return []column{
		func(b string) RunSpec { return RunSpec{Benchmark: b, Insts: insts, Model: ModelConventional} },
		func(b string) RunSpec { return RunSpec{Benchmark: b, Insts: insts, Model: ModelSAMIE} },
	}
}

// runPair requests the conventional/SAMIE pair across the benchmarks.
func (bt *Batch) runPair(ctx context.Context, benchmarks []string, insts uint64) (conv, samie []RunResult, err error) {
	cols := pairColumns(insts)
	if conv, err = cols[0].request(ctx, bt, benchmarks); err != nil {
		return nil, nil, err
	}
	if samie, err = cols[1].request(ctx, bt, benchmarks); err != nil {
		return nil, nil, err
	}
	return conv, samie, nil
}

// figure56 is Figure56 with cancellation (see figure1).
func (bt *Batch) figure56(ctx context.Context, benchmarks []string, insts uint64) (Figure56Result, error) {
	conv, samie, err := bt.runPair(ctx, benchmarks, insts)
	if err != nil {
		return Figure56Result{}, err
	}
	res := Figure56Result{Insts: insts}
	for i, b := range benchmarks {
		row := Figure56Row{
			Benchmark: b,
			ConvIPC:   conv[i].CPU.IPC,
			SAMIEIPC:  samie[i].CPU.IPC,
		}
		if row.ConvIPC > 0 {
			row.IPCLossPct = (row.ConvIPC - row.SAMIEIPC) / row.ConvIPC * 100
		}
		if samie[i].CPU.Cycles > 0 {
			row.DeadlocksPerM = float64(samie[i].CPU.DeadlockFlushes) / float64(samie[i].CPU.Cycles) * 1e6
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// MeanIPCLossPct returns the arithmetic-mean IPC loss: ledger claim
// C00001 (claims.go) holds the paper's value.
func (f Figure56Result) MeanIPCLossPct() float64 {
	var vs []float64
	for _, r := range f.Rows {
		vs = append(vs, r.IPCLossPct)
	}
	return stats.ArithMean(vs)
}

// String renders both figures.
//
//samie:deterministic
func (f Figure56Result) String() string {
	t := stats.NewTable("benchmark", "conv IPC", "SAMIE IPC", "%IPC loss", "deadlocks/Mcycle")
	for _, r := range f.Rows {
		t.AddRow(r.Benchmark, r.ConvIPC, r.SAMIEIPC,
			fmt.Sprintf("%+.2f%%", r.IPCLossPct), r.DeadlocksPerM)
	}
	var b strings.Builder
	b.WriteString("Figures 5 and 6: SAMIE-LSQ IPC loss and deadlock flushes\n")
	b.WriteString(t.String())
	fmt.Fprintf(&b, "SPEC mean IPC loss: %.2f%% (paper: %s)\n", f.MeanIPCLossPct(), claimIPCLoss.paper)
	return b.String()
}
