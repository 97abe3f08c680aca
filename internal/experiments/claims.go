package experiments

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

	"samielsq/internal/stats"
)

// The paper-claims ledger: the one place the paper's reported numbers
// live. Each claim names a value or an ordering the paper reports for
// the SAMIE-LSQ, reads the reproduction's value for it from the
// conventional/SAMIE pair that Figures 5-12 share, and rates the
// distance: match inside its match band, contradict outside its bound,
// drift between. The figure captions quote their paper values from
// here, the `claims` row of the figure table renders the ledger, and
// TestClaims fails on any contradicted claim.

// Claim statuses, from best to worst; n/a marks a claim whose programs
// are not in the rendered set.
const (
	ClaimMatch      = "match"
	ClaimDrift      = "drift"
	ClaimContradict = "contradict"
	ClaimNA         = "n/a"
)

// band is the interval lo..hi a claim's value is rated against; an
// open side is ±Inf. A strict band excludes its finite end (strict
// bands have one open side).
type band struct {
	lo, hi float64
	strict bool
}

func atMost(x float64) band      { return band{math.Inf(-1), x, false} }
func atLeast(x float64) band     { return band{x, math.Inf(1), false} }
func below(x float64) band       { return band{math.Inf(-1), x, true} }
func above(x float64) band       { return band{x, math.Inf(1), true} }
func within(lo, hi float64) band { return band{lo, hi, false} }

func (b band) holds(v float64) bool {
	if b.strict {
		return b.lo < v && v < b.hi
	}
	return b.lo <= v && v <= b.hi
}

// format renders the band in a claim's unit: "<= 6.00%", "> 0",
// "77.0%..87.0%".
func (b band) format(unit func(float64) string) string {
	le, ge := "<=", ">="
	if b.strict {
		le, ge = "<", ">"
	}
	switch {
	case math.IsInf(b.lo, -1):
		return le + " " + unit(b.hi)
	case math.IsInf(b.hi, 1):
		return ge + " " + unit(b.lo)
	}
	return unit(b.lo) + ".." + unit(b.hi)
}

// measure is one reproduced quantity, read over every program of a
// pair's Figure 5/6 and energy results, with the unit it renders in.
type measure struct {
	of   func(Figure56Result, EnergyResult) float64
	unit func(float64) string
}

var (
	ipcLoss = measure{
		func(f Figure56Result, _ EnergyResult) float64 { return f.MeanIPCLossPct() },
		func(v float64) string { return fmt.Sprintf("%.2f%%", v) },
	}
	deadlockRate = measure{
		func(f Figure56Result, _ EnergyResult) float64 {
			var vs []float64
			for _, r := range f.Rows {
				vs = append(vs, r.DeadlocksPerM)
			}
			return stats.ArithMean(vs)
		},
		func(v float64) string { return fmt.Sprintf("%.0f", v) },
	}
	lsqSaving    = measure{func(_ Figure56Result, e EnergyResult) float64 { return e.LSQSavings() }, stats.Percent}
	dcacheSaving = measure{func(_ Figure56Result, e EnergyResult) float64 { return e.DcacheSavings() }, stats.Percent}
	dtlbSaving   = measure{func(_ Figure56Result, e EnergyResult) float64 { return e.DTLBSavings() }, stats.Percent}
	areaSaving   = measure{func(_ Figure56Result, e EnergyResult) float64 { return e.AreaSavings() }, stats.Percent}
)

// claim is one row of the ledger.
type claim struct {
	id     string // C00001...: the case ID docs/functional-testing.md lists
	source string // where the paper reports it
	text   string // what the paper claims
	paper  string // the paper's value, as the paper states it
	m      measure
	// programs the claim reads: none for the whole rendered set, one
	// for that program alone, two for an ordering, whose value is the
	// first program's minus the second's.
	programs []string
	// match is the band inside which the reproduction matches the
	// paper. Every match band is hand-set until the trace seed gives
	// each claim a measured spread (ROADMAP item 3).
	match band
	// bound is the band outside which the reproduction contradicts the
	// paper.
	bound band
}

// The headline claims; the figure captions quote their paper values.
var (
	claimIPCLoss = claim{"C00001", "Figure 5", "mean IPC loss", "0.6%", ipcLoss, nil, within(0, 1.2), atMost(6)}
	claimLSQ     = claim{"C00002", "Figure 7", "LSQ dynamic-energy saving", "82%", lsqSaving, nil, within(0.77, 0.87), atLeast(0.45)}
	claimDcache  = claim{"C00003", "Figure 9", "L1 Dcache dynamic-energy saving", "42%", dcacheSaving, nil, within(0.37, 0.47), atLeast(0.25)}
	claimDTLB    = claim{"C00004", "Figure 10", "DTLB dynamic-energy saving", "73%", dtlbSaving, nil, within(0.68, 0.78), atLeast(0.45)}
	claimArea    = claim{"C00005", "Figure 11", "active LSQ area saving", "~5%", areaSaving, nil, within(0, 0.10), within(-0.5, 0.6)}
)

// claims is the ledger in case-ID order. The headline match bands are
// the paper's value ±5 pp for savings and ±0.6 pp for the IPC loss;
// a per-program or ordering claim matches when its shape holds.
var claims = []claim{
	claimIPCLoss, claimLSQ, claimDcache, claimDTLB, claimArea,
	{"C00006", "Figure 5", "fma3d IPC loss", "no loss", ipcLoss, []string{"fma3d"}, atMost(0), atMost(1)},
	{"C00007", "Figure 5", "facerec IPC loss", "no loss", ipcLoss, []string{"facerec"}, atMost(0), atMost(2)},
	{"C00008", "Figure 5", "gzip IPC loss", "no loss", ipcLoss, []string{"gzip"}, atMost(0), atMost(1)},
	{"C00009", "Figure 5", "swim IPC loss", "no loss", ipcLoss, []string{"swim"}, atMost(0), atMost(1)},
	{"C00010", "Figure 6", "gzip deadlock flushes/Mcycle", "~0", deadlockRate, []string{"gzip"}, atMost(1), atMost(50)},
	{"C00011", "Figure 6", "ammp deadlocks more than gzip", "ammp > gzip", deadlockRate, []string{"ammp", "gzip"}, above(0), atLeast(0)},
	{"C00012", "Figure 9", "mcf saves less Dcache energy than swim", "mcf < swim", dcacheSaving, []string{"mcf", "swim"}, below(0), below(0)},
}

// status rates a value of the claim.
func (c claim) status(v float64) string {
	switch {
	case !c.bound.holds(v):
		return ClaimContradict
	case c.match.holds(v):
		return ClaimMatch
	}
	return ClaimDrift
}

// read rates the claim over the pair's results.
func (c claim) read(f Figure56Result, e EnergyResult) ClaimRow {
	row := ClaimRow{
		ID: c.id, Source: c.source, Claim: c.text, Paper: c.paper, Reproduced: "-",
		Match: c.match.format(c.m.unit), Bound: c.bound.format(c.m.unit), Status: ClaimNA,
	}
	var vs []float64
	if len(c.programs) == 0 {
		if len(f.Rows) == 0 {
			return row
		}
		vs = append(vs, c.m.of(f, e))
	}
	for _, p := range c.programs {
		i := slices.IndexFunc(f.Rows, func(r Figure56Row) bool { return r.Benchmark == p })
		j := slices.IndexFunc(e.Rows, func(r EnergyRow) bool { return r.Benchmark == p })
		if i < 0 || j < 0 {
			return row
		}
		vs = append(vs, c.m.of(Figure56Result{Rows: f.Rows[i : i+1]}, EnergyResult{Rows: e.Rows[j : j+1]}))
	}
	shown := make([]string, len(vs))
	for i, v := range vs {
		shown[i] = c.m.unit(v)
	}
	row.Reproduced = strings.Join(shown, " vs ")
	row.Value = vs[0]
	if len(vs) == 2 {
		row.Value -= vs[1]
	}
	row.Status = c.status(row.Value)
	return row
}

// ClaimsResult is the ledger rendered over one set of programs at one
// budget: the `claims` row of the figure table.
type ClaimsResult struct {
	Rows       []ClaimRow
	Benchmarks []string
	Insts      uint64
}

// ClaimRow is one claim's reading.
type ClaimRow struct {
	ID, Source, Claim, Paper string
	// Reproduced is the value as rendered ("-" when n/a); an ordering
	// claim shows both programs' values.
	Reproduced string
	// Value is the number the status rates: an ordering claim's
	// difference, 0 when n/a.
	Value        float64
	Match, Bound string
	Status       string
}

// Claims rates every claim of the ledger against one pair's Figure
// 5/6 and energy results, which cover the same programs.
func Claims(f Figure56Result, e EnergyResult) ClaimsResult {
	res := ClaimsResult{Insts: f.Insts}
	for _, r := range f.Rows {
		res.Benchmarks = append(res.Benchmarks, r.Benchmark)
	}
	for _, c := range claims {
		res.Rows = append(res.Rows, c.read(f, e))
	}
	return res
}

// claims renders the ledger from the pair Figures 5-12 share, so it
// requests no simulation those rows do not.
func (bt *Batch) claims(ctx context.Context, benchmarks []string, insts uint64) (ClaimsResult, error) {
	f, err := bt.figure56(ctx, benchmarks, insts)
	if err != nil {
		return ClaimsResult{}, err
	}
	e, err := bt.energy(ctx, benchmarks, insts)
	if err != nil {
		return ClaimsResult{}, err
	}
	return Claims(f, e), nil
}

// String renders the ledger.
//
//samie:deterministic
func (c ClaimsResult) String() string {
	t := stats.NewTable("case", "source", "claim", "paper", "reproduced", "match", "bound", "status")
	for _, r := range c.Rows {
		t.AddRow(r.ID, r.Source, r.Claim, r.Paper, r.Reproduced, r.Match, r.Bound, r.Status)
	}
	return fmt.Sprintf("Paper claims over %d programs (%d instructions)\n"+
		"match inside the match band (hand-set until trace-seed bands exist), contradict outside the bound,\n"+
		"drift between, n/a without the claim's programs; an ordering rates the first value minus the second\n%s",
		len(c.Benchmarks), c.Insts, t.String())
}
