package experiments

import (
	"context"
	"fmt"
	"strings"
)

// Figure is one row of the figure table: a named artefact that every
// driver — the suite, the HTTP figure endpoint, the client's name list
// and samie-bench in both modes — regenerates by name. The table holds
// the paper's figures and static tables, then the scenario sweeps.
type Figure struct {
	// Name addresses the row (GET /v1/figures/{Name}).
	Name string
	// Selects lists the names samie-bench -fig selects the row by: the
	// paper figures it renders (one simulation pair renders Figures 5
	// and 6) or a table's own name (the static tables, the claims
	// ledger). Scenario rows have none.
	Selects []string
	// Specs enumerates every simulation Run requests, so a driver can
	// run them elsewhere first (pkg/cluster shards them across
	// replicas) and Run then renders from cache. Paper rows enumerate
	// column by column, scenario rows benchmark by benchmark; static
	// tables simulate nothing and have none.
	Specs func(benchmarks []string, insts uint64) []RunSpec
	// Run regenerates the row's artefact through the batch over the
	// resolved benchmarks (ResolveBenchmarks). The value's String is
	// the artefact's text; the value itself is the typed result the
	// matching Batch method or table returns (Figure1Result ...
	// Tables456Result, ClaimsResult, ScenarioResult). When ctx fires,
	// the row's queued simulations are withdrawn and the context error
	// is returned.
	Run func(ctx context.Context, bt *Batch, benchmarks []string, insts uint64) (fmt.Stringer, error)
	// Scenario is the registered sweep a scenario row renders; nil for
	// the paper's rows.
	Scenario *Scenario
}

// figures is the figure table: the suite's paper rows in paper order
// with the paper-claims ledger last, then the registered scenarios in
// registration order (RegisterScenario).
var figures = []Figure{
	{"1", []string{"1"}, specsOf(figure1Columns), erase((*Batch).figure1), nil},
	{"3", []string{"3"}, specsOf(figure3Columns), erase((*Batch).figure3), nil},
	{"4", []string{"4"}, specsOf(func(insts uint64) []column { return figure4Columns(insts, figure4DefaultSizes) }),
		erase(func(bt *Batch, ctx context.Context, benchmarks []string, insts uint64) (Figure4Result, error) {
			return bt.figure4(ctx, benchmarks, insts, nil)
		}), nil},
	{"56", []string{"5", "6"}, specsOf(pairColumns), erase((*Batch).figure56), nil},
	{"energy", []string{"7", "8", "9", "10", "11", "12"}, specsOf(pairColumns), erase((*Batch).energy), nil},
	{"table1", []string{"table1"}, nil, static(Table1), nil},
	{"delays", []string{"delays"}, nil, static(Delays), nil},
	{"tables456", []string{"tables456"}, nil, static(Tables456), nil},
	{"claims", []string{"claims"}, specsOf(pairColumns), erase((*Batch).claims), nil},
}

// paperRows counts the paper's rows at the head of the table.
var paperRows = len(figures)

// ResolveBenchmarks is the row's benchmark rule: an explicit list
// wins, then a scenario's own default rows, then the full 26-program
// suite. FigureSpecs, the HTTP figure endpoint and samie-bench all
// resolve through here.
func (f Figure) ResolveBenchmarks(benchmarks []string) []string {
	if len(benchmarks) > 0 {
		return benchmarks
	}
	if f.Scenario != nil && len(f.Scenario.Benchmarks) > 0 {
		return f.Scenario.Benchmarks
	}
	return Benchmarks()
}

// specsOf adapts a harness's column list to the table's Specs
// signature: every column across every benchmark, in request order.
func specsOf(columns func(insts uint64) []column) func([]string, uint64) []RunSpec {
	return func(benchmarks []string, insts uint64) []RunSpec {
		cols := columns(insts)
		specs := make([]RunSpec, 0, len(cols)*len(benchmarks))
		for _, col := range cols {
			for _, b := range benchmarks {
				specs = append(specs, col(b))
			}
		}
		return specs
	}
}

// FigureSpecs is the union of the rows' spec sets in the given order,
// normalized and deduplicated by canonical key: every simulation the
// rows' harnesses request, each once. Nil benchmarks means each row's
// own default (ResolveBenchmarks); insts 0 means DefaultInsts.
func FigureSpecs(rows []Figure, benchmarks []string, insts uint64) []RunSpec {
	if insts == 0 {
		insts = DefaultInsts
	}
	var specs []RunSpec
	seen := map[string]bool{}
	for _, f := range rows {
		if f.Specs == nil {
			continue
		}
		for _, s := range f.Specs(f.ResolveBenchmarks(benchmarks), insts) {
			n := Normalize(s)
			if key := keyOf(n); !seen[key] {
				seen[key] = true
				specs = append(specs, n)
			}
		}
	}
	return specs
}

// erase adapts one typed harness to the table's Run signature.
func erase[T fmt.Stringer](run func(*Batch, context.Context, []string, uint64) (T, error)) func(context.Context, *Batch, []string, uint64) (fmt.Stringer, error) {
	return func(ctx context.Context, bt *Batch, benchmarks []string, insts uint64) (fmt.Stringer, error) {
		v, err := run(bt, ctx, benchmarks, insts)
		if err != nil {
			return nil, err
		}
		return v, nil
	}
}

// static adapts a table that needs no simulation to the table's Run
// signature.
func static[T fmt.Stringer](table func() T) func(context.Context, *Batch, []string, uint64) (fmt.Stringer, error) {
	return func(context.Context, *Batch, []string, uint64) (fmt.Stringer, error) { return table(), nil }
}

// Figures returns the paper's rows of the figure table in paper order.
func Figures() []Figure { return append([]Figure(nil), figures[:paperRows]...) }

// FigureNames lists the paper rows' names in paper order.
func FigureNames() []string {
	names := make([]string, paperRows)
	for i, f := range figures[:paperRows] {
		names[i] = f.Name
	}
	return names
}

// LookupFigure returns the row with the given name: a paper figure or
// a registered scenario.
func LookupFigure(name string) (Figure, bool) {
	for _, f := range figures {
		if f.Name == name {
			return f, true
		}
	}
	return Figure{}, false
}

// SelectFigures returns, in table order, the paper rows answering to
// any of the names (figure numbers or static-table names). A name no
// row answers to is an error naming the valid ones.
func SelectFigures(nums []string) ([]Figure, error) {
	want := make(map[string]bool, len(nums))
	for _, n := range nums {
		want[n] = true
	}
	var valid []string
	var out []Figure
	for _, f := range figures[:paperRows] {
		picked := false
		for _, sel := range f.Selects {
			valid = append(valid, sel)
			if want[sel] {
				delete(want, sel)
				picked = true
			}
		}
		if picked {
			out = append(out, f)
		}
	}
	for _, n := range nums {
		if want[n] {
			return nil, fmt.Errorf("unknown figure %q (valid: %s)", n, strings.Join(valid, ", "))
		}
	}
	return out, nil
}
