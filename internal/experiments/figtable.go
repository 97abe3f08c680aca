package experiments

import (
	"context"
	"fmt"
	"strings"
)

// Figure is one row of the figure table: a paper artefact that every
// driver — the HTTP figure endpoint, the client's name list, and
// samie-bench in local and remote mode — regenerates by name.
type Figure struct {
	// Name addresses the figure (GET /v1/figures/{Name}).
	Name string
	// Selects lists the paper figure numbers (samie-bench -fig) the
	// row answers to: one simulation pair renders Figures 5 and 6, and
	// one more renders Figures 7-12.
	Selects []string
	// Specs enumerates every simulation Run requests, column by
	// column, so a driver can run them elsewhere first (pkg/cluster
	// shards them across replicas) and Run then renders from cache.
	Specs func(benchmarks []string, insts uint64) []RunSpec
	// Run regenerates the figure through the batch. The value's String
	// is the figure's text; the value itself is the typed result the
	// matching Batch method returns (Figure1Result ... EnergyResult).
	// When ctx fires, the figure's queued simulations are withdrawn and
	// the context error is returned.
	Run func(ctx context.Context, bt *Batch, benchmarks []string, insts uint64) (fmt.Stringer, error)
}

// figures is the figure table, in paper order.
var figures = []Figure{
	{"1", []string{"1"}, specsOf(figure1Columns), erase((*Batch).figure1)},
	{"3", []string{"3"}, specsOf(figure3Columns), erase((*Batch).figure3)},
	{"4", []string{"4"}, specsOf(func(insts uint64) []column { return figure4Columns(insts, figure4DefaultSizes) }),
		erase(func(bt *Batch, ctx context.Context, benchmarks []string, insts uint64) (Figure4Result, error) {
			return bt.figure4(ctx, benchmarks, insts, nil)
		})},
	{"56", []string{"5", "6"}, specsOf(pairColumns), erase((*Batch).figure56)},
	{"energy", []string{"7", "8", "9", "10", "11", "12"}, specsOf(pairColumns), erase((*Batch).energy)},
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

// FigureSpecs is the union of the rows' spec sets in table order,
// normalized and deduplicated by canonical key: every simulation the
// rows' harnesses request, each once. Nil benchmarks means the full
// 26-program suite; insts 0 means DefaultInsts.
func FigureSpecs(rows []Figure, benchmarks []string, insts uint64) []RunSpec {
	if len(benchmarks) == 0 {
		benchmarks = Benchmarks()
	}
	if insts == 0 {
		insts = DefaultInsts
	}
	var specs []RunSpec
	seen := map[string]bool{}
	for _, f := range rows {
		for _, s := range f.Specs(benchmarks, insts) {
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

// Figures returns the figure table in paper order.
func Figures() []Figure { return append([]Figure(nil), figures...) }

// FigureNames lists the table's names in paper order.
func FigureNames() []string {
	names := make([]string, len(figures))
	for i, f := range figures {
		names[i] = f.Name
	}
	return names
}

// LookupFigure returns the row with the given name.
func LookupFigure(name string) (Figure, bool) {
	for _, f := range figures {
		if f.Name == name {
			return f, true
		}
	}
	return Figure{}, false
}

// SelectFigures returns, in table order, the rows answering to any of
// the paper figure numbers. A number no row answers to is an error
// naming the valid ones.
func SelectFigures(nums []string) ([]Figure, error) {
	want := make(map[string]bool, len(nums))
	for _, n := range nums {
		want[n] = true
	}
	var valid []string
	var out []Figure
	for _, f := range figures {
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
