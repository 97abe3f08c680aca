package experiments

import (
	"cmp"
	"context"
	"fmt"
	"strings"
	"sync"

	"samielsq/internal/experiments/engine"
	"samielsq/internal/obs"
)

// SuiteResult is the paper's evaluation produced from one shared
// batch: every paper row of the figure table (Figures()), rendered in
// table order, together with the batch's run accounting.
type SuiteResult struct {
	// Rows holds the paper rows' artefacts in table order.
	Rows []SuiteRow

	Insts uint64

	// Runs is the suite's run accounting (SuiteRuns); Runs.Executed
	// counts the distinct simulations actually performed, Runs.Hits
	// the cross-row reuse.
	Runs engine.Stats
}

// SuiteRow is one rendered figure-table row: its name and the
// artefact its Run returned.
type SuiteRow struct {
	Name     string
	Artefact fmt.Stringer
}

// Suite regenerates the full evaluation through the batch: every paper
// row over its resolved benchmarks (nil means all 26). The rows run
// concurrently and share the batch's run cache, so every distinct
// simulation, even one several rows need, executes exactly once.
// Results are identical to running each row on its own.
func (bt *Batch) Suite(benchmarks []string, insts uint64) SuiteResult {
	if insts == 0 {
		insts = DefaultInsts
	}
	rows := mustFigure(bt.Render(context.Background(), Figures(), benchmarks, insts))
	return SuiteResult{Rows: rows, Insts: insts, Runs: SuiteRuns(bt, 0)}
}

// Render runs the rows through the batch concurrently, each over its
// resolved benchmarks (Figure.ResolveBenchmarks) and under its own
// "figure <name>" span, and returns their artefacts in row order. The
// first failing row's error (ctx firing, a contained simulation
// panic) is returned.
func (bt *Batch) Render(ctx context.Context, rows []Figure, benchmarks []string, insts uint64) ([]SuiteRow, error) {
	out := make([]SuiteRow, len(rows))
	errs := make([]error, len(rows))
	var wg sync.WaitGroup
	for i, f := range rows {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, sp := obs.StartSpan(ctx, "figure "+f.Name)
			defer sp.End()
			out[i].Name = f.Name
			out[i].Artefact, errs[i] = f.Run(ctx, bt, f.ResolveBenchmarks(benchmarks), insts)
		}()
	}
	wg.Wait()
	if err := cmp.Or(errs...); err != nil {
		return nil, err
	}
	return out, nil
}

// SuiteRuns is the run accounting of a suite rendered through bt.
// offered counts the distinct simulations a coordinator ran elsewhere
// and offered into bt before rendering (0 for a local suite): the
// suite executed them, so they count as executions, not cache hits.
func SuiteRuns(bt *Batch, offered int) engine.Stats {
	st := bt.Stats()
	st.Executed += int64(offered)
	st.Hits -= int64(offered)
	return st
}

// Accounting renders the suite's closing line from its run
// accounting.
//
//samie:deterministic
func Accounting(runs engine.Stats) string {
	return fmt.Sprintf("Shared batch: %d simulations executed, %d of %d requests served from cache (%.0f%% reuse)\n",
		runs.Executed, runs.Hits, runs.Requests, 100*runs.HitRate())
}

// String renders every row in table order as fmt.Println prints it
// (each artefact ends in a newline, so a blank line follows), then the
// run accounting: the bytes samie-bench prints for the suite.
//
//samie:deterministic
func (s SuiteResult) String() string {
	var b strings.Builder
	for _, r := range s.Rows {
		fmt.Fprintln(&b, r.Artefact)
	}
	b.WriteString(Accounting(s.Runs))
	return b.String()
}
