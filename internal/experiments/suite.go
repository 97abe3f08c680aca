package experiments

import (
	"fmt"
	"strings"
	"sync"

	"samielsq/internal/experiments/engine"
)

// SuiteResult bundles every artefact of the paper's evaluation,
// produced from one shared batch: Figures 1, 3, 4, 5/6 and 7-12 plus
// the static tables, together with the batch's run accounting.
type SuiteResult struct {
	Figure1  Figure1Result
	Figure3  Figure3Result
	Figure4  Figure4Result
	Figure56 Figure56Result
	Energy   EnergyResult

	Table1    Table1Result
	Delays    DelayResult
	Tables456 string

	Insts uint64

	// Runs is the shared scheduler's accounting for the whole suite;
	// Runs.Executed counts the distinct simulations actually performed,
	// Runs.Hits the cross-harness reuse.
	Runs engine.Stats
}

// Suite regenerates the full evaluation through the batch. The five
// simulation harnesses run concurrently and share the batch's run
// cache, so every distinct simulation (notably the conventional/SAMIE
// pair that Figures 5/6 and 7-12 both need) executes exactly once.
// Results are identical to running each harness on its own.
func (bt *Batch) Suite(benchmarks []string, insts uint64) SuiteResult {
	if insts == 0 {
		insts = DefaultInsts
	}
	res := SuiteResult{Insts: insts}
	var wg sync.WaitGroup
	for _, part := range []func(){
		func() { res.Figure1 = bt.Figure1(benchmarks, insts) },
		func() { res.Figure3 = bt.Figure3(benchmarks, insts) },
		func() { res.Figure4 = bt.Figure4(benchmarks, insts, nil) },
		func() { res.Figure56 = bt.Figure56(benchmarks, insts) },
		func() { res.Energy = bt.Energy(benchmarks, insts) },
	} {
		wg.Add(1)
		go func(part func()) {
			defer wg.Done()
			part()
		}(part)
	}
	wg.Wait()
	res.Table1 = Table1()
	res.Delays = Delays()
	res.Tables456 = Tables456String()
	res.Runs = bt.Stats()
	return res
}

// String renders every artefact in paper order, followed by the run
// accounting.
//
//samie:deterministic
func (s SuiteResult) String() string {
	var b strings.Builder
	for _, part := range []string{
		s.Figure1.String(), s.Figure3.String(), s.Figure4.String(),
		s.Figure56.String(), s.Energy.String(),
		s.Table1.String(), s.Delays.String(), s.Tables456,
	} {
		b.WriteString(part)
		if !strings.HasSuffix(part, "\n") {
			b.WriteByte('\n')
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "Shared batch: %d simulations executed, %d of %d requests served from cache (%.0f%% reuse)\n",
		s.Runs.Executed, s.Runs.Hits, s.Runs.Requests, 100*s.Runs.HitRate())
	return b.String()
}
