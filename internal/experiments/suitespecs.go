package experiments

import (
	"context"
	"fmt"
	"runtime/debug"
)

// SuiteSpecs enumerates the distinct simulations the full suite
// (every paper row of the figure table) needs: FigureSpecs over
// Figures(). A coordinator can partition this list across replicas,
// execute every spec exactly once cluster-wide, and reassemble the
// byte-identical suite from the results (see pkg/cluster). Nil
// benchmarks means the full 26-program suite; insts 0 means
// DefaultInsts.
func SuiteSpecs(benchmarks []string, insts uint64) []RunSpec {
	return FigureSpecs(figures[:paperRows], benchmarks, insts)
}

// ScenarioSpecs enumerates the distinct simulations a registered
// scenario sweep needs over the benchmark rows — its row's
// FigureSpecs, benchmark by benchmark — together with the resolved
// benchmark list (the scenario's default rows when benchmarks is
// nil). The same partition contract as SuiteSpecs applies.
func ScenarioSpecs(name string, benchmarks []string, insts uint64) ([]RunSpec, []string, error) {
	f, err := scenarioRow(name)
	if err != nil {
		return nil, nil, err
	}
	rows := f.ResolveBenchmarks(benchmarks)
	return FigureSpecs([]Figure{f}, rows, insts), rows, nil
}

// Offer installs a precomputed result for spec — typically fetched
// from a remote replica — into the batch's in-memory run cache, so a
// later harness request for the same spec is a cache hit instead of a
// simulation. No-op (returning false) if the batch already has a job
// for the spec.
func (b *Batch) Offer(spec RunSpec, res RunResult) bool {
	n := Normalize(spec)
	res.Key, res.Spec = keyOf(n), n
	return b.sched.Offer(res.Key, res)
}

// Cached returns the completed result for a canonical spec key if the
// batch already holds it — in memory, or in the attached disk cache —
// without executing anything and without counting toward the engine's
// request stats or the disk traffic counters. This is the cache-probe
// primitive behind GET /v1/runs/{key}.
func (b *Batch) Cached(key string) (RunResult, bool) {
	if r, ok := b.sched.Cached(key); ok {
		return r, true
	}
	if b.disk != nil {
		if r, ok := b.disk.read(key); ok {
			return r, true
		}
	}
	return RunResult{}, false
}

// RunEachCtx executes every spec through the batch, invoking onDone —
// when non-nil, from a single goroutine, in completion order — as each
// simulation finishes. Results are returned in spec order. When ctx
// fires, the queued simulations are withdrawn and the first context
// error is returned; a panicking simulation surfaces as an error
// (carrying the original panic and stack) instead of crashing its
// fan-out goroutine's process. On error the partial results are
// discarded, but every cell that did complete stays memoized.
func (b *Batch) RunEachCtx(ctx context.Context, specs []RunSpec, onDone func(r RunResult, done, total int)) ([]RunResult, error) {
	out := make([]RunResult, len(specs))
	type doneMsg struct {
		i   int
		err error
	}
	ch := make(chan doneMsg, len(specs))
	for i, spec := range specs {
		go func(i int, spec RunSpec) {
			var err error
			defer func() {
				if p := recover(); p != nil {
					// The panic site's stack is only reachable here; carry
					// it so the failure stays diagnosable as an error.
					err = fmt.Errorf("experiments: %s simulation panicked: %v\n%s", spec.Benchmark, p, debug.Stack())
				}
				ch <- doneMsg{i, err}
			}()
			out[i], err = b.RunCtx(ctx, spec)
		}(i, spec)
	}
	var firstErr error
	completed := 0
	for range specs {
		d := <-ch
		if d.err != nil {
			if firstErr == nil {
				firstErr = d.err
			}
			continue
		}
		completed++
		if onDone != nil && firstErr == nil {
			onDone(out[d.i], completed, len(specs))
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}
