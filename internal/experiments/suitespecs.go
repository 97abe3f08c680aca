package experiments

import (
	"context"
	"fmt"
	"runtime/debug"

	"samielsq/internal/core"
)

// figure3Geoms are the DistribLSQ geometries Figure 3 sweeps with an
// unbounded SharedLSQ; Figure3 and SuiteSpecs must agree on them.
var figure3Geoms = []struct{ banks, entries int }{{128, 1}, {64, 2}, {32, 4}}

// figure4DefaultSizes is the SharedLSQ capacity axis Figure 4 sweeps
// when the caller passes none; Figure4 and SuiteSpecs must agree.
var figure4DefaultSizes = []int{0, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48, 52, 56, 60}

// SuiteSpecs enumerates the distinct simulations the full suite
// (Figures 1, 3, 4, 5/6 and the energy figures) needs, deduplicated by
// canonical key, in a deterministic order. A coordinator can partition
// this list across replicas, execute every spec exactly once
// cluster-wide, and reassemble the byte-identical suite from the
// results (see pkg/cluster). Nil benchmarks means the full 26-program
// suite; insts 0 means DefaultInsts.
func SuiteSpecs(benchmarks []string, insts uint64) []RunSpec {
	if len(benchmarks) == 0 {
		benchmarks = Benchmarks()
	}
	if insts == 0 {
		insts = DefaultInsts
	}
	var specs []RunSpec
	seen := map[string]bool{}
	add := func(s RunSpec) {
		n := Normalize(s)
		key := keyOf(n)
		if !seen[key] {
			seen[key] = true
			specs = append(specs, n)
		}
	}

	// Figure 1: the unbounded baseline plus the eight ARB geometries at
	// the full and halved in-flight caps.
	for _, b := range benchmarks {
		add(RunSpec{Benchmark: b, Insts: insts, Model: ModelUnbounded})
	}
	for _, cfg := range Figure1Configs() {
		for _, inflight := range [...]int{128, 64} {
			for _, b := range benchmarks {
				add(RunSpec{
					Benchmark: b, Insts: insts, Model: ModelARB,
					ARBBanks: cfg.Banks, ARBAddrs: cfg.Addrs, ARBInflight: inflight,
				})
			}
		}
	}
	// Figure 3: unbounded-SharedLSQ occupancy per DistribLSQ geometry.
	for _, g := range figure3Geoms {
		cfg := core.PaperConfig()
		cfg.Banks, cfg.EntriesPerBank = g.banks, g.entries
		cfg.SharedUnbounded = true
		for _, b := range benchmarks {
			c := cfg
			add(RunSpec{Benchmark: b, Insts: insts, Model: ModelSAMIE, SAMIE: &c})
		}
	}
	// Figure 4: the SharedLSQ size sweep (one size is the paper config,
	// shared with Figures 5/6 and the energy figures).
	for _, size := range figure4DefaultSizes {
		cfg := core.PaperConfig()
		cfg.SharedEntries = size
		for _, b := range benchmarks {
			c := cfg
			add(RunSpec{Benchmark: b, Insts: insts, Model: ModelSAMIE, SAMIE: &c})
		}
	}
	// Figures 5/6 and 7-12: the conventional/SAMIE pair.
	for _, b := range benchmarks {
		add(RunSpec{Benchmark: b, Insts: insts, Model: ModelConventional})
		add(RunSpec{Benchmark: b, Insts: insts, Model: ModelSAMIE})
	}
	return specs
}

// ScenarioSpecs enumerates the distinct simulations a registered
// scenario sweep needs over the benchmark rows, deduplicated by
// canonical key, together with the resolved benchmark list (the
// scenario's default rows when benchmarks is nil). The same partition
// contract as SuiteSpecs applies.
func ScenarioSpecs(name string, benchmarks []string, insts uint64) ([]RunSpec, []string, error) {
	sc, ok := LookupScenario(name)
	if !ok {
		return nil, nil, fmt.Errorf("experiments: unknown scenario %q", name)
	}
	benchmarks = sc.ResolveBenchmarks(benchmarks)
	if insts == 0 {
		insts = DefaultInsts
	}
	var specs []RunSpec
	seen := map[string]bool{}
	for _, b := range benchmarks {
		for _, v := range sc.Variants {
			n := Normalize(v.Spec(b, insts))
			key := keyOf(n)
			if !seen[key] {
				seen[key] = true
				specs = append(specs, n)
			}
		}
	}
	return specs, benchmarks, nil
}

// Offer installs a precomputed result for spec — typically fetched
// from a remote replica — into the batch's in-memory run cache, so a
// later harness request for the same spec is a cache hit instead of a
// simulation. No-op (returning false) if the batch already has a job
// for the spec. Offered results carry a nil memory hierarchy, exactly
// like disk-served ones.
func (b *Batch) Offer(spec RunSpec, res RunResult) bool {
	n := Normalize(spec)
	res.Spec = n
	res.Hier = nil
	return b.sched.Offer(keyOf(n), res)
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
// simulation finishes. Results are returned in spec order.
// Cancellation and panic containment follow RunAllCtx: queued
// simulations are withdrawn when ctx fires, completed cells stay
// memoized, and a panicking simulation surfaces as an error.
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
