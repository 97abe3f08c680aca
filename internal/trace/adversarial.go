package trace

// Adversarial stress personalities beyond the paper's 26 SPEC CPU2000
// programs. They are deliberately kept out of Benchmarks() — the
// paper-suite figures, goldens and default sweeps stay exactly the
// SPEC set — but resolve through Personality like any other workload,
// so every harness, the HTTP service and the cluster CLI accept them
// by name (e.g. `-bench pointer-chaser,store-burst`, or the
// "adversarial" scenario row of the figure table).
var adversarialPersonalities = map[string]Params{
	// pointer-chaser: a worst case for memory-level parallelism. One
	// stream of almost entirely random, dependence-chained loads over a
	// working set far beyond any cache: each address comes from the
	// previous load (DepGeom near 1, almost no far operands), runs are
	// a single access, and lines are essentially never revisited — so
	// the LSQ sees one long serial chain with near-zero line sharing,
	// the regime where the PR 2 issue-walk cost dominates and SAMIE's
	// multi-instruction entries help least.
	"pointer-chaser": func() Params {
		p := intBase("pointer-chaser")
		p.LoadFrac, p.StoreFrac, p.BranchFrac = 0.40, 0.04, 0.10
		p.Streams = 1
		p.RunLen = 1
		p.RandFrac = 0.95
		p.Revisit = 0.02
		p.WorkingSet = 32 << 20
		p.AccessSize = 8
		p.DepGeom = 0.92
		p.FarSrcFrac = 0.02
		return p
	}(),
	// store-burst: a store-dominated streaming mix (log writers,
	// checkpointing, memset-heavy phases). Many concurrent unit-stride
	// streams with long per-line runs and stores outnumbering loads
	// two to one: maximal pressure on store slots, forwarding and
	// commit-time line turnover, with plenty of ILP to keep the bursts
	// back to back.
	"store-burst": func() Params {
		p := intBase("store-burst")
		p.LoadFrac, p.StoreFrac, p.BranchFrac = 0.16, 0.32, 0.08
		p.Streams = 12
		p.RunLen = 8
		p.RandFrac = 0.04
		p.Revisit = 0.10
		p.WorkingSet = 1 << 20
		p.DepGeom = 0.30
		p.FarSrcFrac = 0.65
		return p
	}(),
}
