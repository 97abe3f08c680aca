package experiments

import (
	"fmt"

	"samielsq/internal/cache"
	"samielsq/internal/trace"
)

// l1dLineBytes is the line size of the L1 data cache every run
// simulates (mem.NewPaper builds it from cache.PaperL1D).
var l1dLineBytes = cache.PaperL1D().LineBytes

// ValidateSpec reports why spec cannot be simulated, or nil when Run
// would accept it. The simulator's constructors panic on a malformed
// configuration, so every boundary that takes a spec from outside the
// program — the HTTP service in either request encoding, the CLIs,
// Batch.RunCtx — asks here first. The spec may be raw or normalized:
// the model kind is checked before anything normalizes it, and the
// rest is checked over the spec Normalize completes.
func ValidateSpec(spec RunSpec) error {
	_, err := normalizeValid(spec)
	return err
}

// normalizeValid is ValidateSpec returning the normalized spec, so the
// run paths normalize once.
func normalizeValid(spec RunSpec) (RunSpec, error) {
	if spec.Model < ModelConventional || spec.Model > ModelSAMIE {
		return RunSpec{}, fmt.Errorf("unknown model kind %d", int(spec.Model))
	}
	if _, err := trace.Personality(spec.Benchmark); err != nil {
		return RunSpec{}, fmt.Errorf("unknown benchmark %q", spec.Benchmark)
	}
	n := Normalize(spec)
	if err := n.CPU.Validate(); err != nil {
		return RunSpec{}, err
	}
	switch n.Model {
	case ModelConventional:
		if n.ConvEntries <= 0 {
			return RunSpec{}, fmt.Errorf("conv_entries must be positive")
		}
	case ModelARB:
		if n.ARBBanks <= 0 || n.ARBAddrs <= 0 || n.ARBInflight <= 0 {
			return RunSpec{}, fmt.Errorf("arb_banks, arb_addrs and arb_inflight must be positive")
		}
	case ModelSAMIE:
		if err := n.SAMIE.Validate(); err != nil {
			return RunSpec{}, err
		}
		// SAMIE caches the L1D way of each line it tracks. A SAMIE line
		// longer than the L1D line spans several cache lines, so a
		// "way-known" access can land on a line that was never filled
		// and the CPU's presentBit check fails. A shorter line always
		// sits inside one cache line and runs clean.
		if n.SAMIE.LineBytes > l1dLineBytes {
			return RunSpec{}, fmt.Errorf("samie LineBytes %d exceeds the L1D line of %d bytes",
				n.SAMIE.LineBytes, l1dLineBytes)
		}
	}
	return n, nil
}
