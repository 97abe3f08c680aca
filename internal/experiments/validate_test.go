package experiments

import (
	"context"
	"strings"
	"testing"

	"samielsq/internal/core"
	"samielsq/internal/cpu"
)

// samieLine returns the paper SAMIE configuration with its line size
// set to lineBytes.
func samieLine(lineBytes int) *core.Config {
	cfg := core.PaperConfig()
	cfg.LineBytes = lineBytes
	return &cfg
}

func TestValidateSpec(t *testing.T) {
	badCPU := cpu.PaperConfig()
	badCPU.ROBSize = 0
	for _, tc := range []struct {
		name string
		spec RunSpec
		want string // error substring; "" means accepted
	}{
		{"paper samie", RunSpec{Benchmark: "gzip", Model: ModelSAMIE}, ""},
		{"samie line 8", RunSpec{Benchmark: "gzip", Model: ModelSAMIE, SAMIE: samieLine(8)}, ""},
		{"samie line 16", RunSpec{Benchmark: "gzip", Model: ModelSAMIE, SAMIE: samieLine(16)}, ""},
		{"samie line 32", RunSpec{Benchmark: "gzip", Model: ModelSAMIE, SAMIE: samieLine(32)}, ""},
		{"samie line 64", RunSpec{Benchmark: "gzip", Model: ModelSAMIE, SAMIE: samieLine(64)}, "exceeds the L1D line"},
		{"samie line 128", RunSpec{Benchmark: "gzip", Model: ModelSAMIE, SAMIE: samieLine(128)}, "exceeds the L1D line"},
		{"samie line 24", RunSpec{Benchmark: "gzip", Model: ModelSAMIE, SAMIE: samieLine(24)}, "power of two"},
		{"empty samie config", RunSpec{Benchmark: "gzip", Model: ModelSAMIE, SAMIE: &core.Config{}}, "positive"},
		{"model below range", RunSpec{Benchmark: "gzip", Model: -1}, "unknown model kind -1"},
		{"model above range", RunSpec{Benchmark: "gzip", Model: ModelSAMIE + 1}, "unknown model kind 4"},
		{"unknown benchmark", RunSpec{Benchmark: "nope", Model: ModelSAMIE}, `unknown benchmark "nope"`},
		{"negative conv", RunSpec{Benchmark: "gzip", Model: ModelConventional, ConvEntries: -1}, "conv_entries"},
		{"arb without geometry", RunSpec{Benchmark: "gzip", Model: ModelARB}, "arb_banks"},
		{"bad cpu", RunSpec{Benchmark: "gzip", Model: ModelUnbounded, CPU: &badCPU}, "ROBSize"},
		{"adversarial", RunSpec{Benchmark: "store-burst", Model: ModelUnbounded}, ""},
	} {
		_, err := ValidateSpec(tc.spec)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: rejected: %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}

	// The model-name table round-trips every kind through the text
	// encoding, an out-of-range kind renders without failing, and an
	// unknown name is refused with all four names listed.
	for m := ModelConventional - 1; m <= ModelSAMIE+1; m++ {
		text, err := m.MarshalText()
		if err != nil || string(text) != ModelName(m) {
			t.Errorf("ModelKind(%d).MarshalText() = %q, %v; want %q", int(m), text, err, ModelName(m))
		}
		var got ModelKind
		err = got.UnmarshalText(text)
		if inRange := m >= ModelConventional && m <= ModelSAMIE; inRange && (err != nil || got != m) {
			t.Errorf("UnmarshalText(%q) = %d, %v", text, int(got), err)
		} else if !inRange && err == nil {
			t.Errorf("UnmarshalText(%q) accepted an out-of-range kind", text)
		}
	}
	var m ModelKind
	err := m.UnmarshalText([]byte("conv"))
	for _, name := range []string{"conventional", "unbounded", "arb", "samie"} {
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf(`UnmarshalText("conv") error %v does not list %q`, err, name)
		}
	}
}

// TestValidateSpecAcceptsEverySweep checks that the validator leaves
// every figure and scenario spec alone: rejecting one would change the
// golden suite.
func TestValidateSpecAcceptsEverySweep(t *testing.T) {
	specs := SuiteSpecs(nil, 2000)
	for _, name := range ScenarioNames() {
		ss, _, err := ScenarioSpecs(name, nil, 2000)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, ss...)
	}
	for _, s := range specs {
		if _, err := ValidateSpec(s); err != nil {
			t.Errorf("%s: %v", keyOf(Normalize(s)), err)
		}
	}
}

// TestRunCtxRejectsInvalidSpec checks that an invalid spec reaches the
// caller as ValidateSpec's error, with nothing simulated or memoized,
// instead of panicking inside the simulator.
func TestRunCtxRejectsInvalidSpec(t *testing.T) {
	b := NewBatch(1)
	for _, spec := range []RunSpec{
		{Benchmark: "gzip", Insts: 2000, Model: ModelSAMIE, SAMIE: samieLine(64)},
		{Benchmark: "gzip", Insts: 2000, Model: ModelSAMIE + 1},
	} {
		_, want := ValidateSpec(spec)
		for range 2 {
			if _, err := b.RunCtx(context.Background(), spec); err == nil || err.Error() != want.Error() {
				t.Fatalf("RunCtx error %v, want %v", err, want)
			}
		}
	}
	if st := b.Stats(); st.Requests != 0 || st.Executed != 0 || b.DistinctRuns() != 0 {
		t.Fatalf("invalid specs reached the engine: %+v, %d memoized", st, b.DistinctRuns())
	}
}
