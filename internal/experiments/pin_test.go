package experiments

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// pinBenchmarks and pinModels fix the matrix TestModelOutputsPinned
// hashes: five SPEC programs, both adversarial stress workloads, and
// every LSQ organization, including the conventional LSQ small enough
// to refuse dispatch.
var pinBenchmarks = []string{"gzip", "swim", "mcf", "ammp", "facerec", "pointer-chaser", "store-burst"}

var pinModels = []struct {
	name string
	spec RunSpec
}{
	{"samie", RunSpec{Model: ModelSAMIE}},
	{"conventional-128", RunSpec{Model: ModelConventional, ConvEntries: 128}},
	{"arb-64x2", RunSpec{Model: ModelARB, ARBBanks: 64, ARBAddrs: 2, ARBInflight: 128}},
	{"unbounded", RunSpec{Model: ModelUnbounded}},
	{"conventional-16", RunSpec{Model: ModelConventional, ConvEntries: 16}},
}

const pinInsts = 20_000

// pinRendering is the fixed text a pinned run hashes: its key and the
// deterministic payload (CPU result, energy meter, SAMIE and
// conventional statistics). Phases and the timeline describe the
// process, not the simulation, and stay out.
func pinRendering(r RunResult) string {
	return fmt.Sprintf("key=%s\ncpu=%+v\nmeter=%+v\nsamie=%+v\nconv=%+v\n",
		r.Key, r.CPU, *r.Meter, r.SAMIE, r.Conv)
}

// TestModelOutputsPinned holds the raw simulation output of every LSQ
// model to committed hashes, one line per benchmark × model. It sees
// below the rendered suite (TestSuiteGolden), which rounds its figures:
// a refactor of the LSQ layer must keep every counter and every energy
// sum bit-identical. Regenerate with UPDATE_GOLDEN=1 go test -run
// TestModelOutputsPinned only when a change of output is intended.
func TestModelOutputsPinned(t *testing.T) {
	var got strings.Builder
	for _, bench := range pinBenchmarks {
		for _, m := range pinModels {
			spec := m.spec
			spec.Benchmark, spec.Insts = bench, pinInsts
			sum := sha256.Sum256([]byte(pinRendering(Run(spec))))
			fmt.Fprintf(&got, "%s/%s %x\n", bench, m.name, sum)
		}
	}
	path := filepath.Join("testdata", "model_outputs.sha256")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing pin (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("pinned %d lines, computed %d", len(wantLines), len(gotLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("output changed:\n got  %s\n want %s", gotLines[i], wantLines[i])
		}
	}
}
