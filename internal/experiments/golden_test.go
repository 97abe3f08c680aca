package experiments

import (
	"os"
	"path/filepath"
	"testing"
)

// goldenBenchmarks and goldenInsts fix the reduced suite the golden
// test renders. Changing either invalidates testdata/golden_suite.txt;
// regenerate with UPDATE_GOLDEN=1 go test -run TestSuiteGolden.
var goldenBenchmarks = []string{"ammp", "gzip", "mcf", "swim"}

const goldenInsts = 25_000

// TestSuiteGolden pins the full rendered suite output byte-for-byte.
// Every figure, table and the run accounting flow through this string,
// so any change to simulation semantics, energy accounting order or
// rendering shows up as a diff. Performance refactors of the hot path
// must keep this byte-identical.
func TestSuiteGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden suite needs the full budget")
	}
	got := NewBatch(0).Suite(goldenBenchmarks, goldenInsts).String()
	path := filepath.Join("testdata", "golden_suite.txt")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %d bytes", len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		line, col := diffAt(got, string(want))
		t.Fatalf("suite output differs from golden at line %d col %d\n"+
			"regenerate with UPDATE_GOLDEN=1 only if the change is intended\n"+
			"for a cycle-level diagnosis of a simulation divergence, run the\n"+
			"scheduler differential (go test ./internal/cpu -run SchedulerDifferential):\n"+
			"on a mismatch it re-runs the pair in lockstep and names the first divergent cycles\n"+
			"got:\n%s", line, col, got)
	}
}

// diffAt locates the first differing byte as line/column for the
// failure message.
func diffAt(a, b string) (line, col int) {
	line, col = 1, 1
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return line, col
		}
		if a[i] == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return line, col
}
