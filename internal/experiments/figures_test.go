package experiments

import (
	"strings"
	"testing"
)

// pressure is the subset of programs that exercises every qualitative
// regime: concentrated FP (ammp/apsi/art/mgrid), concentrated +
// high-pressure (facerec), even high-pressure (fma3d), pointer chasing
// (mcf), streaming (swim) and integer (gzip).
var pressure = []string{"ammp", "apsi", "art", "facerec", "fma3d", "mgrid", "mcf", "gzip", "swim"}

const figInsts = 80_000

// figBatch is shared by the figure-shape tests and TestClaims: the
// Figure 4 sweep's 8-entry point and the claims ledger need the same
// paper-config runs, so the batch simulates each of them once across
// the whole test binary.
var figBatch = NewBatch(0)

// TestFigure3Shape verifies the paper's Figure 3 claims: concentrated
// programs need many SharedLSQ entries, integer programs almost none,
// and 32x4 needs (far) fewer than 128x1.
func TestFigure3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	f := figBatch.Figure3(pressure, figInsts)
	occ := map[string]Figure3Row{}
	for _, r := range f.Rows {
		occ[r.Benchmark] = r
	}
	for _, conc := range []string{"ammp", "apsi", "art", "mgrid"} {
		if occ[conc].Occ64x2 < 4 {
			t.Errorf("%s 64x2 occupancy %.1f too low for a concentrated program", conc, occ[conc].Occ64x2)
		}
	}
	if occ["gzip"].Occ64x2 > 3 {
		t.Errorf("gzip 64x2 occupancy %.1f too high for an integer program", occ["gzip"].Occ64x2)
	}
	for _, r := range f.Rows {
		if r.Occ32x4 > r.Occ128x1+0.5 {
			t.Errorf("%s: 32x4 occupancy %.1f above 128x1 %.1f", r.Benchmark, r.Occ32x4, r.Occ128x1)
		}
	}
	if !strings.Contains(f.String(), "SPEC") {
		t.Error("rendering lost the SPEC average row")
	}
}

// TestFigure4Shape verifies that more SharedLSQ entries monotonically
// satisfy more programs, and that integer programs are satisfied with
// few entries.
func TestFigure4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	f := figBatch.Figure4(pressure, figInsts, []int{0, 4, 8, 16, 32})
	for i := 1; i < len(f.Programs); i++ {
		if f.Programs[i] < f.Programs[i-1] {
			t.Fatalf("program count not monotonic: %v", f.Programs)
		}
	}
	if need, ok := f.PerBench["gzip"]; !ok || need > 8 {
		t.Errorf("gzip needs %d SharedLSQ entries, want <= 8 (the paper's operating point)", need)
	}
	if f.Programs[len(f.Programs)-1] < len(pressure)-2 {
		t.Errorf("only %d of %d programs satisfied at 32 entries", f.Programs[len(f.Programs)-1], len(pressure))
	}
}

// TestFigure1Shape verifies the ARB trade-off of Figure 1: light
// banking keeps IPC near the unbounded LSQ, extreme banking loses
// substantially, and halving the in-flight cap hurts everywhere.
func TestFigure1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	f := figBatch.Figure1([]string{"facerec", "fma3d", "swim", "gzip"}, figInsts)
	first, last := f.Rows[0], f.Rows[len(f.Rows)-1]
	if first.RelIPC < 0.90 {
		t.Errorf("1x128 ARB keeps only %.1f%% of unbounded IPC", first.RelIPC*100)
	}
	if last.RelIPC > first.RelIPC {
		t.Errorf("128x1 (%.3f) should not beat 1x128 (%.3f)", last.RelIPC, first.RelIPC)
	}
	for _, r := range f.Rows {
		if r.RelIPCHalf > r.RelIPC+0.02 {
			t.Errorf("%dx%d: half cap (%.3f) beats full cap (%.3f)",
				r.Config.Banks, r.Config.Addrs, r.RelIPCHalf, r.RelIPC)
		}
	}
}

// TestTableHarnesses exercises the Table 1 / delay / Tables 4-6
// harnesses (static, no simulation).
func TestTableHarnesses(t *testing.T) {
	t1 := Table1()
	if len(t1.Rows) != 8 {
		t.Fatalf("Table 1 rows = %d", len(t1.Rows))
	}
	for _, r := range t1.Rows {
		if r.ModelImprovement < -1e-9 {
			t.Errorf("%dKB %dw %dp: negative improvement", r.SizeKB, r.Ways, r.Ports)
		}
	}
	d := Delays()
	for _, r := range d.Rows {
		if r.Model <= 0 || r.Paper <= 0 {
			t.Errorf("%s: non-positive delay", r.Structure)
		}
	}
	if !strings.Contains(Tables456().String(), "Table 5") {
		t.Error("Tables456 rendering broken")
	}
}
