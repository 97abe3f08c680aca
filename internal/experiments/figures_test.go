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

// figBatch is shared by every figure-shape test in this file: the
// Figure 4 sweep's 8-entry point, Figure 5/6 and the energy figures
// all need the same paper-config runs, so the batch simulates each of
// them once across the whole test binary.
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

// TestFigure56Shape verifies the Figure 5/6 story: small average IPC
// loss, gains for the high-pressure programs (facerec/fma3d), losses
// concentrated in the concentrated programs, and deadlocks essentially
// confined to them.
func TestFigure56Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	f := figBatch.Figure56(pressure, figInsts)
	rows := map[string]Figure56Row{}
	for _, r := range f.Rows {
		rows[r.Benchmark] = r
	}
	if m := f.MeanIPCLossPct(); m > 6 {
		t.Errorf("mean IPC loss %.2f%% too high (paper: 0.6%%)", m)
	}
	if rows["fma3d"].IPCLossPct > 1 {
		t.Errorf("fma3d should not lose IPC (got %+.2f%%)", rows["fma3d"].IPCLossPct)
	}
	if rows["facerec"].IPCLossPct > 2 {
		t.Errorf("facerec should be ~neutral or gain (got %+.2f%%)", rows["facerec"].IPCLossPct)
	}
	if rows["gzip"].IPCLossPct > 1 || rows["swim"].IPCLossPct > 1 {
		t.Errorf("well-behaved programs lose IPC: gzip %+.2f%% swim %+.2f%%",
			rows["gzip"].IPCLossPct, rows["swim"].IPCLossPct)
	}
	if rows["gzip"].DeadlocksPerM > 50 {
		t.Errorf("gzip deadlocks %.0f/Mcycle, want ~0", rows["gzip"].DeadlocksPerM)
	}
	if rows["ammp"].DeadlocksPerM < rows["gzip"].DeadlocksPerM {
		t.Error("ammp should deadlock more than gzip")
	}
}

// TestEnergyShape verifies the headline energy claims of §4.4-§4.5 on
// the representative subset: large LSQ savings, substantial Dcache and
// DTLB savings, active area in the same ballpark as the baseline.
func TestEnergyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	// A representative mix: the pressure programs alone understate the
	// savings because they are the paper's worst cases (Figure 8).
	suite := append([]string{"applu", "equake", "galgel", "wupwise", "crafty", "gcc", "vortex", "parser"}, pressure...)
	e := figBatch.Energy(suite, figInsts)
	if s := e.LSQSavings(); s < 0.45 {
		t.Errorf("LSQ savings %.1f%% too low (paper 82%%)", s*100)
	}
	if s := e.DcacheSavings(); s < 0.25 {
		t.Errorf("Dcache savings %.1f%% too low (paper 42%%)", s*100)
	}
	if s := e.DTLBSavings(); s < 0.45 {
		t.Errorf("DTLB savings %.1f%% too low (paper 73%%)", s*100)
	}
	if s := e.AreaSavings(); s < -0.5 || s > 0.6 {
		t.Errorf("area savings %.1f%% out of plausible band (paper ~5%%)", s*100)
	}
	rows := map[string]EnergyRow{}
	for _, r := range e.Rows {
		rows[r.Benchmark] = r
	}
	// Sharing drives the Dcache savings: mcf (lowest sharing in this
	// subset) must save less than swim (highest).
	mcf := 1 - rows["mcf"].SAMIEDcache/rows["mcf"].ConvDcache
	swim := 1 - rows["swim"].SAMIEDcache/rows["swim"].ConvDcache
	if mcf >= swim {
		t.Errorf("Dcache savings ordering wrong: mcf %.1f%% >= swim %.1f%%", mcf*100, swim*100)
	}
	// Every figure renders.
	for _, s := range []string{
		e.Figure7String(), e.Figure8String(), e.Figure9String(),
		e.Figure10String(), e.Figure11String(), e.Figure12String(),
	} {
		if len(s) == 0 {
			t.Fatal("empty figure rendering")
		}
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
