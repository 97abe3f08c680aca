package samielsq_test

import (
	"strings"
	"testing"

	"samielsq"
)

func TestBenchmarksList(t *testing.T) {
	bs := samielsq.Benchmarks()
	if len(bs) != 26 {
		t.Fatalf("suite has %d programs, want 26", len(bs))
	}
	if _, err := samielsq.BenchmarkPersonality("swim"); err != nil {
		t.Fatal(err)
	}
	if _, err := samielsq.BenchmarkPersonality("nope"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestCompareHeadlines(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	r := samielsq.Compare("swim", 50_000)
	if r.IPCLossPct > 5 {
		t.Errorf("swim IPC loss %.2f%% too high", r.IPCLossPct)
	}
	if r.LSQSavingPct < 40 {
		t.Errorf("LSQ saving %.1f%% too low", r.LSQSavingPct)
	}
	if r.DcacheSavingPct < 15 {
		t.Errorf("Dcache saving %.1f%% too low", r.DcacheSavingPct)
	}
	if r.DTLBSavingPct < 30 {
		t.Errorf("DTLB saving %.1f%% too low", r.DTLBSavingPct)
	}
}

func TestStaticArtefacts(t *testing.T) {
	t1 := samielsq.Table1()
	if len(t1.Rows) != 8 {
		t.Fatalf("Table 1 rows = %d", len(t1.Rows))
	}
	if !strings.Contains(t1.String(), "8KB") {
		t.Fatal("Table 1 rendering broken")
	}
	d := samielsq.Delays()
	if len(d.Rows) < 6 || !strings.Contains(d.String(), "SharedLSQ") {
		t.Fatal("delay analysis broken")
	}
	if !strings.Contains(samielsq.Tables456(), "452") {
		t.Fatal("Tables 4/5/6 rendering broken")
	}
}
