package experiments

import (
	"context"
	"math"
	"strings"
	"testing"
)

// TestClaims renders the claims row over all 26 programs and fails on
// any claim the reproduction contradicts, or cannot read.
func TestClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	row, ok := LookupFigure("claims")
	if !ok {
		t.Fatal("the figure table has no claims row")
	}
	v, err := row.Run(context.Background(), figBatch, Benchmarks(), figInsts)
	if err != nil {
		t.Fatal(err)
	}
	res := v.(ClaimsResult)
	if len(res.Rows) != len(claims) {
		t.Fatalf("rendered %d claims, the ledger holds %d", len(res.Rows), len(claims))
	}
	for _, r := range res.Rows {
		if r.Status == ClaimContradict || r.Status == ClaimNA {
			t.Errorf("%s %s: reproduced %s against bound %s: %s", r.ID, r.Claim, r.Reproduced, r.Bound, r.Status)
		}
	}
	t.Logf("\n%s", res)
}

// TestClaimsStatus rates synthetic values: each band's edges, a value
// just past each bound (which TestClaims would fail on), and the
// strict ends of the ordering claims.
func TestClaimsStatus(t *testing.T) {
	byID := map[string]claim{}
	for _, c := range claims {
		if byID[c.id].id != "" {
			t.Fatalf("duplicate claim ID %s", c.id)
		}
		byID[c.id] = c
	}
	for _, tc := range []struct {
		id   string
		v    float64
		want string
	}{
		{"C00001", 0, ClaimMatch},
		{"C00001", 1.2, ClaimMatch},
		{"C00001", 1.21, ClaimDrift},
		{"C00001", -0.01, ClaimDrift},
		{"C00001", 6, ClaimDrift},
		{"C00001", 6.01, ClaimContradict},
		{"C00002", 0.82, ClaimMatch},
		{"C00002", 0.76, ClaimDrift},
		{"C00002", 0.45, ClaimDrift},
		{"C00002", 0.449, ClaimContradict},
		{"C00003", 0.37, ClaimMatch},
		{"C00003", 0.25, ClaimDrift},
		{"C00003", 0.249, ClaimContradict},
		{"C00004", 0.78, ClaimMatch},
		{"C00004", 0.45, ClaimDrift},
		{"C00004", 0.449, ClaimContradict},
		{"C00005", 0.05, ClaimMatch},
		{"C00005", -0.5, ClaimDrift},
		{"C00005", -0.501, ClaimContradict},
		{"C00005", 0.6, ClaimDrift},
		{"C00005", 0.601, ClaimContradict},
		{"C00006", -3, ClaimMatch},
		{"C00006", 1, ClaimDrift},
		{"C00006", 1.01, ClaimContradict},
		{"C00007", 2, ClaimDrift},
		{"C00007", 2.01, ClaimContradict},
		{"C00008", 0, ClaimMatch},
		{"C00008", 1.01, ClaimContradict},
		{"C00009", 0.5, ClaimDrift},
		{"C00009", 1.01, ClaimContradict},
		{"C00010", 1, ClaimMatch},
		{"C00010", 50, ClaimDrift},
		{"C00010", 50.1, ClaimContradict},
		{"C00011", 1, ClaimMatch},
		{"C00011", 0, ClaimDrift}, // ammp deadlocks as often as gzip
		{"C00011", -1, ClaimContradict},
		{"C00012", -0.01, ClaimMatch},
		{"C00012", 0, ClaimContradict}, // mcf saves as much as swim
	} {
		c, ok := byID[tc.id]
		if !ok {
			t.Fatalf("no claim %s", tc.id)
		}
		if got := c.status(tc.v); got != tc.want {
			t.Errorf("%s (%s) at %v: %s, want %s", tc.id, c.text, tc.v, got, tc.want)
		}
	}
	// Every finite end of a bound rates by its strictness, and the
	// nearest value outside it contradicts; a match band lies inside
	// its bound.
	for _, c := range claims {
		for _, end := range []struct{ at, out float64 }{
			{c.bound.lo, math.Inf(-1)}, {c.bound.hi, math.Inf(1)},
		} {
			if math.IsInf(end.at, 0) {
				continue
			}
			if got := c.status(end.at); (got == ClaimContradict) != c.bound.strict {
				t.Errorf("%s at its bound's end %v: %s", c.id, end.at, got)
			}
			if got := c.status(math.Nextafter(end.at, end.out)); got != ClaimContradict {
				t.Errorf("%s just past its bound's end %v: %s, want contradict", c.id, end.at, got)
			}
		}
		if c.match.lo < c.bound.lo || c.match.hi > c.bound.hi {
			t.Errorf("%s: match band %s reaches outside bound %s", c.id, c.match.format(c.m.unit), c.bound.format(c.m.unit))
		}
	}
}

// TestClaimsRead rates a synthetic pair: suite-wide claims read every
// program, a claim whose programs are absent is n/a, and a value past
// a bound reads as contradict.
func TestClaimsRead(t *testing.T) {
	// One synthetic program: its IPC loss, deadlocks/Mcycle, and SAMIE
	// Dcache energy per unit of conventional.
	type prog struct {
		b                string
		loss, dl, dcache float64
	}
	pair := func(progs ...prog) (Figure56Result, EnergyResult) {
		f, e := Figure56Result{Insts: 1000}, EnergyResult{Insts: 1000}
		for _, p := range progs {
			f.Rows = append(f.Rows, Figure56Row{Benchmark: p.b, ConvIPC: 1, SAMIEIPC: 1 - p.loss/100, IPCLossPct: p.loss, DeadlocksPerM: p.dl})
			e.Rows = append(e.Rows, EnergyRow{Benchmark: p.b, ConvLSQ: 10, SAMIELSQ: 2, ConvDcache: 1, SAMIEDcache: p.dcache,
				ConvDTLB: 10, SAMIEDTLB: 3, ConvArea: 100, SAMIEArea: 95})
		}
		return f, e
	}
	status := func(res ClaimsResult) map[string]string {
		m := map[string]string{}
		for _, r := range res.Rows {
			m[r.ID] = r.Status
		}
		return m
	}

	// gzip alone: the per-program claims on other programs are n/a.
	res := Claims(pair(prog{"gzip", 0, 0, 0.7}))
	got := status(res)
	for id, want := range map[string]string{
		"C00001": ClaimMatch, "C00002": ClaimMatch, "C00003": ClaimDrift, "C00004": ClaimMatch, "C00005": ClaimMatch,
		"C00006": ClaimNA, "C00007": ClaimNA, "C00008": ClaimMatch, "C00009": ClaimNA,
		"C00010": ClaimMatch, "C00011": ClaimNA, "C00012": ClaimNA,
	} {
		if got[id] != want {
			t.Errorf("gzip alone: %s reads %s, want %s", id, got[id], want)
		}
	}
	if s := res.String(); !strings.Contains(s, "over 1 programs (1000 instructions)") || !strings.Contains(s, "n/a") {
		t.Errorf("rendering lost the caption or the n/a rows:\n%s", s)
	}

	// Every named program present, each past its bound.
	res = Claims(pair(
		prog{"ammp", 20, 0, 0.5},
		prog{"gzip", 1.5, 60, 0.5},
		prog{"mcf", 20, 0, 0.5},
		prog{"swim", 1.5, 0, 0.5},
		prog{"fma3d", 1.5, 0, 0.5},
		prog{"facerec", 2.5, 0, 0.5},
	))
	got = status(res)
	for _, id := range []string{"C00001", "C00006", "C00007", "C00008", "C00009", "C00010", "C00011", "C00012"} {
		if got[id] != ClaimContradict {
			t.Errorf("all past their bounds: %s reads %s, want contradict", id, got[id])
		}
	}
	for _, r := range res.Rows {
		if r.ID == "C00011" && r.Reproduced != "0 vs 60" {
			t.Errorf("ordering reproduced %q, want both programs' values", r.Reproduced)
		}
	}

	// No programs: every claim is n/a.
	for _, r := range Claims(Figure56Result{}, EnergyResult{}).Rows {
		if r.Status != ClaimNA || r.Reproduced != "-" {
			t.Errorf("empty pair: %s reads %s %q", r.ID, r.Status, r.Reproduced)
		}
	}
}

// TestClaimsRequestNoNewSpecs: the claims row reads the pair Figures
// 5-12 already request, so it adds nothing to the suite's specs.
func TestClaimsRequestNoNewSpecs(t *testing.T) {
	row, _ := LookupFigure("claims")
	var others []Figure
	for _, f := range Figures() {
		if f.Name != "claims" {
			others = append(others, f)
		}
	}
	for _, insts := range []uint64{2_000, goldenInsts} {
		planned := map[string]bool{}
		for _, s := range FigureSpecs(others, goldenBenchmarks, insts) {
			planned[Key(s)] = true
		}
		specs := FigureSpecs([]Figure{row}, goldenBenchmarks, insts)
		if len(specs) != 2*len(goldenBenchmarks) {
			t.Errorf("claims row plans %d specs at %d, want the %d of the pair", len(specs), insts, 2*len(goldenBenchmarks))
		}
		for _, s := range specs {
			if !planned[Key(s)] {
				t.Errorf("claims row requests %s, which no other paper row does", Key(s))
			}
		}
	}
}
