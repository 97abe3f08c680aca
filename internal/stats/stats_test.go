package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "value")
	tb.AddRow("x", 1.5)
	tb.AddRow("longer-name", "str")
	out := tb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "name") || !strings.Contains(lines[0], "value") {
		t.Fatalf("header missing: %q", lines[0])
	}
	// Columns align: all lines the same displayed prefix width for col 0.
	if !strings.HasPrefix(lines[3], "longer-name") {
		t.Fatalf("row = %q", lines[3])
	}
}

func TestFormatFloat(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{3, "3"},
		{1234.5, "1234.5"},
		{3.14159, "3.142"},
		{0.01234, "0.0123"},
	}
	for _, c := range cases {
		if got := FormatFloat(c.in); got != c.want {
			t.Errorf("FormatFloat(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestPercent(t *testing.T) {
	if got := Percent(0.123); got != "12.3%" {
		t.Fatalf("Percent = %q", got)
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{1, 4}); math.Abs(g-2) > 1e-12 {
		t.Fatalf("geomean(1,4) = %v", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Fatalf("geomean(nil) = %v", g)
	}
	// Zero/negative samples are skipped.
	if g := GeoMean([]float64{0, -1, 9}); math.Abs(g-9) > 1e-12 {
		t.Fatalf("geomean with invalid samples = %v", g)
	}
}

func TestArithMean(t *testing.T) {
	if m := ArithMean([]float64{1, 2, 3}); m != 2 {
		t.Fatalf("mean = %v", m)
	}
	if m := ArithMean(nil); m != 0 {
		t.Fatalf("mean(nil) = %v", m)
	}
}

func TestGeoMeanBetweenMinMax(t *testing.T) {
	// Property: geometric mean lies within [min, max] of positive inputs.
	f := func(raw []float64) bool {
		var vs []float64
		for _, v := range raw {
			v = math.Abs(v)
			if v > 1e-9 && v < 1e9 {
				vs = append(vs, v)
			}
		}
		if len(vs) == 0 {
			return true
		}
		lo, hi := vs[0], vs[0]
		for _, v := range vs {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		g := GeoMean(vs)
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
