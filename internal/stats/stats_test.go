package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	var m Mean
	if m.Value() != 0 {
		t.Fatal("empty mean should be 0")
	}
	m.Observe(2)
	m.Observe(4)
	if m.Value() != 3 {
		t.Fatalf("mean = %v, want 3", m.Value())
	}
	m.Observe(10)
	m.Observe(10)
	// Samples: 2, 4, 10, 10.
	if m.Value() != 6.5 {
		t.Fatalf("mean = %v, want 6.5", m.Value())
	}
	if m.Count() != 4 {
		t.Fatalf("count = %d, want 4", m.Count())
	}
	if m.Sum() != 26 {
		t.Fatalf("sum = %v, want 26", m.Sum())
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(8)
	for v := 0; v < 8; v++ {
		h.Observe(v)
	}
	if h.Total() != 8 {
		t.Fatalf("total = %d", h.Total())
	}
	if h.Mean() != 3.5 {
		t.Fatalf("mean = %v, want 3.5", h.Mean())
	}
	if got := h.Bucket(3); got != 1 {
		t.Fatalf("bucket(3) = %d, want 1", got)
	}
	if got := h.Bucket(100); got != 0 {
		t.Fatalf("bucket(100) = %d, want 0", got)
	}
}

func TestHistogramClamping(t *testing.T) {
	h := NewHistogram(4)
	h.Observe(-5)
	h.Observe(100)
	if h.Bucket(0) != 1 || h.Bucket(3) != 1 {
		t.Fatalf("clamping failed: %d %d", h.Bucket(0), h.Bucket(3))
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(10)
	for i := 0; i < 100; i++ {
		h.Observe(i % 10)
	}
	if q := h.Quantile(0.5); q != 4 {
		t.Fatalf("median = %d, want 4", q)
	}
	if q := h.Quantile(1.0); q != 9 {
		t.Fatalf("p100 = %d, want 9", q)
	}
	if q := h.Quantile(0); q != 0 {
		t.Fatalf("p0 = %d, want 0", q)
	}
}

func TestHistogramQuantileMonotonic(t *testing.T) {
	// Property: quantile is monotonically non-decreasing in q.
	f := func(vals []uint8) bool {
		h := NewHistogram(32)
		for _, v := range vals {
			h.Observe(int(v) % 32)
		}
		prev := -1
		for q := 0.0; q <= 1.0; q += 0.05 {
			cur := h.Quantile(q)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

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
