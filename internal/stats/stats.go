// Package stats provides lightweight statistics primitives: histograms,
// running means and the table formatting helpers of the experiment
// harnesses.
//
// All types are plain value-oriented structures without locking.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// Mean tracks a running arithmetic mean without storing samples.
type Mean struct {
	sum float64
	n   uint64
}

// Observe adds one sample.
func (m *Mean) Observe(v float64) {
	m.sum += v
	m.n++
}

// Value returns the mean of all samples, or 0 if none were observed.
func (m *Mean) Value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// Count returns the number of samples observed.
func (m *Mean) Count() uint64 { return m.n }

// Sum returns the raw sample sum.
func (m *Mean) Sum() float64 { return m.sum }

// Histogram is a fixed-bucket integer histogram over [0, len(buckets)).
// Values beyond the last bucket are clamped into it.
type Histogram struct {
	buckets []uint64
	total   uint64
}

// NewHistogram returns a histogram with n buckets for values 0..n-1.
func NewHistogram(n int) *Histogram {
	if n <= 0 {
		panic("stats: histogram needs at least one bucket")
	}
	return &Histogram{buckets: make([]uint64, n)}
}

// Observe records one occurrence of value v.
func (h *Histogram) Observe(v int) {
	if v < 0 {
		v = 0
	}
	if v >= len(h.buckets) {
		v = len(h.buckets) - 1
	}
	h.buckets[v]++
	h.total++
}

// Total returns the number of observations.
func (h *Histogram) Total() uint64 { return h.total }

// Bucket returns the count in bucket i.
func (h *Histogram) Bucket(i int) uint64 {
	if i < 0 || i >= len(h.buckets) {
		return 0
	}
	return h.buckets[i]
}

// Len returns the number of buckets.
func (h *Histogram) Len() int { return len(h.buckets) }

// Mean returns the histogram's mean value.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	var s float64
	for v, c := range h.buckets {
		s += float64(v) * float64(c)
	}
	return s / float64(h.total)
}

// Quantile returns the smallest value v such that at least q (0..1) of
// the observations are <= v.
func (h *Histogram) Quantile(q float64) int {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	need := uint64(math.Ceil(q * float64(h.total)))
	var acc uint64
	for v, c := range h.buckets {
		acc += c
		if acc >= need {
			return v
		}
	}
	return len(h.buckets) - 1
}

// Table is a simple column-aligned text table used by the experiment
// harnesses to print paper-style rows.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with aligned columns.
//
//samie:deterministic
func (t *Table) String() string {
	width := make([]int, len(t.header))
	for i, h := range t.header {
		width[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// FormatFloat renders a float with a sensible number of digits for
// table output.
//
//samie:deterministic
func FormatFloat(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// Percent formats a ratio as a percentage string, e.g. 0.123 -> "12.3%".
func Percent(ratio float64) string {
	return fmt.Sprintf("%.1f%%", ratio*100)
}

// GeoMean returns the geometric mean of vs; zero or negative samples
// are ignored (matching how IPC ratios are aggregated).
func GeoMean(vs []float64) float64 {
	var logSum float64
	var n int
	for _, v := range vs {
		if v > 0 {
			logSum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// ArithMean returns the arithmetic mean of vs (0 for empty input).
func ArithMean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}
