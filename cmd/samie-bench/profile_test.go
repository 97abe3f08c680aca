package main

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// recordedPairs returns the parent/change session pairs the bench
// trajectory records: every session measured on a parent tree (its
// label starts "before " or "pre-") with the session after it.
func recordedPairs(t *testing.T) []sessionPair {
	t.Helper()
	f, err := readBenchFile("../../BENCH_hotpath.json")
	if err != nil {
		t.Fatal(err)
	}
	var pairs []sessionPair
	for i := 0; i+1 < len(f.History); i++ {
		if l := f.History[i].Label; strings.HasPrefix(l, "before ") || strings.HasPrefix(l, "pre-") {
			pairs = append(pairs, sessionPair{f.History[i], f.History[i+1]})
		}
	}
	return pairs
}

// scaled returns e with every case's throughput multiplied by k.
func scaled(e benchEntry, k float64) benchEntry {
	out := e
	out.Cases = make([]benchCase, len(e.Cases))
	for i, c := range e.Cases {
		out.Cases[i] = benchCase{Name: c.Name, InstsPerSec: c.InstsPerSec * k}
	}
	return out
}

// TestGateOnRecordedPairs holds the throughput gate to the trajectory:
// it passes every recorded parent/change pair, whose per-case ratios
// swing from 0.68x to 4.8x, and fails each pair's change session
// scaled to read 0.80x its parent's in the geometric mean, with that
// session's own per-case noise kept.
func TestGateOnRecordedPairs(t *testing.T) {
	pairs := recordedPairs(t)
	if len(pairs) < 8 {
		t.Fatalf("found %d recorded pairs, want at least 8", len(pairs))
	}
	for _, p := range pairs {
		name := p.change.Label
		if f := compareBaseline([]sessionPair{p}, 0.10); len(f) > 0 {
			t.Errorf("%s: recorded pair fails the gate: %v", name, f)
		}
		geo := math.Exp(meanLog(logRatios(p.base, p.change)))
		slow := scaled(p.change, 0.80/geo)
		if f := compareBaseline([]sessionPair{{p.base, slow}}, 0.10); len(f) == 0 {
			t.Errorf("%s: a change at 0.80x its parent passes the gate", name)
		}
	}
}

// session builds a profile session of ten cases at 1e6·k[i] insts/s
// (k shorter than ten repeats its last value).
func session(k ...float64) benchEntry {
	e := benchEntry{Label: "synthetic"}
	for i := 0; i < 10; i++ {
		f := k[min(i, len(k)-1)]
		e.Cases = append(e.Cases, benchCase{Name: fmt.Sprintf("case%d", i), InstsPerSec: 1e6 * f})
	}
	return e
}

// TestGateInterleavedPairs pins the two rules over several pairs: one
// case fails only if it regresses in every pair, and the A/A spread of
// the baseline sessions widens the geometric-mean bound.
func TestGateInterleavedPairs(t *testing.T) {
	base := []benchEntry{session(1), session(1.02), session(0.99)}
	pairsOf := func(change ...benchEntry) []sessionPair {
		var p []sessionPair
		for i := range change {
			p = append(p, sessionPair{base[i], change[i]})
		}
		return p
	}
	for _, tc := range []struct {
		name  string
		pairs []sessionPair
		n     int    // failures expected
		first string // a substring of the first one
	}{
		{"no change", pairsOf(session(1), session(1), session(1)), 0, ""},
		{"one case slower in every pair", pairsOf(session(0.6, 1), session(0.6, 1), session(0.6, 1)), 1, "case0: below its bound in all 3 pairs"},
		{"one case slower in two of three pairs", pairsOf(session(0.6, 1), session(0.6, 1), session(1)), 0, ""},
		{"everything 15% slower", pairsOf(session(0.85), session(0.85), session(0.85)), 11, "geometric-mean throughput 15.3% below"},
	} {
		got := compareBaseline(tc.pairs, 0.10)
		if len(got) != tc.n || tc.n > 0 && !strings.Contains(got[0], tc.first) {
			t.Errorf("%s: failures %q, want %d, the first containing %q", tc.name, got, tc.n, tc.first)
		}
	}
	// A noisy runner: baseline sessions 20% apart widen the bound, so
	// the same 15% reading is within the noise.
	noisy := []sessionPair{{session(1), session(0.85)}, {session(1.2), session(1.02)}}
	if f := compareBaseline(noisy, 0.10); len(f) != 0 {
		t.Errorf("15%% below over baselines 20%% apart: %v", f)
	}
	if _, err := interleavedPairs(benchFile{History: base}); err == nil {
		t.Error("an odd number of sessions split into pairs")
	}
}
