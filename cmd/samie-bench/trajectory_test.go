package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTrajectoryRenderPinned holds the -trajectory render of the
// checked-in BENCH_e2e.json to testdata/trajectory.txt, so an edit to
// the recorded pairs or to the chain-linking shows up as a diff.
// UPDATE_GOLDEN=1 rewrites the file.
func TestTrajectoryRenderPinned(t *testing.T) {
	f, err := readE2EFile("../../BENCH_e2e.json")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	renderTrajectory(&got, f)
	path := filepath.Join("testdata", "trajectory.txt")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing pin (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("trajectory render changed:\n got:\n%s\nwant:\n%s", got.String(), want)
	}
}

// TestTrajectoryFileMatchesBenchmark checks that BENCH_e2e.json names
// exactly BENCHMARK.json's end-to-end metrics and workloads, that
// every pair says which side ran first from PR 39 on, and that no PR
// is measured twice by one source.
func TestTrajectoryFileMatchesBenchmark(t *testing.T) {
	f, err := readE2EFile("../../BENCH_e2e.json")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []e2eMetric             `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	if len(f.Metrics) != len(bench.EndToEnd) {
		t.Fatalf("%d metrics, BENCHMARK.json has %d", len(f.Metrics), len(bench.EndToEnd))
	}
	for i, m := range bench.EndToEnd {
		if f.Metrics[i] != m {
			t.Errorf("metric %d is %+v, BENCHMARK.json has %+v", i, f.Metrics[i], m)
		}
	}
	workloads := map[string]bool{}
	for _, w := range bench.Workloads {
		workloads[w.Name] = true
	}
	seen := map[string]bool{}
	for _, e := range f.Entries {
		key := fmt.Sprint(e.PR, e.Source)
		if seen[key] {
			t.Errorf("PR %d has two %s entries", e.PR, e.Source)
		}
		seen[key] = true
		for _, w := range e.Workloads {
			if !workloads[w.Name] {
				t.Errorf("PR %d: unknown workload %q", e.PR, w.Name)
			}
			for _, p := range w.Pairs {
				if e.PR >= 39 && p.First != "parent" && p.First != "change" {
					t.Errorf("PR %d %s seed %d: first side %q", e.PR, w.Name, p.Seed, p.First)
				}
			}
		}
	}
}

// TestTrajectoryChainLinks checks the index on a small file: one link
// per merged PR, from its highest-ranked source, and none from a PR
// that was not merged.
func TestTrajectoryChainLinks(t *testing.T) {
	wl := func(parent, change float64) []e2eWorkload {
		return []e2eWorkload{{Name: "w", Medians: map[string][2]float64{"m": {parent, change}}}}
	}
	f := e2eFile{
		Schema:  1,
		Metrics: []e2eMetric{{Name: "m", Unit: "s", Better: "lower"}},
		Entries: []e2eEntry{
			{PR: 2, Source: "transcribed", Workloads: wl(1, 4)},
			{PR: 1, Source: "driver", Workloads: wl(2, 1)},
			{PR: 2, Source: "driver", Workloads: wl(1, 3)},
			{PR: 3, Source: "driver", NotMerged: true, Workloads: wl(1, 10)},
		},
	}
	var b strings.Builder
	renderTrajectory(&b, f)
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 6 {
		t.Fatalf("render has %d lines, want 6:\n%s", len(lines), b.String())
	}
	for i, want := range []string{"0.500", "1.500", "not linked", "not merged"} {
		if !strings.HasSuffix(lines[2+i], want) {
			t.Errorf("row %q does not end in %q", lines[2+i], want)
		}
	}
}

// TestTrajectoryMarksNoise checks the noise mark: a change median
// inside the parent's quartiles marks its factor, one outside them or
// without recorded quartiles does not, and a legend closes the render.
func TestTrajectoryMarksNoise(t *testing.T) {
	wl := func(change float64, q [2]float64) []e2eWorkload {
		w := e2eWorkload{Name: "w", Medians: map[string][2]float64{"m": {10, change}}}
		if q[1] > 0 {
			w.ParentQuartiles = map[string][2]float64{"m": q}
		}
		return []e2eWorkload{w}
	}
	f := e2eFile{
		Schema:  1,
		Metrics: []e2eMetric{{Name: "m", Unit: "s", Better: "lower"}},
		Entries: []e2eEntry{
			{PR: 1, Source: "measured", Workloads: wl(10.5, [2]float64{9, 11})},
			{PR: 2, Source: "measured", Workloads: wl(8, [2]float64{9, 11})},
			{PR: 3, Source: "measured", Workloads: wl(10.5, [2]float64{})},
		},
	}
	var b strings.Builder
	renderTrajectory(&b, f)
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 6 {
		t.Fatalf("render has %d lines, want 6:\n%s", len(lines), b.String())
	}
	for i, want := range []string{"1.050" + noiseMark, "0.800 ", "1.050 "} {
		if !strings.Contains(lines[2+i], want) {
			t.Errorf("row %q does not contain %q", lines[2+i], want)
		}
	}
	if !strings.HasPrefix(lines[5], noiseMark+" ") {
		t.Errorf("render does not close with the legend: %q", lines[5])
	}
}
