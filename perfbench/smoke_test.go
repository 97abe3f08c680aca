package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// The smoke test runs every workload at its minimum size (one matrix
// pass, one request round) and checks that the output names exactly the
// metrics BENCHMARK.json declares, with no failed operation.
//
//	cd perfbench && go test .

const specPath = "../BENCHMARK.json"

func declared(t *testing.T) (e2e, layer []string) {
	t.Helper()
	data, err := os.ReadFile(specPath)
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, m.Name)
	}
	return e2e, layer
}

func checkResult(t *testing.T, r result, want []string) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	}
	var got []string
	for name := range r.Metrics {
		got = append(got, name)
	}
	sort.Strings(got)
	want = append([]string(nil), want...)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("got %d metrics %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("metric %q emitted, %q declared", got[i], want[i])
		}
	}
}

func TestEveryWorkloadEmitsEndToEndMetrics(t *testing.T) {
	e2e, _ := declared(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := run(specPath, w.name, 1, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, r, e2e)
			for name, m := range r.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v, end-to-end metrics must be positive", name, m.Value)
				}
			}
		})
	}
}

// A traced run executes both workloads and the golden cluster sweep,
// which fails an operation unless it reproduces the golden suite with
// exactly 148 simulations, so one run covers every per-layer metric;
// the modelled-hardware counts must repeat exactly.
func TestTracedRunEmitsPerLayerMetrics(t *testing.T) {
	_, layer := declared(t)
	var counts map[string]float64
	for _, seed := range []int64{1, 2} {
		r, err := run(specPath, "core-matrix", seed, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		checkResult(t, r, layer)
		if got := r.Metrics["engine.executed"].Value; got == 0 {
			t.Errorf("engine.executed = 0: the serve-zipf segment did not fill the engine metrics")
		}
		fp := map[string]float64{}
		for _, name := range layer {
			if strings.HasPrefix(name, "sim.") || strings.HasPrefix(name, "samie.") || strings.HasPrefix(name, "energy.") {
				fp[name] = r.Metrics[name].Value
			}
		}
		if counts != nil {
			for name, v := range fp {
				if counts[name] != v {
					t.Errorf("%s = %v with seed %d, %v with seed 1", name, v, seed, counts[name])
				}
			}
		}
		counts = fp
	}
}

// cluster-sweep is a traced-only segment, not a workload.
func TestUnknownWorkloadFails(t *testing.T) {
	for _, name := range []string{"no-such-workload", "cluster-sweep"} {
		if _, err := run(specPath, name, 1, 0, false); err == nil {
			t.Errorf("workload %q accepted", name)
		}
	}
}
