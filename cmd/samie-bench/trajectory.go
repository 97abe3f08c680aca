package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// The -trajectory mode renders BENCH_e2e.json: the end-to-end perfbench
// medians of each measured PR, parent tree against change tree on one
// runner. Absolute numbers from different runners do not compare, but
// a pair's change/parent ratio does, and the product of the ratios is a
// chain-linked index of each metric since the first recorded PR.

// e2eFile is the BENCH_e2e.json layout. Metrics lists BENCHMARK.json's
// end-to-end metrics in its order; entries are ordered by PR.
type e2eFile struct {
	Schema  int         `json:"schema"`
	Metrics []e2eMetric `json:"metrics"`
	Entries []e2eEntry  `json:"entries"`
}

type e2eMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "higher" or "lower"
}

// e2eEntry is one PR's pairs from one source:
//
//   - "driver": the benchmark driver's medians over its own pairs;
//   - "measured": pairs run for the PR and listed with it;
//   - "transcribed": medians quoted in the PR's CHANGES.md line.
//
// A PR that was not merged keeps its entry but joins no chain.
type e2eEntry struct {
	PR        int           `json:"pr"`
	Title     string        `json:"title"`
	Source    string        `json:"source"`
	NotMerged bool          `json:"not_merged,omitempty"`
	Notes     string        `json:"notes,omitempty"`
	Workloads []e2eWorkload `json:"workloads"`
}

// e2eWorkload holds one workload's pairs and, per metric, the medians
// of the parent and the change runs. Factors holds change/parent for a
// metric whose source quotes only the ratio. ParentQuartiles holds the
// lower and upper quartile of the parent's runs, where they were kept.
type e2eWorkload struct {
	Name            string                `json:"name"`
	Seconds         float64               `json:"seconds,omitempty"` // measurement window of each run
	Pairs           []e2ePair             `json:"pairs,omitempty"`
	Medians         map[string][2]float64 `json:"medians,omitempty"`
	ParentQuartiles map[string][2]float64 `json:"parent_quartiles,omitempty"`
	Factors         map[string]float64    `json:"factors,omitempty"`
}

type e2ePair struct {
	Seed  int64  `json:"seed"`
	First string `json:"first,omitempty"` // "parent" or "change"; empty when the source does not say
}

// sourceRank orders the sources a PR's chain link is taken from.
var sourceRank = map[string]int{"driver": 0, "measured": 1, "transcribed": 2}

func readE2EFile(path string) (e2eFile, error) {
	var f e2eFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != 1 {
		return f, fmt.Errorf("%s: unsupported schema %d", path, f.Schema)
	}
	known := map[string]bool{}
	for _, m := range f.Metrics {
		known[m.Name] = true
	}
	for _, e := range f.Entries {
		if _, ok := sourceRank[e.Source]; !ok {
			return f, fmt.Errorf("%s: PR %d: unknown source %q", path, e.PR, e.Source)
		}
		for _, w := range e.Workloads {
			for name, v := range w.Medians {
				if !known[name] || v[0] <= 0 || v[1] <= 0 {
					return f, fmt.Errorf("%s: PR %d %s: bad median %s %v", path, e.PR, w.Name, name, v)
				}
			}
			for name, v := range w.Factors {
				if !known[name] || v <= 0 {
					return f, fmt.Errorf("%s: PR %d %s: bad factor %s %v", path, e.PR, w.Name, name, v)
				}
			}
			for name, q := range w.ParentQuartiles {
				if _, ok := w.Medians[name]; !ok || q[0] <= 0 || q[0] > q[1] {
					return f, fmt.Errorf("%s: PR %d %s: bad parent quartiles %s %v", path, e.PR, w.Name, name, q)
				}
			}
		}
	}
	return f, nil
}

// trajectoryRow is one entry's reading of one metric.
type trajectoryRow struct {
	e              *e2eEntry
	parent, change float64 // 0 when only the factor is recorded
	factor         float64
	inNoise        bool // the change median lies inside the parent's quartiles
}

// noiseMark follows a factor whose change median lies inside the
// parent runs' quartiles: a move the pairs do not resolve.
const noiseMark = "~"

// renderTrajectory writes, per workload and metric, every entry's
// parent and change medians and their ratio, and the chain-linked
// index: the product of one ratio per merged PR, taken from its
// highest-ranked source. A factor inside the parent's quartiles
// carries noiseMark, explained in a closing legend.
func renderTrajectory(w io.Writer, f e2eFile) {
	var workloads []string
	seen := map[string]bool{}
	marked := false
	for _, e := range f.Entries {
		for _, wl := range e.Workloads {
			if !seen[wl.Name] {
				seen[wl.Name] = true
				workloads = append(workloads, wl.Name)
			}
		}
	}
	for _, wl := range workloads {
		for _, m := range f.Metrics {
			var rows []trajectoryRow
			for i := range f.Entries {
				e := &f.Entries[i]
				for _, x := range e.Workloads {
					if x.Name != wl {
						continue
					}
					if v, ok := x.Medians[m.Name]; ok {
						q, ok := x.ParentQuartiles[m.Name]
						rows = append(rows, trajectoryRow{e, v[0], v[1], v[1] / v[0], ok && q[0] <= v[1] && v[1] <= q[1]})
					} else if k, ok := x.Factors[m.Name]; ok {
						rows = append(rows, trajectoryRow{e, 0, 0, k, false})
					}
				}
			}
			if len(rows) == 0 {
				continue
			}
			sort.SliceStable(rows, func(i, j int) bool {
				a, b := rows[i].e, rows[j].e
				if a.PR != b.PR {
					return a.PR < b.PR
				}
				return sourceRank[a.Source] < sourceRank[b.Source]
			})
			fmt.Fprintf(w, "%s %s (%s, %s is better)\n", wl, m.Name, m.Unit, m.Better)
			fmt.Fprintf(w, "  %4s  %-11s  %11s  %11s  %7s  %s\n", "PR", "source", "parent", "change", "factor", "index")
			index, linked := 1.0, map[int]bool{}
			for _, r := range rows {
				parent, change := "-", "-"
				if r.parent > 0 {
					parent, change = fmt.Sprintf("%.4g", r.parent), fmt.Sprintf("%.4g", r.change)
				}
				var note string
				switch {
				case r.e.NotMerged:
					note = "not merged"
				case linked[r.e.PR]:
					note = "not linked"
				default:
					linked[r.e.PR] = true
					index *= r.factor
					note = fmt.Sprintf("%.3f", index)
				}
				mark := " "
				if r.inNoise {
					mark, marked = noiseMark, true
				}
				fmt.Fprintf(w, "  %4d  %-11s  %11s  %11s  %7.3f%s %s\n", r.e.PR, r.e.Source, parent, change, r.factor, mark, note)
			}
		}
	}
	if marked {
		fmt.Fprintf(w, "%s after a factor: the change median lies inside the parent runs' quartiles\n", noiseMark)
	}
}
