package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer: name, start,
// end and the span that caused it. Spans live in memory until the run
// ends and are written out in one file.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory span buffer; later spans are counted
// as dropped.
const maxSpans = 1 << 19

type tracer struct {
	t0      time.Time
	nextID  atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a span in progress; the zero value (from a nil tracer)
// records nothing.
type openSpan struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	start  time.Time
}

// begin opens a span under parent (0 for a root). On a nil tracer it
// costs a nil check.
func (t *tracer) begin(name string, parent int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{t: t, id: t.nextID.Add(1), parent: parent, name: name, start: time.Now()}
}

// end closes the span.
func (s openSpan) end() {
	if s.t == nil {
		return
	}
	now := time.Now()
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{ID: s.id, Parent: s.parent, Name: s.name,
		Start: s.start.Sub(t.t0).Nanoseconds(), End: now.Sub(t.t0).Nanoseconds()})
}

// callStats summarizes every span of one name. Self time is a span's
// duration minus the part its child spans cover.
type callStats struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
	P50Ms  float64 `json:"p50_ms"`
}

// write stores the spans and their per-name summary as JSON.
func (t *tracer) write(path, workload string, seed int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := map[int64]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	durs := map[string][]float64{}
	calls := map[string]*callStats{}
	for _, s := range t.spans {
		c := calls[s.Name]
		if c == nil {
			c = &callStats{}
			calls[s.Name] = c
		}
		d := s.End - s.Start
		c.Count++
		c.TotalS += float64(d) / 1e9
		c.SelfS += float64(d-child[s.ID]) / 1e9
		durs[s.Name] = append(durs[s.Name], float64(d)/1e6)
	}
	for name, c := range calls {
		c.P50Ms = quantile(durs[name], 0.5)
	}
	doc := struct {
		Workload string                `json:"workload"`
		Seed     int64                 `json:"seed"`
		Dropped  int64                 `json:"dropped"`
		Calls    map[string]*callStats `json:"calls"`
		Spans    []span                `json:"spans"`
	}{workload, seed, t.dropped, calls, t.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// profPackages are the packages whose CPU-sample share is reported as
// prof.<name>. runtime covers the Go runtime (allocation, GC,
// scheduling).
var profPackages = []string{"cpu", "lsq", "core", "energy", "trace", "cache", "tlb", "mem", "bpred", "obs", "runtime"}

// startProfile begins a CPU profile into path; the returned function
// stops it and returns the per-package flat sample shares, bucketed
// from `go tool pprof -top`.
func startProfile(path string) (func() (map[string]float64, error), error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() (map[string]float64, error) {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return nil, err
		}
		return profileShares(path)
	}, nil
}

// profileShares sums the flat% column of `go tool pprof -top` by the
// package each function belongs to.
func profileShares(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	shares := map[string]float64{}
	for _, p := range profPackages {
		shares[p] = 0
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			continue
		}
		pkg := packageOf(strings.Join(f[5:], " "))
		if _, ok := shares[pkg]; ok {
			shares[pkg] += pct / 100
		}
	}
	return shares, sc.Err()
}

// packageOf maps a pprof function name to the bucket it counts toward:
// the last element of a samielsq/internal import path, or "runtime"
// for the Go runtime and its internal packages.
func packageOf(fn string) string {
	path := fn
	if i := strings.LastIndex(path, "/"); i >= 0 {
		if j := strings.Index(path[i:], "."); j >= 0 {
			path = path[:i+j]
		}
	} else if j := strings.Index(path, "."); j >= 0 {
		path = path[:j]
	}
	switch {
	case path == "runtime" || strings.HasPrefix(path, "runtime/") || strings.HasPrefix(path, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(path, "samielsq/internal/"):
		return strings.TrimPrefix(path, "samielsq/internal/")
	}
	return ""
}

// quantile returns the q-th quantile of xs by linear interpolation
// between order statistics; 0 for no samples. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
