package server

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"samielsq/internal/experiments"
	"samielsq/internal/faultinject"
	"samielsq/internal/obs"
	"samielsq/pkg/client"
)

// statsSnapshot assembles the /v1/stats body; /metrics renders the
// same snapshot in Prometheus text form so the two never disagree.
func (s *Server) statsSnapshot() client.StatsResponse {
	return client.StatsResponse{
		Engine:         s.batch.Stats(),
		Disk:           s.batch.DiskStats(),
		Store:          s.batch.StoreStats(),
		DistinctRuns:   s.batch.DistinctRuns(),
		Workers:        s.batch.Workers(),
		MaxConcurrent:  cap(s.sem),
		InflightHTTP:   s.inflight.Load(),
		RequestsServed: s.served.Load(),
		Throttled:      s.throttled.Load(),
		ProbeHits:      s.probeHits.Load(),
		ProbeMisses:    s.probeMisses.Load(),
		SuiteSpecs:     s.suiteSpecs.Load(),
		CacheDir:       s.cfg.CacheDir,
		Preloaded:      s.cfg.Preloaded,
		UptimeSeconds:  time.Since(s.start).Seconds(),
		Goroutines:     runtime.NumGoroutine(),
		HeapBytes:      s.heapBytes(),
		RunPhases:      s.batch.PhaseStats(),
		Chaos:          s.chaosSnapshot(),
		TimelineStats:  s.batch.TimelineStats(),
		EnergyPJ:       s.batch.EnergyPJ(),
		TraceDropped:   s.rec.Dropped(),
	}
}

// metricsSnapshot is everything one /metrics scrape renders: the
// /v1/stats body plus the labeled HTTP accounting and chaos counters.
type metricsSnapshot struct {
	client.StatsResponse
	requests map[routeCode]int64
	latency  map[string]obs.HistSnapshot
	chaos    faultinject.Counts
}

// family is one /metrics family: its metadata, the label names its
// series carry, and a function yielding those series from one
// snapshot. The families table is the only list of what /metrics
// renders; the promnames analyzer in internal/lint checks each row's
// name, kind and labels.
type family struct {
	name, kind, help string
	labels           []string
	series           func(*metricsSnapshot) []sample
}

// sample is one series of a family: label values in the family's
// label order, and a scalar value or, for a histogram, its snapshot.
type sample struct {
	labels []string
	value  float64
	hist   obs.HistSnapshot
}

// scalar yields the single series of an unlabeled counter or gauge.
func scalar(v func(*metricsSnapshot) float64) func(*metricsSnapshot) []sample {
	return func(m *metricsSnapshot) []sample { return []sample{{value: v(m)}} }
}

// tierSeries yields one series per run-store tier.
func tierSeries(v func(experiments.TierStats) int64) func(*metricsSnapshot) []sample {
	return func(m *metricsSnapshot) []sample {
		return []sample{
			{labels: []string{"mem"}, value: float64(v(m.Store.Mem))},
			{labels: []string{"disk"}, value: float64(v(m.Store.Disk))},
			{labels: []string{"peer"}, value: float64(v(m.Store.Peer))},
		}
	}
}

// families is the /metrics exposition (format version 0.0.4), in
// rendering order: engine hit/miss/inflight counters, disk-cache
// traffic, process gauges, build identity, labeled HTTP request
// accounting, tiered-store counters, chaos counters, telemetry
// rollups, and the peer-fetch and per-phase run latency histograms.
// A family with no series renders nothing.
var families = []family{
	{name: "samie_engine_requests_total", kind: "counter", help: "Run requests seen by the shared scheduler.",
		series: scalar(func(m *metricsSnapshot) float64 { return float64(m.Engine.Requests) })},
	{name: "samie_engine_executed_total", kind: "counter", help: "Distinct simulations actually executed.",
		series: scalar(func(m *metricsSnapshot) float64 { return float64(m.Engine.Executed) })},
	{name: "samie_engine_hits_total", kind: "counter", help: "Requests served from cache or coalesced onto an in-flight run.",
		series: scalar(func(m *metricsSnapshot) float64 { return float64(m.Engine.Hits) })},
	{name: "samie_engine_canceled_total", kind: "counter", help: "Requests abandoned via context before completing.",
		series: scalar(func(m *metricsSnapshot) float64 { return float64(m.Engine.Canceled) })},
	{name: "samie_engine_evictions_total", kind: "counter", help: "Memoized results dropped by the LRU bound.",
		series: scalar(func(m *metricsSnapshot) float64 { return float64(m.Engine.Evictions) })},
	{name: "samie_engine_inflight", kind: "gauge", help: "Simulations holding a worker slot right now.",
		series: scalar(func(m *metricsSnapshot) float64 { return float64(m.Engine.Inflight) })},
	{name: "samie_engine_queue_depth", kind: "gauge", help: "Run requests waiting for a worker slot right now.",
		series: scalar(func(m *metricsSnapshot) float64 { return float64(m.Engine.QueueDepth) })},
	{name: "samie_trace_spans_dropped_total", kind: "counter", help: "Spans overwritten in the trace ring before being read.",
		series: scalar(func(m *metricsSnapshot) float64 { return float64(m.TraceDropped) })},
	{name: "samie_engine_distinct_runs", kind: "gauge", help: "Distinct run specs in the in-memory cache.",
		series: scalar(func(m *metricsSnapshot) float64 { return float64(m.DistinctRuns) })},
	{name: "samie_engine_workers", kind: "gauge", help: "Worker-pool concurrency bound.",
		series: scalar(func(m *metricsSnapshot) float64 { return float64(m.Workers) })},
	{name: "samie_disk_cache_hits_total", kind: "counter", help: "Results served from the on-disk cache.",
		series: scalar(func(m *metricsSnapshot) float64 { return float64(m.Disk.Hits) })},
	{name: "samie_disk_cache_misses_total", kind: "counter", help: "On-disk lookups that missed.",
		series: scalar(func(m *metricsSnapshot) float64 { return float64(m.Disk.Misses) })},
	{name: "samie_disk_cache_writes_total", kind: "counter", help: "Artifacts persisted to the on-disk cache.",
		series: scalar(func(m *metricsSnapshot) float64 { return float64(m.Disk.Writes) })},
	{name: "samie_http_throttled_total", kind: "counter", help: "Requests shed with 429 at the admission semaphore.",
		series: scalar(func(m *metricsSnapshot) float64 { return float64(m.Throttled) })},
	{name: "samie_http_probe_hits_total", kind: "counter", help: "Cache probes (GET /v1/runs/{key}) that found a result.",
		series: scalar(func(m *metricsSnapshot) float64 { return float64(m.ProbeHits) })},
	{name: "samie_http_probe_misses_total", kind: "counter", help: "Cache probes that found nothing.",
		series: scalar(func(m *metricsSnapshot) float64 { return float64(m.ProbeMisses) })},
	{name: "samie_http_suite_specs_total", kind: "counter", help: "Simulations requested through POST /v1/suite.",
		series: scalar(func(m *metricsSnapshot) float64 { return float64(m.SuiteSpecs) })},
	{name: "samie_http_inflight", kind: "gauge", help: "Admitted simulation requests in flight.",
		series: scalar(func(m *metricsSnapshot) float64 { return float64(m.InflightHTTP) })},
	{name: "samie_http_max_concurrent", kind: "gauge", help: "Admission semaphore capacity.",
		series: scalar(func(m *metricsSnapshot) float64 { return float64(m.MaxConcurrent) })},
	{name: "samie_preloaded_runs", kind: "gauge", help: "Results preloaded from disk at startup.",
		series: scalar(func(m *metricsSnapshot) float64 { return float64(m.Preloaded) })},
	{name: "samie_uptime_seconds", kind: "gauge", help: "Seconds since the server started.",
		series: scalar(func(m *metricsSnapshot) float64 { return m.UptimeSeconds })},
	{name: "samie_process_goroutines", kind: "gauge", help: "Live goroutines.",
		series: scalar(func(m *metricsSnapshot) float64 { return float64(m.Goroutines) })},
	{name: "samie_process_heap_bytes", kind: "gauge", help: "Heap bytes in use (sampled at most once per second).",
		series: scalar(func(m *metricsSnapshot) float64 { return float64(m.HeapBytes) })},

	// Build identity, so a fleet dashboard can spot mixed simulator
	// builds at a glance (the same stamp the store tiers verify).
	{name: "samie_build_info", kind: "gauge", help: "Simulator build identity; the value is always 1.",
		labels: []string{"revision"},
		series: func(*metricsSnapshot) []sample {
			return []sample{{labels: []string{experiments.SimStamp()}, value: 1}}
		}},

	// HTTP requests, split by normalized route and status code, plus
	// the per-route latency histogram.
	{name: "samie_http_requests_total", kind: "counter", help: "HTTP requests served, by route and status code.",
		labels: []string{"route", "code"},
		series: func(m *metricsSnapshot) []sample {
			keys := make([]routeCode, 0, len(m.requests))
			for k := range m.requests {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool {
				if keys[i].route != keys[j].route {
					return keys[i].route < keys[j].route
				}
				return keys[i].code < keys[j].code
			})
			out := make([]sample, len(keys))
			for i, k := range keys {
				out[i] = sample{labels: []string{k.route, strconv.Itoa(k.code)}, value: float64(m.requests[k])}
			}
			return out
		}},
	{name: "samie_http_request_seconds", kind: "histogram", help: "Request latency, by normalized route.",
		labels: []string{"route"},
		series: func(m *metricsSnapshot) []sample {
			out := make([]sample, 0, len(m.latency))
			for _, route := range sortedKeys(m.latency) {
				out = append(out, sample{labels: []string{route}, hist: m.latency[route]})
			}
			return out
		}},

	// Tiered run store: per-tier hit/miss counters plus peer installs.
	{name: "samie_store_hits_total", kind: "counter", help: "Run-store lookups served, per tier.",
		labels: []string{"tier"},
		series: tierSeries(func(t experiments.TierStats) int64 { return t.Hits })},
	{name: "samie_store_misses_total", kind: "counter", help: "Run-store lookups that fell through, per tier.",
		labels: []string{"tier"},
		series: tierSeries(func(t experiments.TierStats) int64 { return t.Misses })},
	{name: "samie_store_peer_installs_total", kind: "counter", help: "Peer-fetched results installed into the local disk cache.",
		series: scalar(func(m *metricsSnapshot) float64 { return float64(m.Store.PeerInstalls) })},

	// Chaos layer: always emitted (zeros when disabled) so monitoring
	// and CI can assert on the family's presence unconditionally.
	{name: "samie_chaos_injected_total", kind: "counter", help: "Faults injected by the chaos layer, per kind.",
		labels: []string{"kind"},
		series: func(m *metricsSnapshot) []sample {
			var out []sample
			for _, k := range faultinject.Kinds() {
				out = append(out, sample{labels: []string{k.String()}, value: float64(m.chaos.Get(k))})
			}
			return out
		}},

	{name: "samie_store_peer_fetch_seconds", kind: "histogram", help: "Peer probe latency (hits and misses).",
		series: func(m *metricsSnapshot) []sample { return []sample{{hist: m.Store.PeerFetch}} }},

	// Interval-telemetry rollups: per-benchmark occupancy gauges and
	// per-structure energy counters, aggregated over every locally
	// simulated run (tier-served results carry no timeline, so the
	// fleet-wide sum counts each simulation exactly once).
	{name: "samie_lsq_occupancy", kind: "gauge", help: "LSQ occupancy over sampled intervals, per benchmark.",
		labels: []string{"benchmark", "stat"},
		series: func(m *metricsSnapshot) []sample {
			var out []sample
			for _, b := range sortedKeys(m.TimelineStats) {
				agg := m.TimelineStats[b]
				out = append(out,
					sample{labels: []string{b, "mean"}, value: agg.MeanLSQ()},
					sample{labels: []string{b, "peak"}, value: float64(agg.PeakLSQ)})
			}
			return out
		}},
	{name: "samie_energy_joules_total", kind: "counter", help: "Modeled energy over sampled intervals, per structure.",
		labels: []string{"structure"},
		series: func(m *metricsSnapshot) []sample {
			var out []sample
			for _, k := range sortedKeys(m.EnergyPJ) {
				out = append(out, sample{labels: []string{k}, value: m.EnergyPJ[k] * 1e-12})
			}
			return out
		}},

	// Per-phase run latency: every defined phase is always emitted
	// (zeros before the first observation) so dashboards and CI can
	// select the full set unconditionally.
	{name: "samie_run_phase_seconds", kind: "histogram", help: "Where run wall-clock went, per engine-job phase.",
		labels: []string{"phase"},
		series: func(m *metricsSnapshot) []sample {
			var out []sample
			for _, p := range obs.AllPhases() {
				out = append(out, sample{labels: []string{p.String()}, hist: m.RunPhases[p.String()]})
			}
			return out
		}},
}

// sortedKeys returns a map's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// handleMetrics renders the families table in Prometheus text format
// from one snapshot; /v1/stats serves the same numbers as JSON.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := metricsSnapshot{StatsResponse: s.statsSnapshot(), chaos: s.chaosCounts()}
	m.requests, m.latency = s.httpm.snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	for _, f := range families {
		series := f.series(&m)
		if len(series) == 0 {
			continue
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		for _, sm := range series {
			pairs := make([]string, len(f.labels))
			for i, l := range f.labels {
				pairs[i] = fmt.Sprintf("%s=\"%s\"", l, promLabel(sm.labels[i]))
			}
			labels := strings.Join(pairs, ",")
			if f.kind == "histogram" {
				writeHistSeries(w, f.name, labels, sm.hist)
				continue
			}
			if labels != "" {
				labels = "{" + labels + "}"
			}
			fmt.Fprintf(w, "%s%s %g\n", f.name, labels, sm.value)
		}
	}
}

// writeHistSeries renders one histogram series in exposition format:
// cumulative buckets ending at +Inf, then sum and count. labels is
// the series' label block without braces ("" for none, `phase="x"`
// otherwise); le is appended to it for the bucket lines. An empty
// snapshot renders a valid all-zero series with only the +Inf bucket.
func writeHistSeries(w io.Writer, name, labels string, h obs.HistSnapshot) {
	bucket := func(le string) string {
		if labels == "" {
			return fmt.Sprintf("{le=%q}", le)
		}
		return fmt.Sprintf("{%s,le=%q}", labels, le)
	}
	plain := ""
	if labels != "" {
		plain = "{" + labels + "}"
	}
	var cum uint64
	for i, bound := range h.Bounds {
		cum += h.Counts[i]
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucket(trimFloat(bound)), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucket("+Inf"), h.Count)
	fmt.Fprintf(w, "%s_sum%s %g\n", name, plain, h.Sum)
	fmt.Fprintf(w, "%s_count%s %d\n", name, plain, h.Count)
}

// promLabel escapes a label value per the exposition format:
// backslash, double quote and newline.
func promLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// trimFloat renders a histogram bound the canonical Prometheus way
// (shortest decimal form, "0.005" not "5e-03").
func trimFloat(f float64) string {
	return strconv.FormatFloat(f, 'f', -1, 64)
}
