package server

import (
	"io"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"samielsq/internal/experiments"
	"samielsq/internal/faultinject"
	"samielsq/pkg/client"
)

// expoSample is one parsed exposition sample: series name, ordered
// label block, numeric value.
type expoSample struct {
	name   string
	labels map[string]string
	value  float64
}

var (
	expoSampleRE = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})? (\S+)$`)
	// One label pair: value chars are anything except raw backslash,
	// quote or newline, or one of the three legal escapes.
	expoLabelRE = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\\n]|\\\\|\\"|\\n)*)"(,|$)`)
)

// parseExposition validates and parses a Prometheus text-format body:
// every sample line must parse, every label block must consist of
// correctly escaped pairs, and every sample's family must have emitted
// its # HELP and # TYPE metadata earlier in the stream.
func parseExposition(t *testing.T, body string) ([]expoSample, map[string]string) {
	t.Helper()
	help := map[string]bool{}
	kinds := map[string]string{}
	var samples []expoSample
	for _, line := range strings.Split(body, "\n") {
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "# HELP "):
			parts := strings.SplitN(line[len("# HELP "):], " ", 2)
			if len(parts) != 2 || parts[1] == "" {
				t.Fatalf("HELP line without text: %q", line)
			}
			help[parts[0]] = true
			continue
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(line[len("# TYPE "):])
			if len(parts) != 2 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("unknown metric kind in %q", line)
			}
			kinds[parts[0]] = parts[1]
			continue
		case strings.HasPrefix(line, "#"):
			t.Fatalf("unrecognized comment line %q", line)
		}
		m := expoSampleRE.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable sample line %q", line)
		}
		labels := map[string]string{}
		for rest := m[3]; rest != ""; {
			lm := expoLabelRE.FindStringSubmatch(rest)
			if lm == nil {
				t.Fatalf("malformed label block in %q (at %q)", line, rest)
			}
			labels[lm[1]] = lm[2]
			rest = rest[len(lm[0]):]
		}
		v, err := strconv.ParseFloat(m[4], 64)
		if err != nil {
			t.Fatalf("non-numeric value in %q", line)
		}
		// Metadata must precede samples, per family. Histogram series
		// names carry _bucket/_sum/_count suffixes off the family name.
		family := m[1]
		if !help[family] {
			base := family
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if s, ok := strings.CutSuffix(family, suf); ok {
					base = s
					break
				}
			}
			if !help[base] || kinds[base] != "histogram" {
				t.Fatalf("sample %q has no preceding # HELP/# TYPE metadata", line)
			}
		}
		samples = append(samples, expoSample{name: m[1], labels: labels, value: v})
	}
	return samples, kinds
}

// histKey identifies one histogram series: family plus its label block
// minus le, serialized in sorted order.
func histKey(family string, labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != "le" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString(family)
	for _, k := range keys {
		sb.WriteString("|" + k + "=" + labels[k])
	}
	return sb.String()
}

// TestMetricsExpositionWellFormed populates every metric source — an
// executed run against a disk-backed batch (engine, store tiers and
// phase histograms), a 404 and a chaos-injected 500 (labeled HTTP
// counters, chaos counters) — then validates the whole /metrics body:
// metadata before samples for every family, cumulative histogram
// buckets ending at +Inf with the +Inf bucket equal to _count, and
// every label block correctly escaped.
func TestMetricsExpositionWellFormed(t *testing.T) {
	dir := t.TempDir()
	batch, err := experiments.NewBatchWithCache(2, dir)
	if err != nil {
		t.Fatal(err)
	}
	// err=0.5 under seed 7 lets the first two requests through and
	// injects a 500 into the third: the draw order is fixed by the seed.
	spec, err := faultinject.ParseSpec("err=0.5,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	_, ts, _ := newTestServer(t, Config{Batch: batch, CacheDir: dir, Chaos: spec})

	// Populate: one simulated run (engine + disk store + phases + a
	// 200), one unknown route (404), then a chaos-injected error on a
	// real route (chaos counter + 500). /metrics itself is exempt.
	resp := postJSON(t, ts.URL+"/v1/runs", client.RunRequest{RunSpec: experiments.RunSpec{Benchmark: "gzip", Model: client.ModelSAMIE}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first run returned %d, want 200", resp.StatusCode)
	}
	if resp, err = http.Get(ts.URL + "/no-such-route"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown route returned %d, want 404", resp.StatusCode)
	}
	if resp, err = http.Get(ts.URL + "/v1/scenarios"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("chaos-injected request returned %d, want 500", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples, kinds := parseExposition(t, string(data))

	// Every histogram family: buckets cumulative (non-decreasing in
	// emission order), last bucket le="+Inf", +Inf bucket == _count.
	type histState struct {
		lastBucket float64
		lastLe     string
		count      *float64
		buckets    int
	}
	hists := map[string]*histState{}
	get := func(family string, labels map[string]string) *histState {
		k := histKey(family, labels)
		if hists[k] == nil {
			hists[k] = &histState{}
		}
		return hists[k]
	}
	values := map[string]float64{}
	for _, s := range samples {
		if base, ok := strings.CutSuffix(s.name, "_bucket"); ok && kinds[base] == "histogram" {
			h := get(base, s.labels)
			le, ok := s.labels["le"]
			if !ok {
				t.Fatalf("histogram bucket %s without le label", s.name)
			}
			if s.value < h.lastBucket {
				t.Errorf("%s: bucket le=%q value %g below preceding bucket %g (not cumulative)",
					base, le, s.value, h.lastBucket)
			}
			h.lastBucket, h.lastLe = s.value, le
			h.buckets++
			continue
		}
		if base, ok := strings.CutSuffix(s.name, "_count"); ok && kinds[base] == "histogram" {
			v := s.value
			get(base, s.labels).count = &v
		}
		// Flat key for the spot checks below.
		k := s.name
		if len(s.labels) > 0 {
			pairs := make([]string, 0, len(s.labels))
			for name, val := range s.labels {
				pairs = append(pairs, name+"="+val)
			}
			sort.Strings(pairs)
			k += "{" + strings.Join(pairs, ",") + "}"
		}
		values[k] = s.value
	}
	for k, h := range hists {
		if h.buckets == 0 {
			continue
		}
		if h.lastLe != "+Inf" {
			t.Errorf("histogram %s: last bucket le=%q, want +Inf", k, h.lastLe)
		}
		if h.count == nil {
			t.Errorf("histogram %s: no _count sample", k)
		} else if *h.count != h.lastBucket {
			t.Errorf("histogram %s: +Inf bucket %g != count %g", k, h.lastBucket, *h.count)
		}
	}

	// Spot-check that the populated sources actually showed up, so the
	// structural assertions above ran against live series.
	for key, min := range map[string]float64{
		`samie_http_requests_total{code=200,route=/v1/runs}`:      1,
		`samie_http_requests_total{code=404,route=other}`:         1,
		`samie_http_requests_total{code=500,route=/v1/scenarios}`: 1,
		`samie_chaos_injected_total{kind=error}`:                  1,
		`samie_run_phase_seconds_count{phase=measured}`:           1,
		`samie_run_phase_seconds_count{phase=persist}`:            1,
		`samie_store_misses_total{tier=disk}`:                     1,
		// Interval-telemetry rollups from the simulated run.
		`samie_lsq_occupancy{benchmark=gzip,stat=peak}`: 1,
		`samie_energy_joules_total{structure=dcache}`:   1e-18,
	} {
		if values[key] < min {
			t.Errorf("%s = %g, want >= %g", key, values[key], min)
		}
	}
	if h := hists[histKey("samie_run_phase_seconds", map[string]string{"phase": "peer_tier"})]; h == nil || h.buckets == 0 {
		t.Error("untouched phase did not render its all-zero series")
	}
	// The new gauges and counters are present unconditionally (zero
	// when nothing was queued or dropped).
	for _, family := range []string{"samie_engine_queue_depth", "samie_trace_spans_dropped_total"} {
		if _, ok := values[family]; !ok {
			t.Errorf("metric family %s missing from the exposition", family)
		}
	}

	// The rendered family set must equal the families table exactly:
	// on a fully populated server every row renders, so no family is
	// silently empty and nothing renders outside the table.
	unlisted := make(map[string]bool, len(kinds))
	for name := range kinds {
		unlisted[name] = true
	}
	for _, fam := range families {
		if !unlisted[fam.name] {
			t.Errorf("families lists %s but the populated exposition never rendered it", fam.name)
		}
		delete(unlisted, fam.name)
	}
	for name := range unlisted {
		t.Errorf("family %s rendered but missing from families", name)
	}
}
