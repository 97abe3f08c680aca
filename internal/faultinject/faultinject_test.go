package faultinject

import (
	"strings"
	"testing"
	"time"
)

func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec("err=0.1,lat=5ms:50ms,reset=0.05,trunc=0.02,seed=42")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	want := Spec{Err: 0.1, Reset: 0.05, Trunc: 0.02, LatMin: 5 * time.Millisecond, LatMax: 50 * time.Millisecond, Seed: 42}
	if spec != want {
		t.Fatalf("spec = %+v, want %+v", spec, want)
	}
	if !spec.Enabled() {
		t.Fatal("spec should be enabled")
	}

	// Round-trip through String.
	back, err := ParseSpec(spec.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", spec.String(), err)
	}
	if back != spec {
		t.Fatalf("round-trip %q = %+v, want %+v", spec.String(), back, spec)
	}
}

func TestParseSpecDefaults(t *testing.T) {
	spec, err := ParseSpec("")
	if err != nil {
		t.Fatalf("ParseSpec(empty): %v", err)
	}
	if spec.Enabled() {
		t.Fatalf("zero spec should be disabled, got %+v", spec)
	}

	// Single-duration lat means a fixed delay.
	spec, err = ParseSpec("lat=10ms")
	if err != nil {
		t.Fatalf("ParseSpec(lat=10ms): %v", err)
	}
	if spec.LatMin != 10*time.Millisecond || spec.LatMax != 10*time.Millisecond {
		t.Fatalf("lat=10ms parsed to [%v, %v]", spec.LatMin, spec.LatMax)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range []string{
		"err=1.5",           // probability out of range
		"err=-0.1",          // negative
		"err=x",             // not a number
		"lat=5ms:1ms",       // max < min
		"lat=-5ms",          // negative duration
		"lat=abc",           // not a duration
		"seed=abc",          // not an integer
		"bogus=1",           // unknown key
		"err",               // not key=value
		"err=0.6,reset=0.6", // terminal kinds sum > 1
		"err=0.5,throttle=0.6",
		"err=NaN", // NaN is no probability, whatever its spelling
		"throttle=nan",
		"reset=NaN",
		"trunc=NaN",
		"err=0.5,reset=NaN", // a NaN sum must not slip past the sum check
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) succeeded, want error", bad)
		}
	}
}

func TestPlanDeterministicPerSeed(t *testing.T) {
	spec, err := ParseSpec("err=0.2,throttle=0.1,lat=1ms:3ms,reset=0.1,trunc=0.2,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	a, b := New(spec), New(spec)
	for i := 0; i < 500; i++ {
		pa, pb := a.Plan(), b.Plan()
		if pa != pb {
			t.Fatalf("plan %d diverged: %+v vs %+v", i, pa, pb)
		}
	}

	// A different seed must change the drawn sequence.
	other := spec
	other.Seed = 8
	c := New(spec)
	d := New(other)
	same := 0
	for i := 0; i < 500; i++ {
		if c.Plan() == d.Plan() {
			same++
		}
	}
	if same == 500 {
		t.Fatal("seeds 7 and 8 drew identical 500-plan sequences")
	}
}

func TestPlanRespectsSpec(t *testing.T) {
	spec, _ := ParseSpec("err=0.3,throttle=0.2,reset=0.1,trunc=0.5,lat=1ms:4ms,seed=11")
	in := New(spec)
	var errs, throttles, resets, truncs int
	const n = 2000
	for i := 0; i < n; i++ {
		p := in.Plan()
		if p.Latency < spec.LatMin || p.Latency > spec.LatMax {
			t.Fatalf("latency %v outside [%v, %v]", p.Latency, spec.LatMin, spec.LatMax)
		}
		switch p.Kind {
		case KindError:
			errs++
		case KindThrottle:
			throttles++
		case KindReset:
			resets++
		}
		if p.TruncAfter != 0 {
			if p.Kind != KindNone {
				t.Fatalf("plan %+v truncates a terminated request", p)
			}
			if p.TruncAfter < truncMinBytes || p.TruncAfter > truncMaxBytes {
				t.Fatalf("truncation point %d outside [%d, %d]", p.TruncAfter, truncMinBytes, truncMaxBytes)
			}
			truncs++
		}
	}
	// Loose sanity on rates: each configured fault should fire within
	// a wide band of its expectation over 2000 draws.
	check := func(name string, got int, p float64) {
		t.Helper()
		lo, hi := int(float64(n)*p*0.5), int(float64(n)*p*1.5)
		if got < lo || got > hi {
			t.Errorf("%s fired %d times, want roughly [%d, %d]", name, got, lo, hi)
		}
	}
	check("err", errs, spec.Err)
	check("throttle", throttles, spec.Throttle)
	check("reset", resets, spec.Reset)
	// Truncation only applies to KindNone plans (p = 0.4 of draws).
	check("trunc", truncs, spec.Trunc*(1-spec.Err-spec.Throttle-spec.Reset))
}

func TestZeroSpecNeverFaults(t *testing.T) {
	in := New(Spec{Seed: 3})
	for i := 0; i < 200; i++ {
		if p := in.Plan(); p != (Plan{}) {
			t.Fatalf("zero spec drew %+v", p)
		}
	}
}

func TestFiredCounts(t *testing.T) {
	in := New(Spec{})
	in.Fired(KindError)
	in.Fired(KindError)
	in.Fired(KindTruncate)
	in.Fired(KindLatency)
	in.Fired(KindNone) // must not count
	c := in.Counts()
	if c.Errors != 2 || c.Truncations != 1 || c.Latencies != 1 || c.Throttles != 0 || c.Resets != 0 {
		t.Fatalf("counts = %+v", c)
	}
	if c.Total() != 4 {
		t.Fatalf("total = %d, want 4", c.Total())
	}
	var acc Counts
	acc.Add(c)
	acc.Add(c)
	if acc.Total() != 8 {
		t.Fatalf("accumulated total = %d, want 8", acc.Total())
	}
	for _, k := range Kinds() {
		if acc.Get(k) != 2*c.Get(k) {
			t.Fatalf("Get(%v) = %d, want %d", k, acc.Get(k), 2*c.Get(k))
		}
	}
}

func TestKindStrings(t *testing.T) {
	labels := make(map[string]bool)
	for _, k := range Kinds() {
		s := k.String()
		if s == "none" || strings.ContainsAny(s, " {}\"") {
			t.Fatalf("kind %d has bad metric label %q", k, s)
		}
		if labels[s] {
			t.Fatalf("duplicate label %q", s)
		}
		labels[s] = true
	}
}

// FuzzParseSpec: the -chaos flag passes operator text to ParseSpec.
// It must never panic, and an accepted spec must render (String) to
// text that parses back to the same Spec.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"err=0.1,lat=5ms:50ms,reset=0.05,trunc=0.02,seed=42",
		"throttle=1,lat=10ms",
		"err=NaN",
		"err=0.5,reset=NaN",
		"trunc=0x1p-4,seed=-7",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, v string) {
		spec, err := ParseSpec(v)
		if err != nil {
			return
		}
		again, err := ParseSpec(spec.String())
		if err != nil || again != spec {
			t.Fatalf("ParseSpec(%q) = %+v renders to %q, which parses to %+v, %v", v, spec, spec.String(), again, err)
		}
	})
}
