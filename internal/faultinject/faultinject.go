// Package faultinject is the deterministic, seedable fault layer the
// chaos harness injects into samie-serve: HTTP-level 500s and 429s,
// added latency, connection resets, and mid-body stream truncation,
// each drawn from one seeded PRNG so a fault schedule replays exactly.
//
// A Spec is parsed from a compact operator string —
//
//	err=0.1,throttle=0.05,lat=5ms:50ms,reset=0.05,trunc=0.02,seed=42
//
// — and compiled into an Injector whose Plan method draws the fault
// plan for one request. Draw order is fixed (latency, then the fault
// kind, then the truncation point), so for a given seed the i-th
// request always receives the i-th plan regardless of what earlier
// plans did to their requests: same seed + same request sequence →
// same injected-fault counts. Per-kind counters record only faults
// that actually fired, which is what tests assert against
// (samie_chaos_injected_total{kind=...}).
//
// The package knows nothing about HTTP; internal/server owns the
// middleware that applies a Plan to a live request, so the layer can
// also wrap non-HTTP consumers in tests.
package faultinject

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind names one injectable fault class.
type Kind int

const (
	// KindNone is the no-fault plan.
	KindNone Kind = iota
	// KindError answers the request with an injected HTTP 500.
	KindError
	// KindThrottle answers the request with an injected HTTP 429 +
	// Retry-After.
	KindThrottle
	// KindReset severs the connection abruptly (RST), mid-exchange.
	KindReset
	// KindTruncate severs the response mid-body after a drawn number
	// of bytes — an NDJSON stream loses its tail, a JSON body arrives
	// unparseable.
	KindTruncate
	// KindLatency delays the request by a drawn duration before it
	// proceeds (composable with every other kind).
	KindLatency

	kindCount
)

// String returns the metric label for the kind.
func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindThrottle:
		return "throttle"
	case KindReset:
		return "reset"
	case KindTruncate:
		return "truncate"
	case KindLatency:
		return "latency"
	}
	return "none"
}

// Kinds lists the countable fault kinds in metric-label order.
func Kinds() []Kind {
	return []Kind{KindError, KindThrottle, KindReset, KindTruncate, KindLatency}
}

// Truncation-point bounds: a drawn cut lands inside real payloads (one
// NDJSON run event is O(1KB), a run response O(2-10KB)) so streams
// lose their tails mid-line and JSON bodies arrive unparseable, while
// tiny bodies (health probes, error JSON) usually escape.
const (
	truncMinBytes = 256
	truncMaxBytes = 8192
)

// Spec is one parsed fault configuration. Probabilities are per
// request; zero disables that fault. The zero Spec injects nothing.
type Spec struct {
	Err      float64       // P(injected 500)
	Throttle float64       // P(injected 429 + Retry-After)
	Reset    float64       // P(abrupt connection reset)
	Trunc    float64       // P(mid-body response truncation)
	LatMin   time.Duration // added latency lower bound (with LatMax > 0)
	LatMax   time.Duration // added latency upper bound; 0 disables
	Seed     int64         // PRNG seed; same seed → same draw sequence
}

// Enabled reports whether the spec injects anything at all.
func (s Spec) Enabled() bool {
	return s.Err > 0 || s.Throttle > 0 || s.Reset > 0 || s.Trunc > 0 || s.LatMax > 0
}

// String renders the spec back in the grammar ParseSpec accepts.
func (s Spec) String() string {
	var parts []string
	add := func(k string, v float64) {
		if v > 0 {
			parts = append(parts, k+"="+strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	add("err", s.Err)
	add("throttle", s.Throttle)
	if s.LatMax > 0 {
		parts = append(parts, fmt.Sprintf("lat=%s:%s", s.LatMin, s.LatMax))
	}
	add("reset", s.Reset)
	add("trunc", s.Trunc)
	parts = append(parts, "seed="+strconv.FormatInt(s.Seed, 10))
	return strings.Join(parts, ",")
}

// ParseSpec parses the operator fault grammar:
//
//	err=0.1,throttle=0.05,lat=5ms:50ms,reset=0.05,trunc=0.02,seed=42
//
// Keys may appear in any order; omitted keys default to zero (fault
// disabled; seed 0). Probabilities must lie in [0, 1] and their sum
// (err+throttle+reset, the mutually-exclusive kinds) must not exceed
// 1. lat takes a single duration ("lat=10ms") or a min:max range.
func ParseSpec(s string) (Spec, error) {
	var spec Spec
	if strings.TrimSpace(s) == "" {
		return spec, nil
	}
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return Spec{}, fmt.Errorf("faultinject: %q is not key=value", field)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		prob := func(dst *float64) error {
			p, err := strconv.ParseFloat(val, 64)
			// Written so NaN fails it too: every comparison with NaN is false.
			if err != nil || !(p >= 0 && p <= 1) {
				return fmt.Errorf("faultinject: %s=%q is not a probability in [0,1]", key, val)
			}
			*dst = p
			return nil
		}
		var err error
		switch key {
		case "err":
			err = prob(&spec.Err)
		case "throttle":
			err = prob(&spec.Throttle)
		case "reset":
			err = prob(&spec.Reset)
		case "trunc":
			err = prob(&spec.Trunc)
		case "seed":
			spec.Seed, err = strconv.ParseInt(val, 10, 64)
			if err != nil {
				err = fmt.Errorf("faultinject: seed=%q is not an integer", val)
			}
		case "lat":
			lo, hi, ranged := strings.Cut(val, ":")
			spec.LatMin, err = time.ParseDuration(lo)
			if err == nil && ranged {
				spec.LatMax, err = time.ParseDuration(hi)
			} else if err == nil {
				spec.LatMax = spec.LatMin
			}
			if err != nil {
				err = fmt.Errorf("faultinject: lat=%q is not a duration or min:max range", val)
			}
			if err == nil && (spec.LatMin < 0 || spec.LatMax < spec.LatMin) {
				err = fmt.Errorf("faultinject: lat=%q needs 0 <= min <= max", val)
			}
		default:
			err = fmt.Errorf("faultinject: unknown key %q (want err, throttle, lat, reset, trunc, seed)", key)
		}
		if err != nil {
			return Spec{}, err
		}
	}
	if sum := spec.Err + spec.Throttle + spec.Reset; sum > 1 {
		return Spec{}, fmt.Errorf("faultinject: err+throttle+reset = %g exceeds 1", sum)
	}
	return spec, nil
}

// Plan is the drawn fault schedule for one request.
type Plan struct {
	// Latency is added before the request proceeds; 0 means none.
	Latency time.Duration
	// Kind is the terminal fault (error/throttle/reset), or KindNone.
	Kind Kind
	// TruncAfter severs the response after this many body bytes;
	// 0 means no truncation. Only meaningful with Kind == KindNone
	// (a terminated request has no body to truncate).
	TruncAfter int
}

// Counts is a snapshot of faults that actually fired.
type Counts struct {
	Errors      int64 `json:"errors"`
	Throttles   int64 `json:"throttles"`
	Resets      int64 `json:"resets"`
	Truncations int64 `json:"truncations"`
	Latencies   int64 `json:"latencies"`
}

// Total sums every fired fault.
func (c Counts) Total() int64 {
	return c.Errors + c.Throttles + c.Resets + c.Truncations + c.Latencies
}

// Add accumulates another snapshot (metric continuity across injector
// swaps).
func (c *Counts) Add(o Counts) {
	c.Errors += o.Errors
	c.Throttles += o.Throttles
	c.Resets += o.Resets
	c.Truncations += o.Truncations
	c.Latencies += o.Latencies
}

// Get returns the count for one kind.
func (c Counts) Get(k Kind) int64 {
	switch k {
	case KindError:
		return c.Errors
	case KindThrottle:
		return c.Throttles
	case KindReset:
		return c.Resets
	case KindTruncate:
		return c.Truncations
	case KindLatency:
		return c.Latencies
	}
	return 0
}

// Injector draws fault plans from one seeded PRNG and counts what
// fired. Safe for concurrent use; with concurrent requests the
// ASSIGNMENT of plans to requests follows arrival order at the mutex,
// but the drawn sequence itself — and therefore the fault counts for a
// fixed request count — depends only on the seed.
type Injector struct {
	spec Spec

	mu  sync.Mutex
	rng *rand.Rand

	counts [kindCount]atomic.Int64
}

// New compiles a spec into an injector.
func New(spec Spec) *Injector {
	return &Injector{spec: spec, rng: rand.New(rand.NewSource(spec.Seed))}
}

// Spec returns the injector's configuration.
func (in *Injector) Spec() Spec { return in.spec }

// Counts snapshots the fired-fault counters.
func (in *Injector) Counts() Counts {
	return Counts{
		Errors:      in.counts[KindError].Load(),
		Throttles:   in.counts[KindThrottle].Load(),
		Resets:      in.counts[KindReset].Load(),
		Truncations: in.counts[KindTruncate].Load(),
		Latencies:   in.counts[KindLatency].Load(),
	}
}

// Fired records that a planned fault was actually applied. The
// middleware calls it at application time, not draw time: a truncation
// plan on a response shorter than its cut never fires, and must not
// count.
func (in *Injector) Fired(k Kind) {
	if k > KindNone && k < kindCount {
		in.counts[k].Add(1)
	}
}

// Plan draws the fault schedule for the next request. The draw order
// is fixed — latency, terminal kind, truncation — so the sequence of
// plans is a pure function of the seed.
func (in *Injector) Plan() Plan {
	in.mu.Lock()
	defer in.mu.Unlock()
	var p Plan
	if in.spec.LatMax > 0 {
		span := int64(in.spec.LatMax - in.spec.LatMin)
		p.Latency = in.spec.LatMin
		if span > 0 {
			p.Latency += time.Duration(in.rng.Int63n(span + 1))
		}
	}
	// One uniform draw picks among the mutually-exclusive terminal
	// kinds; their probabilities partition [0,1).
	u := in.rng.Float64()
	switch {
	case u < in.spec.Err:
		p.Kind = KindError
	case u < in.spec.Err+in.spec.Throttle:
		p.Kind = KindThrottle
	case u < in.spec.Err+in.spec.Throttle+in.spec.Reset:
		p.Kind = KindReset
	}
	// The truncation draws happen unconditionally so the sequence
	// stays aligned across seeds regardless of which kinds fired.
	truncHit := in.rng.Float64() < in.spec.Trunc
	cut := truncMinBytes + in.rng.Intn(truncMaxBytes-truncMinBytes+1)
	if truncHit && p.Kind == KindNone {
		p.TruncAfter = cut
	}
	return p
}
