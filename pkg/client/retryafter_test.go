package client

import (
	"context"
	"net/http"
	"net/http/httptest"
	"samielsq/internal/experiments"
	"strconv"
	"testing"
	"time"
)

func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 7, 28, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		name string
		in   string
		want time.Duration
		ok   bool
	}{
		{"delta seconds", "5", 5 * time.Second, true},
		{"zero", "0", 0, true},
		{"negative clamped", "-3", 0, true},
		{"padded delta", "  17 ", 17 * time.Second, true},
		{"http-date ahead", now.Add(90 * time.Second).Format(http.TimeFormat), 90 * time.Second, true},
		{"http-date past clamped", now.Add(-time.Hour).Format(http.TimeFormat), 0, true},
		{"rfc850 date", now.Add(30 * time.Second).Format("Monday, 02-Jan-06 15:04:05 GMT"), 30 * time.Second, true},
		{"huge delta saturates", "10000000000", maxDuration - maxDuration%time.Second, true},
		{"garbage", "soon", 0, false},
		{"empty", "", 0, false},
		{"fractional rejected", "1.5", 0, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, ok := parseRetryAfter(c.in, now)
			if ok != c.ok || got != c.want {
				t.Fatalf("parseRetryAfter(%q) = %v, %v; want %v, %v", c.in, got, ok, c.want, c.ok)
			}
		})
	}
}

// TestRetryAfterHTTPDateOnWire pins the end-to-end path: a 429 with an
// HTTP-date Retry-After must surface as a positive, non-garbage
// RetryAfter on the APIError (it was previously dropped as "no hint"),
// and a negative delta must never produce a negative backoff.
func TestRetryAfterHTTPDateOnWire(t *testing.T) {
	headers := make(chan string, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", <-headers)
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer srv.Close()
	c := New(srv.URL)

	headers <- time.Now().Add(30 * time.Second).UTC().Format(http.TimeFormat)
	_, err := c.Run(context.Background(), RunRequest{RunSpec: experiments.RunSpec{Benchmark: "gzip"}})
	if !IsThrottled(err) {
		t.Fatalf("want throttled APIError, got %v", err)
	}
	ae := err.(*APIError)
	if ae.RetryAfter <= 0 || ae.RetryAfter > 31*time.Second {
		t.Fatalf("HTTP-date Retry-After = %v, want ~30s", ae.RetryAfter)
	}

	headers <- "-10"
	_, err = c.Run(context.Background(), RunRequest{RunSpec: experiments.RunSpec{Benchmark: "gzip"}})
	if !IsThrottled(err) {
		t.Fatalf("want throttled APIError, got %v", err)
	}
	if ae := err.(*APIError); ae.RetryAfter != 0 {
		t.Fatalf("negative Retry-After = %v, want clamped to 0", ae.RetryAfter)
	}
}

// FuzzParseRetryAfter: every 429's Retry-After value passes through
// ParseRetryAfter. It must never panic, a rejection must return zero,
// an accepted value must be a non-negative wait, and that wait
// re-rendered as delta-seconds must be accepted as the same whole
// seconds.
func FuzzParseRetryAfter(f *testing.F) {
	now := time.Date(2026, 7, 28, 12, 0, 0, 0, time.UTC)
	f.Fuzz(func(t *testing.T, v string) {
		d, ok := parseRetryAfter(v, now)
		if !ok {
			if d != 0 {
				t.Fatalf("parseRetryAfter(%q) rejected but returned %v", v, d)
			}
			return
		}
		if d < 0 {
			t.Fatalf("parseRetryAfter(%q) = %v, a negative wait", v, d)
		}
		secs := strconv.FormatInt(int64(d/time.Second), 10)
		again, ok := parseRetryAfter(secs, now)
		if !ok || again != d.Truncate(time.Second) {
			t.Fatalf("parseRetryAfter(%q) = %v re-renders to %q, which parses to %v ok=%v", v, d, secs, again, ok)
		}
	})
}
