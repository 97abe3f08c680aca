package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"samielsq/internal/obs"
	"samielsq/pkg/client"
)

// statusWriter records the status and byte count for the request log
// and passes Flush through for NDJSON streaming.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Hijack passes through so the chaos layer can sever connections from
// inside the logging wrapper.
func (w *statusWriter) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	hj, ok := w.ResponseWriter.(http.Hijacker)
	if !ok {
		return nil, nil, fmt.Errorf("server: response writer cannot hijack")
	}
	return hj.Hijack()
}

// withLogging emits one structured log line per request, and is also
// where a request joins the trace fabric: the incoming traceparent
// (if any) is adopted, a server span is opened around the handler —
// putting it on the request context so engine jobs hang their tier
// spans off it — and the trace/span IDs land in the log line. The
// per-{route,code} counters and per-route latency histogram are
// observed here too, on the normalized route label (bounded
// cardinality, never the raw path).
func (s *Server) withLogging(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		begin := time.Now()
		route := routeLabel(r.URL.Path)
		parent, hasParent := obs.ParseTraceParent(r.Header.Get("traceparent"))
		ctx, span := s.rec.StartRemoteChild(r.Context(), r.Method+" "+route, parent)
		if span != nil {
			span.SetAttr("path", r.URL.Path)
			r = r.WithContext(ctx)
		}
		next.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		dur := time.Since(begin)
		s.served.Add(1)
		s.httpm.observe(route, sw.status, dur)
		attrs := []any{
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"bytes", sw.bytes,
			"duration", dur.Round(time.Microsecond).String(),
			"remote", r.RemoteAddr,
		}
		switch {
		case span != nil:
			span.SetAttr("status", strconv.Itoa(sw.status))
			span.End()
			attrs = append(attrs,
				"trace_id", span.Context().Trace.String(),
				"span_id", span.Context().Span.String())
		case hasParent:
			// Recording is off but the caller propagated an identity:
			// keep the correlation in the log anyway.
			attrs = append(attrs, "trace_id", parent.Trace.String())
		}
		s.log.Info("request", attrs...)
	})
}

// routeLabel normalizes a request to its route pattern so metric
// labels stay bounded however many distinct keys, figures or trace
// IDs clients ask for. Unknown paths collapse into "other".
func routeLabel(path string) string {
	switch {
	case path == "/healthz" || path == "/metrics" ||
		path == "/v1/stats" || path == "/v1/chaos" ||
		path == "/v1/scenarios" || path == "/v1/runs" ||
		path == "/v1/suite" || path == "/v1/traces":
		return path
	case strings.HasPrefix(path, "/v1/runs/") && strings.HasSuffix(path, "/timeline"):
		return "/v1/runs/{key}/timeline"
	case strings.HasPrefix(path, "/v1/runs/"):
		return "/v1/runs/{key}"
	case strings.HasPrefix(path, "/v1/figures/"):
		return "/v1/figures/{name}"
	case strings.HasPrefix(path, "/v1/trace/"):
		return "/v1/trace/{id}"
	default:
		return "other"
	}
}

// httpMetrics aggregates the labeled request metrics: one counter per
// {route, status code} and one latency histogram per route. Routes
// are a small closed set (routeLabel), so the maps stay tiny; the
// mutex guards only map access — histogram observes are lock-free.
type httpMetrics struct {
	mu     sync.Mutex
	counts map[routeCode]int64
	dur    map[string]*obs.Histogram
}

// routeCode keys one requests_total series.
type routeCode struct {
	route string
	code  int
}

// requestBuckets bound the per-route request-latency histogram: the
// peer-fetch ladder, which already spans "LAN round trip" to "long
// simulation request".
var requestBuckets = []float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

func (m *httpMetrics) init() {
	m.counts = make(map[routeCode]int64)
	m.dur = make(map[string]*obs.Histogram)
}

func (m *httpMetrics) observe(route string, code int, d time.Duration) {
	m.mu.Lock()
	m.counts[routeCode{route, code}]++
	h := m.dur[route]
	if h == nil {
		h = obs.NewHistogram(requestBuckets)
		m.dur[route] = h
	}
	m.mu.Unlock()
	h.Observe(d)
}

// snapshot copies the counters and snapshots every route histogram.
func (m *httpMetrics) snapshot() (map[routeCode]int64, map[string]obs.HistSnapshot) {
	m.mu.Lock()
	counts := make(map[routeCode]int64, len(m.counts))
	for k, v := range m.counts {
		counts[k] = v
	}
	hists := make(map[string]*obs.Histogram, len(m.dur))
	for k, h := range m.dur {
		hists[k] = h
	}
	m.mu.Unlock()
	out := make(map[string]obs.HistSnapshot, len(hists))
	for k, h := range hists {
		out[k] = h.Snapshot()
	}
	return counts, out
}

// withRecovery converts handler panics into 500s instead of tearing
// down the connection (and, under http.Serve, the goroutine's stack
// trace spam). Simulation panics surface here too: the engine
// re-raises a job panic in every caller.
func (s *Server) withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.log.Error("panic", "path", r.URL.Path, "panic", fmt.Sprint(rec),
					"stack", string(debug.Stack()))
				writeError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", rec))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// heavy admits a simulation-triggering request through the
// request-level semaphore and attaches the per-request deadline.
// Saturation answers 429 + Retry-After immediately: the engine worker
// pool bounds simulation parallelism, this bounds how many requests
// may pile onto it at all, so a burst degrades into fast, explicit
// backpressure instead of an unbounded goroutine queue.
func (s *Server) heavy(h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.draining() {
			// New simulation work arriving on a draining process gets a
			// retryable rejection before any headers or stream framing
			// go out; only already-admitted requests ride out the grace
			// window.
			writeError(w, http.StatusServiceUnavailable, errDraining.Error())
			return
		}
		select {
		case s.sem <- struct{}{}:
		default:
			s.throttled.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.RetryAfter/time.Second)))
			writeError(w, http.StatusTooManyRequests,
				fmt.Sprintf("saturated: %d simulation requests in flight", cap(s.sem)))
			return
		}
		s.inflight.Add(1)
		release := func() {
			s.inflight.Add(-1)
			<-s.sem
		}
		if tw, ok := w.(*truncWriter); ok {
			// A stream the chaos layer severs keeps simulating into the
			// memo, but no client waits on it any more: it returns its
			// slot at the cut, as a handler whose client hung up would,
			// so resumed requests are not shed by their own orphans.
			release = sync.OnceFunc(release)
			tw.onSever = release
		}
		defer release()
		if s.cfg.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		h(w, r)
	})
}

// ndjsonEmitter switches the response to NDJSON streaming when the
// request asked for it and returns the event writer; nil means the
// caller should respond with plain JSON. Only truthy ?stream values
// stream ("1", "true", ...): ?stream=0 must get the documented
// plain-JSON response, not NDJSON.
func (s *Server) ndjsonEmitter(w http.ResponseWriter, r *http.Request) func(ev any) {
	streaming, _ := strconv.ParseBool(r.URL.Query().Get("stream"))
	if !streaming {
		return nil
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	flusher, _ := w.(http.Flusher)
	return func(ev any) {
		_ = enc.Encode(ev) // Encode appends the newline NDJSON needs
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// writeJSON writes a JSON response body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writeError writes the uniform JSON error body.
func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, client.ErrorResponse{Error: msg})
}

// statusForError maps a failed simulation request to its status: a
// server-imposed deadline is a 504, a vanished client gets a
// best-effort 499-style close (the write is moot anyway), and
// anything else — a contained simulation failure — is a 500.
func statusForError(err error) int {
	switch {
	case errors.Is(err, errDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request (nginx convention)
	default:
		return http.StatusInternalServerError
	}
}
