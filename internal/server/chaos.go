package server

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"samielsq/internal/faultinject"
	"samielsq/pkg/client"
)

// ChaosCounts reports the faults injected so far, for callers outside
// the HTTP surface (tests, embedding harnesses).
func (s *Server) ChaosCounts() faultinject.Counts {
	if s.chaos == nil {
		return faultinject.Counts{}
	}
	return s.chaos.Counts()
}

// chaosSnapshot assembles the chaos block embedded in /v1/stats.
func (s *Server) chaosSnapshot() client.ChaosState {
	c := s.ChaosCounts()
	st := client.ChaosState{Injected: client.ChaosCounts{
		Errors:      c.Errors,
		Throttles:   c.Throttles,
		Resets:      c.Resets,
		Truncations: c.Truncations,
		Latencies:   c.Latencies,
		Total:       c.Total(),
	}}
	if s.chaos != nil {
		st.Enabled = true
		st.Spec = s.chaos.Spec().String()
	}
	return st
}

// chaosExempt lists the endpoints fault injection skips: liveness and
// observability must stay dependable or tests (and operators) lose the
// ability to see what the chaos layer is doing.
func chaosExempt(path string) bool {
	return path == "/healthz" || path == "/metrics" ||
		path == "/v1/stats" || strings.HasPrefix(path, "/v1/trace")
}

// withChaos applies the drawn fault plan to each request. When no
// injector is installed the middleware is one nil check — nothing on
// the simulation hot path changes, and the 0 allocs/op guards are
// unaffected.
func (s *Server) withChaos(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		in := s.chaos
		if in == nil || chaosExempt(r.URL.Path) {
			next.ServeHTTP(w, r)
			return
		}
		plan := in.Plan()
		if plan.Latency > 0 {
			in.Fired(faultinject.KindLatency)
			select {
			case <-time.After(plan.Latency):
			case <-r.Context().Done():
				return
			}
		}
		switch plan.Kind {
		case faultinject.KindError:
			in.Fired(faultinject.KindError)
			writeError(w, http.StatusInternalServerError, "chaos: injected fault")
			return
		case faultinject.KindThrottle:
			in.Fired(faultinject.KindThrottle)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "chaos: injected throttle")
			return
		case faultinject.KindReset:
			in.Fired(faultinject.KindReset)
			abortConn(w, true)
			return
		}
		if plan.TruncAfter > 0 {
			next.ServeHTTP(&truncWriter{ResponseWriter: w, in: in, remaining: plan.TruncAfter}, r)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// abortConn severs the underlying connection. With rst the socket is
// closed with linger 0 so the peer sees an RST (connection reset);
// without it a plain close leaves a chunked response unterminated, so
// the peer reads the bytes already flushed and then hits an
// unexpected-EOF mid-body. Falls through silently when the
// ResponseWriter cannot hijack (e.g. httptest.ResponseRecorder) — the
// response simply ends.
func abortConn(w http.ResponseWriter, rst bool) {
	hj, ok := w.(http.Hijacker)
	if !ok {
		return
	}
	conn, _, err := hj.Hijack()
	if err != nil {
		return
	}
	if rst {
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.SetLinger(0)
		}
	}
	_ = conn.Close()
}

// truncWriter delivers the first `remaining` response-body bytes, then
// severs the connection mid-body. The handler keeps running against a
// dead writer on purpose: a truncated suite stream still finishes its
// simulations and memoizes them, which is exactly the scenario the
// coordinator's stream resume exists for (the re-request is served
// from memo as Hits, preserving exactly-once Executed accounting).
// onSever, set by the admission middleware, runs once at the cut.
type truncWriter struct {
	http.ResponseWriter
	in        *faultinject.Injector
	remaining int
	truncated bool
	onSever   func()
}

func (w *truncWriter) Write(p []byte) (int, error) {
	if w.truncated {
		return len(p), nil
	}
	if len(p) < w.remaining {
		w.remaining -= len(p)
		return w.ResponseWriter.Write(p)
	}
	_, _ = w.ResponseWriter.Write(p[:w.remaining])
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
	w.truncated = true
	w.remaining = 0
	w.in.Fired(faultinject.KindTruncate)
	abortConn(w.ResponseWriter, false)
	if w.onSever != nil {
		w.onSever()
	}
	return len(p), nil
}

func (w *truncWriter) Flush() {
	if w.truncated {
		return
	}
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *truncWriter) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	hj, ok := w.ResponseWriter.(http.Hijacker)
	if !ok {
		return nil, nil, fmt.Errorf("server: response writer cannot hijack")
	}
	return hj.Hijack()
}
