package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"samielsq/internal/faultinject"
	"samielsq/pkg/client"
)

// chaosState holds the live injector and the counts retired by earlier
// injectors, so samie_chaos_injected_total stays monotonic across
// POST /v1/chaos reconfigurations.
type chaosState struct {
	inj atomic.Pointer[faultinject.Injector]

	mu      sync.Mutex
	retired faultinject.Counts
}

// setChaos swaps the fault spec at runtime. An empty (disabled) spec
// removes the injector entirely, restoring the zero-cost disabled
// path.
func (s *Server) setChaos(spec faultinject.Spec) {
	s.chaos.mu.Lock()
	defer s.chaos.mu.Unlock()
	var next *faultinject.Injector
	if spec.Enabled() {
		next = faultinject.New(spec)
	}
	if old := s.chaos.inj.Swap(next); old != nil {
		s.chaos.retired.Add(old.Counts())
	}
}

// ChaosCounts reports total injected faults — retired injectors plus
// the live one — for callers outside the HTTP surface (tests, embedding
// harnesses).
func (s *Server) ChaosCounts() faultinject.Counts { return s.chaosCounts() }

// chaosCounts snapshots total injected faults: retired injectors plus
// the live one.
func (s *Server) chaosCounts() faultinject.Counts {
	s.chaos.mu.Lock()
	counts := s.chaos.retired
	s.chaos.mu.Unlock()
	if in := s.chaos.inj.Load(); in != nil {
		counts.Add(in.Counts())
	}
	return counts
}

// chaosSnapshot assembles the wire view served by GET /v1/chaos and
// embedded in /v1/stats.
func (s *Server) chaosSnapshot() client.ChaosState {
	st := client.ChaosState{Injected: chaosCountsWire(s.chaosCounts())}
	if in := s.chaos.inj.Load(); in != nil {
		st.Enabled = true
		st.Spec = in.Spec().String()
	}
	return st
}

func chaosCountsWire(c faultinject.Counts) client.ChaosCounts {
	return client.ChaosCounts{
		Errors:      c.Errors,
		Throttles:   c.Throttles,
		Resets:      c.Resets,
		Truncations: c.Truncations,
		Latencies:   c.Latencies,
		Total:       c.Total(),
	}
}

// handleChaosGet reports the current fault spec and fired-fault
// counters.
func (s *Server) handleChaosGet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.chaosSnapshot())
}

// handleChaosSet reconfigures fault injection at runtime. The body
// carries the same spec grammar as the -chaos flag; an empty spec
// disables injection.
func (s *Server) handleChaosSet(w http.ResponseWriter, r *http.Request) {
	var req client.ChaosRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad chaos request: %v", err))
		return
	}
	spec, err := faultinject.ParseSpec(req.Spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.setChaos(spec)
	s.log.Info("chaos reconfigured", "spec", spec.String(), "enabled", spec.Enabled())
	writeJSON(w, http.StatusOK, s.chaosSnapshot())
}

// chaosExempt lists the endpoints fault injection skips: liveness,
// observability, and the chaos control plane itself must stay
// dependable or tests (and operators) lose the ability to see what the
// chaos layer is doing.
func chaosExempt(path string) bool {
	return path == "/healthz" || path == "/metrics" ||
		path == "/v1/stats" || strings.HasPrefix(path, "/v1/chaos") ||
		strings.HasPrefix(path, "/v1/trace")
}

// withChaos applies the drawn fault plan to each request. When no
// injector is installed the middleware is one atomic load and a nil
// check — nothing on the simulation hot path changes, and the 0
// allocs/op guards are unaffected.
func (s *Server) withChaos(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		in := s.chaos.inj.Load()
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
