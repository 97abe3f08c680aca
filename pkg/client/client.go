package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"samielsq/internal/obs"
)

// Client talks to a samie-serve instance. The zero value is not
// usable; construct with New. Safe for concurrent use.
type Client struct {
	base    string
	hc      *http.Client
	bo      Backoff
	retries int
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles). The default client has no timeout:
// simulations legitimately run for minutes, so deadlines belong on the
// request context.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithBackoff substitutes the retry policy used for transport-level
// retries (and inherited by the cluster coordinator when it builds
// per-replica clients).
func WithBackoff(bo Backoff) Option {
	return func(c *Client) { c.bo = bo }
}

// WithTransportRetries sets how many times send re-issues a request
// that failed below HTTP (connection refused/reset before a response).
// Negative disables retries entirely; default 2.
func WithTransportRetries(n int) Option {
	return func(c *Client) { c.retries = n }
}

// New returns a client for the server at base, e.g.
// "http://localhost:8344".
func New(base string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(base, "/"), hc: &http.Client{}, retries: 2}
	for _, o := range opts {
		o(c)
	}
	if c.retries < 0 {
		c.retries = 0
	}
	return c
}

// APIError is a non-2xx response from the server.
type APIError struct {
	Status     int           // HTTP status code
	Message    string        // server-provided error text
	RetryAfter time.Duration // from Retry-After on 429, else 0
}

func (e *APIError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("server: %s (HTTP %d, retry after %s)", e.Message, e.Status, e.RetryAfter)
	}
	return fmt.Sprintf("server: %s (HTTP %d)", e.Message, e.Status)
}

// IsThrottled reports whether err is the server shedding load (HTTP
// 429); the caller should back off by err.RetryAfter.
func IsThrottled(err error) bool {
	ae, ok := err.(*APIError)
	return ok && ae.Status == http.StatusTooManyRequests
}

// roundTrip issues one JSON request; out may be nil to discard the
// body.
func (c *Client) roundTrip(ctx context.Context, method, path string, in, out any) error {
	resp, err := c.send(ctx, method, path, in)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out == nil {
		_, err := io.Copy(io.Discard, resp.Body)
		return err
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decoding %s %s: %w", method, path, err)
	}
	return nil
}

// send issues the request and converts non-2xx statuses into
// *APIError; the caller owns the returned body.
//
// Failures below HTTP — connection refused, a reset before any
// response — are retried up to c.retries times under the shared
// backoff policy. A received response is never retried here, even a
// 5xx: *APIError classification (and the cluster's failover logic) own
// that layer, and streaming bodies that die mid-read are the stream
// consumer's problem (see cluster.RunSpecs resume).
func (c *Client) send(ctx context.Context, method, path string, in any) (*http.Response, error) {
	var data []byte
	if in != nil {
		var err error
		data, err = json.Marshal(in)
		if err != nil {
			return nil, fmt.Errorf("client: encoding %s %s: %w", method, path, err)
		}
	}
	// Every request carries a W3C traceparent: the span already on ctx
	// (a sweep's chunk span, a traced driver) when there is one,
	// otherwise a fresh identity — so server-side logs and traces
	// always have a correlation ID, traced or not. Computed before the
	// attempt loop: transport retries are one logical request and reuse
	// its identity.
	traceParent := traceParentFor(ctx)
	var resp *http.Response
	for attempt := 0; ; attempt++ {
		var body io.Reader
		if in != nil {
			body = bytes.NewReader(data)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
		if err != nil {
			return nil, err
		}
		if in != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		req.Header.Set("traceparent", traceParent)
		resp, err = c.hc.Do(req)
		if err == nil {
			break
		}
		if ctx.Err() != nil || attempt >= c.retries {
			return nil, err
		}
		if serr := c.bo.Sleep(ctx, path, attempt, err); serr != nil {
			return nil, err
		}
	}
	if resp.StatusCode/100 == 2 {
		return resp, nil
	}
	defer resp.Body.Close()
	ae := &APIError{Status: resp.StatusCode}
	if d, ok := ParseRetryAfter(resp.Header.Get("Retry-After")); ok {
		ae.RetryAfter = d
	}
	var er ErrorResponse
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if json.Unmarshal(raw, &er) == nil && er.Error != "" {
		ae.Message = er.Error
	} else {
		ae.Message = strings.TrimSpace(string(raw))
	}
	if ae.Message == "" {
		ae.Message = resp.Status
	}
	return nil, ae
}

// Verify *Client keeps satisfying the shared driver surface.
var _ API = (*Client)(nil)

// Run executes (or dedups, server-side) one simulation.
func (c *Client) Run(ctx context.Context, req RunRequest) (RunResponse, error) {
	var out RunResponse
	err := c.roundTrip(ctx, http.MethodPost, "/v1/runs", req, &out)
	return out, err
}

// ProbeRun asks whether the server already holds the result for a
// canonical spec key — in memory or on disk — without executing
// anything. The second return is false (with a nil error) when the
// key is simply not cached; errors are transport or server failures.
func (c *Client) ProbeRun(ctx context.Context, key string) (RunResponse, bool, error) {
	var out RunResponse
	err := c.roundTrip(ctx, http.MethodGet, "/v1/runs/"+url.PathEscape(key), nil, &out)
	if err != nil {
		if ae, ok := err.(*APIError); ok && ae.Status == http.StatusNotFound {
			return RunResponse{}, false, nil
		}
		return RunResponse{}, false, err
	}
	return out, true, nil
}

// Suite executes a suite spec set — the full enumeration, or the
// explicit shard in req.Specs — on the server. With a nil onEvent the
// call blocks for the collected result; with onEvent set the server
// streams NDJSON and onEvent observes every run as its simulation
// completes. Either way the returned response carries every run.
func (c *Client) Suite(ctx context.Context, req SuiteRequest, onEvent func(SuiteEvent)) (SuiteResponse, error) {
	if onEvent == nil {
		var out SuiteResponse
		err := c.roundTrip(ctx, http.MethodPost, "/v1/suite", req, &out)
		return out, err
	}
	resp, err := c.send(ctx, http.MethodPost, "/v1/suite?stream=1", req)
	if err != nil {
		return SuiteResponse{}, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var out SuiteResponse
	sawResult := false
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev SuiteEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return SuiteResponse{}, fmt.Errorf("client: bad stream line %q: %w", line, err)
		}
		onEvent(ev)
		switch ev.Type {
		case "error":
			return SuiteResponse{}, fmt.Errorf("server: %s", ev.Error)
		case "run":
			if ev.Run != nil {
				out.Runs = append(out.Runs, *ev.Run)
			}
		case "result":
			out.Total = ev.Total
			sawResult = true
		}
	}
	if err := sc.Err(); err != nil {
		return SuiteResponse{}, fmt.Errorf("client: reading stream: %w", err)
	}
	if !sawResult {
		return SuiteResponse{}, fmt.Errorf("client: stream ended without a result event")
	}
	return out, nil
}

// Figure regenerates one paper figure (a name from FigureNames) over
// the benchmark subset (nil means all 26) at the given instruction
// budget (0 means the server default).
func (c *Client) Figure(ctx context.Context, figure string, benchmarks []string, insts uint64) (FigureResponse, error) {
	q := url.Values{}
	if len(benchmarks) > 0 {
		q.Set("bench", strings.Join(benchmarks, ","))
	}
	if insts > 0 {
		q.Set("insts", strconv.FormatUint(insts, 10))
	}
	path := "/v1/figures/" + url.PathEscape(figure)
	if enc := q.Encode(); enc != "" {
		path += "?" + enc
	}
	var out FigureResponse
	err := c.roundTrip(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// Scenarios lists the registered scenario sweeps.
func (c *Client) Scenarios(ctx context.Context) ([]ScenarioInfo, error) {
	var out []ScenarioInfo
	err := c.roundTrip(ctx, http.MethodGet, "/v1/scenarios", nil, &out)
	return out, err
}

// RunScenario evaluates a registered sweep. With a nil onEvent the
// call blocks for the final result; with onEvent set the server
// streams NDJSON progress and onEvent observes every cell as its
// simulation completes, before the final result is returned.
func (c *Client) RunScenario(ctx context.Context, name string, req ScenarioRunRequest, onEvent func(ScenarioEvent)) (ScenarioRunResponse, error) {
	path := "/v1/scenarios/" + url.PathEscape(name) + "/run"
	if onEvent == nil {
		var out ScenarioRunResponse
		err := c.roundTrip(ctx, http.MethodPost, path, req, &out)
		return out, err
	}
	resp, err := c.send(ctx, http.MethodPost, path+"?stream=1", req)
	if err != nil {
		return ScenarioRunResponse{}, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var final ScenarioRunResponse
	sawResult := false
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev ScenarioEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return ScenarioRunResponse{}, fmt.Errorf("client: bad stream line %q: %w", line, err)
		}
		onEvent(ev)
		switch ev.Type {
		case "error":
			return ScenarioRunResponse{}, fmt.Errorf("server: %s", ev.Error)
		case "result":
			if ev.Result != nil {
				final = ScenarioRunResponse{Result: *ev.Result, Text: ev.Text}
				sawResult = true
			}
		}
	}
	if err := sc.Err(); err != nil {
		return ScenarioRunResponse{}, fmt.Errorf("client: reading stream: %w", err)
	}
	if !sawResult {
		return ScenarioRunResponse{}, fmt.Errorf("client: stream ended without a result event")
	}
	return final, nil
}

// Stats fetches the server's engine/disk/process accounting.
func (c *Client) Stats(ctx context.Context) (StatsResponse, error) {
	var out StatsResponse
	err := c.roundTrip(ctx, http.MethodGet, "/v1/stats", nil, &out)
	return out, err
}

// Health probes /healthz; nil means the server is up and serving.
func (c *Client) Health(ctx context.Context) error {
	return c.roundTrip(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Chaos reports the server's fault-injection state and fired-fault
// counters.
func (c *Client) Chaos(ctx context.Context) (ChaosState, error) {
	var out ChaosState
	err := c.roundTrip(ctx, http.MethodGet, "/v1/chaos", nil, &out)
	return out, err
}

// SetChaos reconfigures the server's fault injection at runtime; an
// empty spec disables it. Returns the resulting state.
func (c *Client) SetChaos(ctx context.Context, spec string) (ChaosState, error) {
	var out ChaosState
	err := c.roundTrip(ctx, http.MethodPost, "/v1/chaos", ChaosRequest{Spec: spec}, &out)
	return out, err
}

// Metrics fetches the raw Prometheus exposition text.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	resp, err := c.send(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return string(data), err
}

// Trace fetches every span the server's recorder retains for one
// trace ID (lowercase hex). The second return is false (nil error)
// when the server holds no spans for the ID — never recorded, or
// already evicted from the ring.
func (c *Client) Trace(ctx context.Context, traceID string) (TraceResponse, bool, error) {
	var out TraceResponse
	err := c.roundTrip(ctx, http.MethodGet, "/v1/trace/"+url.PathEscape(traceID), nil, &out)
	if err != nil {
		if ae, ok := err.(*APIError); ok && ae.Status == http.StatusNotFound {
			return TraceResponse{}, false, nil
		}
		return TraceResponse{}, false, err
	}
	return out, true, nil
}

// Traces lists the server's recent root spans, newest-first, plus the
// replica's dropped-span count; limit <= 0 takes the server default.
func (c *Client) Traces(ctx context.Context, limit int) (TracesResponse, error) {
	path := "/v1/traces"
	if limit > 0 {
		path += "?limit=" + strconv.Itoa(limit)
	}
	var out TracesResponse
	err := c.roundTrip(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// Timeline fetches a cached run's interval telemetry as NDJSON from
// GET /v1/runs/{key}/timeline and reassembles it. The second return is
// false (nil error) when the server retains no timeline for the key —
// not cached, or the result arrived via the disk/peer tier, which
// strips telemetry.
func (c *Client) Timeline(ctx context.Context, key string) (obs.Timeline, bool, error) {
	resp, err := c.send(ctx, http.MethodGet, "/v1/runs/"+url.PathEscape(key)+"/timeline", nil)
	if err != nil {
		if ae, ok := err.(*APIError); ok && ae.Status == http.StatusNotFound {
			return obs.Timeline{}, false, nil
		}
		return obs.Timeline{}, false, err
	}
	defer resp.Body.Close()
	var t obs.Timeline
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	first := true
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if first {
			// Leading meta line: {"key":..., "stride":..., "samples":...}.
			first = false
			var meta struct {
				Stride uint64 `json:"stride"`
			}
			if err := json.Unmarshal(line, &meta); err != nil {
				return obs.Timeline{}, false, fmt.Errorf("client: bad timeline meta %q: %w", line, err)
			}
			t.Stride = meta.Stride
			continue
		}
		var ts obs.TimelineSample
		if err := json.Unmarshal(line, &ts); err != nil {
			return obs.Timeline{}, false, fmt.Errorf("client: bad timeline line %q: %w", line, err)
		}
		t.Samples = append(t.Samples, ts)
	}
	if err := sc.Err(); err != nil {
		return obs.Timeline{}, false, fmt.Errorf("client: reading timeline: %w", err)
	}
	return t, true, nil
}

// traceParentFor renders the traceparent header for a request: the
// identity of the span on ctx when one is there, else a fresh one.
func traceParentFor(ctx context.Context) string {
	if sc := obs.SpanContextFromContext(ctx); sc.IsValid() {
		return sc.TraceParent()
	}
	return obs.SpanContext{Trace: obs.NewTraceID(), Span: obs.NewSpanID()}.TraceParent()
}
