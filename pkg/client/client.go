package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"samielsq/internal/experiments"
	"samielsq/internal/obs"
)

// Client talks to a samie-serve instance. The zero value is not
// usable; construct with New. Safe for concurrent use.
type Client struct {
	base    string
	hc      *http.Client
	bo      Backoff
	retries int

	// speaksLayout is set once a run or probe answer arrives as a run
	// record in this build's layout, and cleared by a 415: while it is
	// set, Run sends spec records instead of JSON.
	speaksLayout atomic.Bool
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
	resp, err := c.send(ctx, method, path, in, "")
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

// specRecordBody is a POST /v1/runs body already encoded as a binary
// spec record; send posts it as SpecRecordContentType.
type specRecordBody []byte

// roundTripRun issues a run or probe request that accepts this
// build's binary run record and decodes whichever encoding the server
// answered with.
func (c *Client) roundTripRun(ctx context.Context, method, path string, in any) (RunResponse, error) {
	resp, err := c.send(ctx, method, path, in, RunRecordContentType)
	if err != nil {
		return RunResponse{}, err
	}
	defer resp.Body.Close()
	out, ours, err := decodeRun(resp)
	if ours {
		c.speaksLayout.Store(true)
	}
	if err != nil {
		return RunResponse{}, fmt.Errorf("client: decoding %s %s: %w", method, path, err)
	}
	return out, nil
}

// send issues the request and converts non-2xx statuses into
// *APIError; the caller owns the returned body. A non-nil in is the
// request body: a specRecordBody as is, anything else as JSON. A
// non-empty accept is sent as the Accept header.
//
// Failures below HTTP — connection refused, a reset before any
// response — are retried up to c.retries times under the shared
// backoff policy. A received response is never retried here, even a
// 5xx: *APIError classification (and the cluster's failover logic) own
// that layer, and streaming bodies that die mid-read are the stream
// consumer's problem (see cluster.RunSpecs resume).
func (c *Client) send(ctx context.Context, method, path string, in any, accept string) (*http.Response, error) {
	var data []byte
	contentType := "application/json"
	switch in := in.(type) {
	case nil:
	case specRecordBody:
		data, contentType = in, SpecRecordContentType
	default:
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
			req.Header.Set("Content-Type", contentType)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
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

// Run executes (or dedups, server-side) one simulation. The result
// travels as a binary run record when the server shares this build's
// record layout and the request did not set Timeline, and as JSON
// otherwise; either way it decodes to the same RunResponse.
//
// The request travels as JSON until the server has answered in this
// build's layout, and as a binary spec record from then on. A request
// Spec cannot convert, such as one naming an unknown model, still goes
// as JSON, so the server's 400 stays the authority on it. A 415 means
// the server behind the URL no longer speaks this layout: the client
// goes back to JSON and resends the request.
func (c *Client) Run(ctx context.Context, req RunRequest) (RunResponse, error) {
	if c.speaksLayout.Load() {
		if spec, err := req.Spec(); err == nil {
			body := specRecordBody(experiments.EncodeSpecRecord(spec, req.Timeline))
			out, err := c.roundTripRun(ctx, http.MethodPost, "/v1/runs", body)
			var ae *APIError
			if !errors.As(err, &ae) || ae.Status != http.StatusUnsupportedMediaType {
				return out, err
			}
			c.speaksLayout.Store(false)
		}
	}
	return c.roundTripRun(ctx, http.MethodPost, "/v1/runs", req)
}

// ProbeRun asks whether the server already holds the result for a
// canonical spec key — in memory or on disk — without executing
// anything. The second return is false (with a nil error) when the
// key is simply not cached; errors are transport or server failures.
// The result is negotiated as a binary run record, exactly as for Run.
func (c *Client) ProbeRun(ctx context.Context, key string) (RunResponse, bool, error) {
	out, err := c.roundTripRun(ctx, http.MethodGet, "/v1/runs/"+url.PathEscape(key), nil)
	if err != nil {
		if ae, ok := err.(*APIError); ok && ae.Status == http.StatusNotFound {
			return RunResponse{}, false, nil
		}
		return RunResponse{}, false, err
	}
	return out, true, nil
}

// Suite executes a shard — the explicit spec set in req.Specs, as a
// cluster coordinator assigns it (see pkg/cluster) — on the server.
// The server streams NDJSON, and onEvent, which must be non-nil,
// observes every event: a "run" as each simulation completes, then
// the final "result". An error event, or a stream that ends without
// the result, is an error.
func (c *Client) Suite(ctx context.Context, req SuiteRequest, onEvent func(SuiteEvent)) error {
	resp, err := c.send(ctx, http.MethodPost, "/v1/suite", req, "")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decodeSuiteStream(resp.Body, maxStreamLine, onEvent)
}

// decodeSuiteStream reads a suite's NDJSON event stream, handing every
// event to onEvent. An error event, a line that is not an event, a
// line longer than maxLine and a stream without a result event are
// errors.
func decodeSuiteStream(r io.Reader, maxLine int, onEvent func(SuiteEvent)) error {
	sawResult := false
	err := eachLine(r, maxLine, func(line []byte) error {
		var ev SuiteEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("client: bad stream line %q: %w", line, err)
		}
		onEvent(ev)
		switch ev.Type {
		case "error":
			return fmt.Errorf("server: %s", ev.Error)
		case "result":
			sawResult = true
		}
		return nil
	})
	if err == nil && !sawResult {
		err = errNoResult
	}
	return err
}

// Figure regenerates one figure-table row — a paper figure (a name
// from FigureNames) or a scenario sweep (a name from Scenarios) — over
// the benchmark subset (nil means the row's default: a scenario's own
// rows, else all 26) at the given instruction budget (0 means the
// server default).
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

// Metrics fetches the raw Prometheus exposition text.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	resp, err := c.send(ctx, http.MethodGet, "/metrics", nil, "")
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

// Timeline fetches a cached run's interval telemetry as NDJSON from
// GET /v1/runs/{key}/timeline and reassembles it. The second return is
// false (nil error) when the server retains no timeline for the key —
// not cached, or the result arrived via the disk/peer tier, which
// strips telemetry.
func (c *Client) Timeline(ctx context.Context, key string) (obs.Timeline, bool, error) {
	resp, err := c.send(ctx, http.MethodGet, "/v1/runs/"+url.PathEscape(key)+"/timeline", nil, "")
	if err != nil {
		if ae, ok := err.(*APIError); ok && ae.Status == http.StatusNotFound {
			return obs.Timeline{}, false, nil
		}
		return obs.Timeline{}, false, err
	}
	defer resp.Body.Close()
	t, err := decodeTimeline(resp.Body, maxStreamLine)
	if err != nil {
		return obs.Timeline{}, false, err
	}
	return t, true, nil
}

// decodeTimeline reassembles a timeline from its NDJSON stream: a
// leading meta line, {"key":..., "stride":..., "samples":...}, then
// one sample per line.
func decodeTimeline(r io.Reader, maxLine int) (obs.Timeline, error) {
	var t obs.Timeline
	first := true
	err := eachLine(r, maxLine, func(line []byte) error {
		if first {
			first = false
			var meta struct {
				Stride uint64 `json:"stride"`
			}
			if err := json.Unmarshal(line, &meta); err != nil {
				return fmt.Errorf("client: bad timeline meta %q: %w", line, err)
			}
			t.Stride = meta.Stride
			return nil
		}
		var ts obs.TimelineSample
		if err := json.Unmarshal(line, &ts); err != nil {
			return fmt.Errorf("client: bad timeline line %q: %w", line, err)
		}
		t.Samples = append(t.Samples, ts)
		return nil
	})
	if err != nil {
		return obs.Timeline{}, err
	}
	return t, nil
}

// maxStreamLine bounds one line of an NDJSON stream the client reads.
const maxStreamLine = 16 << 20

// errNoResult is a suite or scenario stream that ended without its
// result event: the server went away mid-stream.
var errNoResult = errors.New("client: stream ended without a result event")

// eachLine calls fn with every non-blank line of the NDJSON stream r,
// spaces trimmed, stopping at fn's first error. A line longer than
// maxLine bytes is an error.
func eachLine(r io.Reader, maxLine int, fn func(line []byte) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, min(64*1024, maxLine)), maxLine)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if err := fn(line); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("client: reading stream: %w", err)
	}
	return nil
}

// traceParentFor renders the traceparent header for a request: the
// identity of the span on ctx when one is there, else a fresh one.
func traceParentFor(ctx context.Context) string {
	if sc := obs.SpanContextFromContext(ctx); sc.IsValid() {
		return sc.TraceParent()
	}
	return obs.SpanContext{Trace: obs.NewTraceID(), Span: obs.NewSpanID()}.TraceParent()
}
