package server

import (
	"bytes"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"samielsq/internal/experiments"
	"samielsq/internal/obs"
)

// TestRequestLogLine pins the text of the per-request log line: its
// keys, their order and their values, for a request without trace
// context, a recorded request (its new trace and server span), a
// traced request (the propagated trace_id and the server span's
// span_id) and an untraced request that carries a traceparent (its
// trace_id only). The time key is dropped and the duration, the one value
// that varies between runs, is checked to parse and then masked.
func TestRequestLogLine(t *testing.T) {
	parent := obs.SpanContext{Trace: obs.NewTraceID(), Span: obs.NewSpanID()}
	const base = `level=INFO msg=request method=GET path=/healthz status=200 bytes=16 duration=D remote=192.0.2.1:1234`
	for _, c := range []struct {
		name        string
		recording   bool
		traceparent bool
		want        func(rec *obs.Recorder) string
	}{
		{"plain", false, false, func(*obs.Recorder) string { return base + "\n" }},
		{"recorded", true, false, func(rec *obs.Recorder) string {
			spans := rec.Spans()
			if len(spans) != 1 {
				t.Fatalf("recorded %d spans, want 1", len(spans))
			}
			return base + " trace_id=" + spans[0].TraceID + " span_id=" + spans[0].SpanID + "\n"
		}},
		{"traced", true, true, func(rec *obs.Recorder) string {
			spans := rec.Trace(parent.Trace.String())
			if len(spans) != 1 {
				t.Fatalf("recorded %d spans under the propagated trace, want 1", len(spans))
			}
			return base + " trace_id=" + parent.Trace.String() + " span_id=" + spans[0].SpanID + "\n"
		}},
		{"untraced with traceparent", false, true, func(*obs.Recorder) string {
			return base + " trace_id=" + parent.Trace.String() + "\n"
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			log := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{
				ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
					switch a.Key {
					case slog.TimeKey:
						return slog.Attr{}
					case "duration":
						if a.Value.Kind() != slog.KindString {
							t.Errorf("duration is a %v, want a string", a.Value.Kind())
						} else if _, err := time.ParseDuration(a.Value.String()); err != nil {
							t.Errorf("duration %q: %v", a.Value.String(), err)
						}
						return slog.String(a.Key, "D")
					}
					return a
				},
			}))
			rec := obs.NewRecorder(16)
			rec.SetEnabled(c.recording)
			s, err := New(Config{Batch: experiments.NewBatch(1), Logger: log, Recorder: rec})
			if err != nil {
				t.Fatal(err)
			}
			req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
			if c.traceparent {
				req.Header.Set("traceparent", parent.TraceParent())
			}
			s.Handler().ServeHTTP(httptest.NewRecorder(), req)
			if got, want := buf.String(), c.want(rec); got != want {
				t.Errorf("log line\n got %q\nwant %q", got, want)
			}
		})
	}
}
