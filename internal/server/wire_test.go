package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"samielsq/internal/core"
	"samielsq/internal/experiments"
	"samielsq/internal/faultinject"
	"samielsq/pkg/client"
)

// wireModels is one run request per LSQ model.
var wireModels = []client.RunRequest{
	{RunSpec: experiments.RunSpec{Benchmark: "gzip", Model: client.ModelConventional, Insts: testInsts}},
	{RunSpec: experiments.RunSpec{Benchmark: "gzip", Model: client.ModelUnbounded, Insts: testInsts}},
	{RunSpec: experiments.RunSpec{Benchmark: "gzip", Model: client.ModelARB, Insts: testInsts, ARBBanks: 64, ARBAddrs: 2, ARBInflight: 128}},
	{RunSpec: experiments.RunSpec{Benchmark: "gzip", Model: client.ModelSAMIE, Insts: testInsts}},
}

// specBody is a POST /v1/runs body sent as a binary spec record with
// this build's layout.
type specBody []byte

// specBodyFor encodes a run request as the typed client's spec record.
func specBodyFor(req client.RunRequest) specBody {
	return specBody(experiments.EncodeSpecRecord(req.RunSpec, req.Timeline))
}

// doRun issues one run (body non-nil: a specBody as a spec record,
// anything else as JSON) or probe request with the given Accept header
// and returns the response's status, header and body.
func doRun(t *testing.T, method, url string, body any, accept string) (int, http.Header, []byte) {
	t.Helper()
	var rd io.Reader
	contentType := "application/json"
	switch b := body.(type) {
	case nil:
	case specBody:
		rd, contentType = bytes.NewReader(b), client.SpecRecordContentType
	default:
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, raw
}

// fetchRun is doRun for a request that must succeed; it returns the
// response's content type and body.
func fetchRun(t *testing.T, method, url string, body any, accept string) (string, []byte) {
	t.Helper()
	status, header, raw := doRun(t, method, url, body, accept)
	if status != http.StatusOK {
		t.Fatalf("%s %s: status %d: %s", method, url, status, raw)
	}
	if !strings.Contains(header.Get("Vary"), "Accept") {
		t.Errorf("%s %s: negotiated response without Vary: Accept", method, url)
	}
	return header.Get("Content-Type"), raw
}

// decodeWire decodes a run response body by its content type.
func decodeWire(t *testing.T, contentType string, raw []byte) client.RunResponse {
	t.Helper()
	if contentType == client.RunRecordContentType {
		res, sim, err := experiments.DecodeRunRecord(raw)
		if err != nil {
			t.Fatalf("binary run record rejected: %v", err)
		}
		return client.ResponseFor(res, sim)
	}
	if contentType != "application/json" {
		t.Fatalf("unexpected content type %q", contentType)
	}
	var out client.RunResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRunRecordMatchesJSON: for every LSQ model, on both the run and
// the probe endpoint, the binary record a Go client negotiates and the
// JSON every other client gets decode to the same RunResponse, and the
// JSON is exactly the bytes the server wrote before negotiation
// existed.
func TestRunRecordMatchesJSON(t *testing.T) {
	_, ts, batch := newTestServer(t, Config{})
	for _, req := range wireModels {
		t.Run(experiments.ModelName(req.Model), func(t *testing.T) {
			jsonType, jsonBody := fetchRun(t, http.MethodPost, ts.URL+"/v1/runs", req, "")
			if jsonType != "application/json" {
				t.Fatalf("no Accept header: content type %q, want JSON", jsonType)
			}
			want := decodeWire(t, jsonType, jsonBody)
			// Only the conventional and SAMIE models account LSQ energy.
			accounted := req.Model == client.ModelConventional || req.Model == client.ModelSAMIE
			if want.Phases.Measured == 0 || accounted && want.LSQEnergyNJ == 0 {
				t.Fatalf("run lacks phases or energy to compare: %+v", want)
			}

			res, ok := batch.Cached(want.Key)
			if !ok {
				t.Fatal("run not cached")
			}
			rec := httptest.NewRecorder()
			writeJSON(rec, http.StatusOK, runResponseFor(res))
			if !bytes.Equal(jsonBody, rec.Body.Bytes()) {
				t.Errorf("JSON body differs from writeJSON(runResponseFor(...)):\n got %s\nwant %s", jsonBody, rec.Body.Bytes())
			}

			binType, binBody := fetchRun(t, http.MethodPost, ts.URL+"/v1/runs", req, client.RunRecordContentType)
			if binType != client.RunRecordContentType {
				t.Fatalf("record Accept: content type %q, want %q", binType, client.RunRecordContentType)
			}
			if got := decodeWire(t, binType, binBody); !reflect.DeepEqual(got, want) {
				t.Errorf("binary run differs from JSON run:\n got %+v\nwant %+v", got, want)
			}

			probe := ts.URL + "/v1/runs/" + url.PathEscape(want.Key)
			for _, accept := range []string{"", client.RunRecordContentType} {
				ct, body := fetchRun(t, http.MethodGet, probe, nil, accept)
				if (ct == client.RunRecordContentType) != (accept != "") {
					t.Errorf("probe with Accept %q answered %q", accept, ct)
				}
				if got := decodeWire(t, ct, body); !reflect.DeepEqual(got, want) {
					t.Errorf("probe (%s) differs from JSON run:\n got %+v\nwant %+v", ct, got, want)
				}
			}
		})
	}
}

// TestRunNegotiationFallsBackToJSON: only this build's exact layout
// selects the record; timeline requests always get JSON because the
// record carries no telemetry.
func TestRunNegotiationFallsBackToJSON(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	req := client.RunRequest{RunSpec: experiments.RunSpec{Benchmark: "gzip", Model: client.ModelSAMIE, Insts: testInsts}}
	for _, accept := range []string{
		"application/json",
		client.RunRecordType,
		client.RunRecordType + "; layout=0",
		client.RunRecordType + "; layout=" + experiments.RunRecordLayout + "0",
		"text/plain; layout=" + experiments.RunRecordLayout,
	} {
		if ct, _ := fetchRun(t, http.MethodPost, ts.URL+"/v1/runs", req, accept); ct != "application/json" {
			t.Errorf("Accept %q: content type %q, want JSON", accept, ct)
		}
	}
	if ct, _ := fetchRun(t, http.MethodPost, ts.URL+"/v1/runs", req,
		"application/json, "+client.RunRecordContentType); ct != client.RunRecordContentType {
		t.Errorf("record in an Accept list: content type %q, want the record", ct)
	}

	timeline := req
	timeline.Insts = 2 * testInsts // a fresh simulation, so a timeline is retained
	timeline.Timeline = true
	ct, body := fetchRun(t, http.MethodPost, ts.URL+"/v1/runs", timeline, client.RunRecordContentType)
	if ct != "application/json" {
		t.Fatalf("timeline request: content type %q, want JSON", ct)
	}
	if out := decodeWire(t, ct, body); out.Timeline == nil || len(out.Timeline.Samples) == 0 {
		t.Error("timeline request answered without its timeline")
	}
}

// TestChaosTruncatedRunRecordIsAnError: a binary record cut mid-body
// is a client error, never a zero-valued result.
func TestChaosTruncatedRunRecordIsAnError(t *testing.T) {
	spec, _ := faultinject.ParseSpec("trunc=1,seed=3")
	s, ts, _ := newTestServer(t, Config{Chaos: spec})
	c := chaosClient(ts.URL)
	req := client.RunRequest{RunSpec: experiments.RunSpec{Benchmark: "gzip", Model: client.ModelSAMIE, Insts: testInsts}}
	for range 200 {
		before := s.ChaosCounts().Truncations
		out, err := c.Run(context.Background(), req)
		if s.ChaosCounts().Truncations == before {
			// The cut fell past the end of the record.
			if err != nil {
				t.Fatalf("untruncated run failed: %v", err)
			}
			continue
		}
		if err == nil {
			t.Fatalf("truncated run record decoded without error: %+v", out)
		}
		if !reflect.DeepEqual(out, client.RunResponse{}) {
			t.Fatalf("truncated run returned a partial result: %+v", out)
		}
		return
	}
	t.Fatal("no truncation fell inside a run record")
}

// TestSpecRecordMatchesJSON: for every LSQ model, and for a timeline
// request, a spec record and a JSON body naming the same spec reach
// the same key and get byte-identical answers, in JSON and in the run
// record alike.
func TestSpecRecordMatchesJSON(t *testing.T) {
	_, ts, batch := newTestServer(t, Config{})
	timeline := client.RunRequest{RunSpec: experiments.RunSpec{Benchmark: "gzip", Model: client.ModelSAMIE, Insts: 2 * testInsts}, Timeline: true}
	for _, req := range append(wireModels, timeline) {
		name := experiments.ModelName(req.Model)
		if req.Timeline {
			name += "-timeline"
		}
		t.Run(name, func(t *testing.T) {
			executed := batch.Stats().Executed
			for _, accept := range []string{"", client.RunRecordContentType} {
				jsonType, jsonBody := fetchRun(t, http.MethodPost, ts.URL+"/v1/runs", req, accept)
				specType, specBody := fetchRun(t, http.MethodPost, ts.URL+"/v1/runs", specBodyFor(req), accept)
				if specType != jsonType || !bytes.Equal(specBody, jsonBody) {
					t.Fatalf("Accept %q: spec record answered %q %q, JSON body answered %q %q",
						accept, specType, specBody, jsonType, jsonBody)
				}
				out := decodeWire(t, jsonType, jsonBody)
				if want := experiments.Key(req.RunSpec); out.Key != want {
					t.Errorf("answer key %q, want %q", out.Key, want)
				}
				if req.Timeline && (out.Timeline == nil || len(out.Timeline.Samples) == 0) {
					t.Error("timeline request answered without its timeline")
				}
			}
			if got := batch.Stats().Executed - executed; got != 1 {
				t.Errorf("%d simulations for one spec in two encodings, want 1", got)
			}
		})
	}
}

// TestSpecRecordRejects: a spec record of another layout, or with no
// layout, is refused with 415 and a JSON error body; a malformed
// record, and a well-formed one naming an unknown model kind, get 400.
// Nothing reaches the engine.
func TestSpecRecordRejects(t *testing.T) {
	_, ts, batch := newTestServer(t, Config{})
	valid := experiments.EncodeSpecRecord(experiments.RunSpec{Benchmark: "gzip", Insts: testInsts, Model: experiments.ModelSAMIE}, false)
	for _, contentType := range []string{
		client.SpecRecordType + "; layout=0",
		client.SpecRecordType,
		client.SpecRecordType + "; layout=" + experiments.RunRecordLayout + "0",
	} {
		resp, err := http.Post(ts.URL+"/v1/runs", contentType, bytes.NewReader(valid))
		if err != nil {
			t.Fatal(err)
		}
		er := decodeBody[client.ErrorResponse](t, resp)
		if resp.StatusCode != http.StatusUnsupportedMediaType || er.Error == "" ||
			resp.Header.Get("Content-Type") != "application/json" {
			t.Errorf("Content-Type %q: status %d (%s), error %q; want 415 with a JSON error",
				contentType, resp.StatusCode, resp.Header.Get("Content-Type"), er.Error)
		}
	}
	for name, body := range map[string]specBody{
		"truncated":          specBody(valid[:len(valid)-1]),
		"run record":         specBody(experiments.EncodeRunRecord(batch.Run(experiments.RunSpec{Benchmark: "gzip", Insts: testInsts, Model: experiments.ModelUnbounded}))),
		"model out of range": specBody(experiments.EncodeSpecRecord(experiments.RunSpec{Benchmark: "gzip", Model: experiments.ModelSAMIE + 1}, false)),
		"empty":              specBody{},
	} {
		status, _, raw := doRun(t, http.MethodPost, ts.URL+"/v1/runs", body, "")
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, status, raw)
		}
	}
	if st := batch.Stats(); st.Requests != 1 {
		t.Errorf("rejected spec records reached the engine: %+v", st)
	}
}

// TestLongSAMIELineIs400 is the regression test for a SAMIE line
// longer than the L1D line: the simulator used to panic on it, and the
// server memoized the panic as a 500. Now it is a 400 in both
// encodings, every time, and nothing simulates or is memoized.
func TestLongSAMIELineIs400(t *testing.T) {
	_, ts, batch := newTestServer(t, Config{})
	cfg := core.PaperConfig()
	cfg.LineBytes = 64
	req := client.RunRequest{RunSpec: experiments.RunSpec{Benchmark: "gzip", Model: client.ModelSAMIE, Insts: 2000, SAMIE: &cfg}}
	for _, body := range []any{req, req, specBodyFor(req), specBodyFor(req)} {
		status, _, raw := doRun(t, http.MethodPost, ts.URL+"/v1/runs", body, "")
		var er client.ErrorResponse
		if err := json.Unmarshal(raw, &er); err != nil || status != http.StatusBadRequest ||
			!strings.Contains(er.Error, "L1D line") {
			t.Errorf("%T body: status %d, body %s; want 400 naming the L1D line", body, status, raw)
		}
	}
	if _, ok := batch.Cached(experiments.Key(req.RunSpec)); ok {
		t.Error("the rejected spec is memoized under its key")
	}
	if st := batch.Stats(); st.Executed != 0 || st.Requests != 0 || batch.DistinctRuns() != 0 {
		t.Errorf("the rejected spec reached the engine: %+v", st)
	}
}

// BenchmarkDecodeRunRequest compares the server's two request decoders
// on one POST /v1/runs body naming a normalized SAMIE spec: the JSON
// every client may send and the spec record the typed client sends.
func BenchmarkDecodeRunRequest(b *testing.B) {
	spec := experiments.Normalize(experiments.RunSpec{Benchmark: "gzip", Insts: 2000, Model: experiments.ModelSAMIE})
	jsonBody, err := json.Marshal(client.RequestFor(spec))
	if err != nil {
		b.Fatal(err)
	}
	for _, enc := range []struct {
		name, contentType string
		body              []byte
	}{
		{"json", "application/json", jsonBody},
		{"record", client.SpecRecordContentType, experiments.EncodeSpecRecord(spec, false)},
	} {
		b.Run(enc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(enc.body)))
			w := httptest.NewRecorder()
			for b.Loop() {
				r := httptest.NewRequest(http.MethodPost, "/v1/runs", bytes.NewReader(enc.body))
				r.Header.Set("Content-Type", enc.contentType)
				if _, _, _, err := decodeRunRequest(w, r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecodeSuiteRequest decodes a POST /v1/suite shard of 64
// normalized specs (a SAMIE, a conventional, an ARB and an unbounded
// spec of each of 16 programs) two ways: the handler's one-pass
// client.DecodeSuiteRequest, and encoding/json into a SuiteRequest,
// which scans each spec again in RunRequest.UnmarshalJSON.
func BenchmarkDecodeSuiteRequest(b *testing.B) {
	var req client.SuiteRequest
	for _, bench := range experiments.Benchmarks()[:16] {
		for _, kind := range []experiments.ModelKind{experiments.ModelSAMIE, experiments.ModelConventional, experiments.ModelARB, experiments.ModelUnbounded} {
			req.Specs = append(req.Specs, client.RequestFor(experiments.Normalize(experiments.RunSpec{Benchmark: bench, Insts: 2000, Model: kind})))
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	for _, dec := range []struct {
		name   string
		decode func([]byte) (client.SuiteRequest, error)
	}{
		{"one-pass", func(body []byte) (client.SuiteRequest, error) {
			return client.DecodeSuiteRequest(bytes.NewReader(body))
		}},
		{"encoding-json", func(body []byte) (r client.SuiteRequest, err error) {
			err = json.NewDecoder(bytes.NewReader(body)).Decode(&r)
			return r, err
		}},
	} {
		b.Run(dec.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for b.Loop() {
				if got, err := dec.decode(body); err != nil || len(got.Specs) != 64 {
					b.Fatalf("decoded %d specs, %v", len(got.Specs), err)
				}
			}
		})
	}
}
