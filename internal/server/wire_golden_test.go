package server

import (
	"encoding/json"
	"net/http"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// wireGolden is one pinned POST /v1/runs exchange: the JSON request
// body a client sent, the key the server answered, and the JSON answer
// with its observability fields blanked (blankObservability).
type wireGolden struct {
	Name     string `json:"name"`
	Request  string `json:"request"`
	Key      string `json:"key"`
	Response string `json:"response"`
}

// wireGoldenFile holds one exchange per wireModels entry, in order. It
// was recorded from the server and client before the wire request
// embedded experiments.RunSpec, with the request keys in that build's
// order ("model" second), and is never rewritten by a test.
const wireGoldenFile = "testdata/wire_golden.json"

var (
	phasesField = regexp.MustCompile(`"phases":\{[^}]*\}`)
	simField    = regexp.MustCompile(`"sim":"[^"]*"`)
)

// blankObservability empties a JSON run response's phases and sim
// fields: wall-clock timings and the build stamp are the only bytes
// that differ between two builds serving the same simulation.
func blankObservability(body []byte) []byte {
	body = phasesField.ReplaceAll(body, []byte(`"phases":{}`))
	return simField.ReplaceAll(body, []byte(`"sim":""`))
}

// TestWireGolden pins the JSON wire format of POST /v1/runs for every
// LSQ model. The pinned request bodies decode to the same keys, the
// typed client's encoding of each request is the pinned body as a JSON
// value (key order aside), and the answer is the pinned bytes with
// phases and sim blanked.
func TestWireGolden(t *testing.T) {
	raw, err := os.ReadFile(wireGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var golden []wireGolden
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	if len(golden) != len(wireModels) {
		t.Fatalf("%s pins %d exchanges, wireModels has %d", wireGoldenFile, len(golden), len(wireModels))
	}
	_, ts, _ := newTestServer(t, Config{})
	for i, g := range golden {
		t.Run(g.Name, func(t *testing.T) {
			enc, err := json.Marshal(wireModels[i])
			if err != nil {
				t.Fatal(err)
			}
			var got, want any
			if err := json.Unmarshal(enc, &got); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal([]byte(g.Request), &want); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("request encodes as %s, pinned %s", enc, g.Request)
			}

			ct, body := fetchRun(t, http.MethodPost, ts.URL+"/v1/runs", json.RawMessage(g.Request), "")
			if out := decodeWire(t, ct, body); out.Key != g.Key {
				t.Errorf("pinned request decodes to key %q, pinned %q", out.Key, g.Key)
			}
			if got := blankObservability(body); string(got) != g.Response {
				t.Errorf("response differs from the pinned bytes:\n got %s\nwant %s", got, g.Response)
			}
		})
	}
}
