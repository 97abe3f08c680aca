package client

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"samielsq/internal/core"
	"samielsq/internal/experiments"
)

// TestFigureNamesFollowTable pins the endpoint names to the library's
// figure table, in the paper's order.
func TestFigureNamesFollowTable(t *testing.T) {
	var table []string
	for _, f := range experiments.Figures() {
		table = append(table, f.Name)
	}
	paper := []string{"1", "3", "4", "56", "energy", "table1", "delays", "tables456", "claims"}
	if got := FigureNames(); !reflect.DeepEqual(got, table) || !reflect.DeepEqual(got, paper) {
		t.Errorf("FigureNames() = %v, want the table %v in paper order %v", got, table, paper)
	}
}

// TestRunRequestJSON: a request round-trips through its JSON in both
// decoders, the timeline option included, and a body without "model"
// decodes to a kind ValidateSpec refuses rather than to the kind
// numbered 0, whatever the decode target held before.
func TestRunRequestJSON(t *testing.T) {
	cfg := core.PaperConfig()
	want := RunRequest{RunSpec: experiments.RunSpec{
		Benchmark: "gzip", Insts: 2000, Model: ModelSAMIE, SAMIE: &cfg,
	}, Timeline: true}
	data, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	got := RunRequest{Timeline: true}
	if err := json.Unmarshal(data, &got); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("json.Unmarshal(%s) = %+v, %v", data, got, err)
	}
	if got, err := DecodeRunRequest(bytes.NewReader(data)); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("DecodeRunRequest(%s) = %+v, %v", data, got, err)
	}

	const noModel = `{"benchmark":"gzip","insts":2000}`
	stale := RequestFor(experiments.RunSpec{Model: ModelConventional, ConvEntries: 16})
	if err := json.Unmarshal([]byte(noModel), &stale); err != nil {
		t.Fatal(err)
	}
	fromReader, err := DecodeRunRequest(strings.NewReader(noModel))
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range []RunRequest{stale, fromReader} {
		if req.ConvEntries != 0 {
			t.Errorf("decoding kept a field the body does not name: %+v", req)
		}
		if _, err := experiments.ValidateSpec(req.RunSpec); err == nil || !strings.Contains(err.Error(), "unknown model kind") {
			t.Errorf("a body without a model validates: %+v, %v", req, err)
		}
	}
}

// FuzzDecodeSuiteRequest holds the one-pass shard decoder to
// encoding/json decoding the same body into a SuiteRequest (each spec
// through RunRequest.UnmarshalJSON): both fail, or both succeed with
// equal requests.
func FuzzDecodeSuiteRequest(f *testing.F) {
	for _, body := range []string{
		`{"specs":[{"benchmark":"gzip","model":"samie","insts":2000},{"benchmark":"swim"}],"peers":["http://a:1"]}`,
		`{"Specs":[{"benchmark":"gzip","model":"arb"}],"extra":{"x":[1,2]},"PEERS":null}`,
		`{"specs":[{"model":"samie"}],"specs":[null,{"benchmark":"mcf","model":"conventional","conv_entries":16}]}`,
		`{"specs":null}`, `{}`, `null`, `[]`, `{"specs":{}}`, `{"specs":[1]}`, `{"peers":5}`,
		`{"specs":[{"insts":"many"}]}`, `{"specs":[{"benchmark":"gzip","model":"quantum"}]}`,
		`{"specs":[]`, `{"specs"`, ``, `{"specs":[]} trailing`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := DecodeSuiteRequest(bytes.NewReader(body))
		var want SuiteRequest
		werr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		if (err == nil) != (werr == nil) {
			t.Fatalf("%q: DecodeSuiteRequest error %v, encoding/json error %v", body, err, werr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: DecodeSuiteRequest = %+v, encoding/json %+v", body, got, want)
		}
	})
}
