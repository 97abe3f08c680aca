package client

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// fuzzStreamLine is the line cap FuzzDecodeStream decodes under, small
// enough for a committed seed to cross it.
const fuzzStreamLine = 1024

// FuzzDecodeStream feeds arbitrary bytes to the client's NDJSON stream
// decoders as a server's response body. None may panic. A suite stream
// is either rejected, or decodes to exactly the stream's run events, in
// order, after a result event and no error event; its onEvent sees
// every non-blank line.
func FuzzDecodeStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		events := 0
		out, err := decodeSuiteStream(bytes.NewReader(data), fuzzStreamLine, func(SuiteEvent) { events++ })
		decodeTimeline(bytes.NewReader(data), fuzzStreamLine)
		if err != nil {
			if len(out.Runs) != 0 || out.Total != 0 {
				t.Fatalf("rejected stream (%v) returned %+v", err, out)
			}
			return
		}
		var runs []RunResponse
		lines, sawResult := 0, false
		for _, line := range bytes.Split(data, []byte("\n")) {
			line = bytes.TrimSpace(line)
			if len(line) == 0 {
				continue
			}
			lines++
			var ev SuiteEvent
			if err := json.Unmarshal(line, &ev); err != nil {
				t.Fatalf("accepted a stream with the bad line %q: %v", line, err)
			}
			switch ev.Type {
			case "error":
				t.Fatalf("accepted a stream with the error event %q", line)
			case "run":
				if ev.Run != nil {
					runs = append(runs, *ev.Run)
				}
			case "result":
				sawResult = true
			}
		}
		if !sawResult {
			t.Fatal("accepted a stream without a result event")
		}
		if events != lines {
			t.Fatalf("onEvent saw %d events of %d lines", events, lines)
		}
		if !reflect.DeepEqual(out.Runs, runs) {
			t.Fatalf("decoded runs %+v, want the stream's run events %+v", out.Runs, runs)
		}
	})
}

// TestDecodeStreamSeeds pins what each committed FuzzDecodeStream
// seed decodes to.
func TestDecodeStreamSeeds(t *testing.T) {
	for name, wantErr := range map[string]bool{
		"valid":          false,
		"missing-result": true,
		"error-event":    true,
		"over-long-line": true,
		"bad-json":       true,
	} {
		data := readStreamSeed(t, name)
		out, err := decodeSuiteStream(bytes.NewReader(data), fuzzStreamLine, func(SuiteEvent) {})
		if (err != nil) != wantErr {
			t.Errorf("seed %s: error %v, want error %v", name, err, wantErr)
		}
		if name == "valid" && (len(out.Runs) != 2 || out.Runs[0].Key != "k1" || out.Runs[1].Key != "k2" || out.Total != 2) {
			t.Errorf("seed valid decodes to %+v", out)
		}
	}
}

// readStreamSeed parses one committed FuzzDecodeStream corpus file.
func readStreamSeed(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDecodeStream", name))
	if err != nil {
		t.Fatal(err)
	}
	body, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
	if !ok || !strings.HasSuffix(body, ")") {
		t.Fatalf("seed %s: not a one-[]byte fuzz corpus file", name)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(body, ")"))
	if err != nil {
		t.Fatalf("seed %s: %v", name, err)
	}
	return []byte(s)
}
