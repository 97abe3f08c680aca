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
// the decoder accepts has a result event and no error event, and its
// onEvent saw the event of every non-blank line, in order.
func FuzzDecodeStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var seen []SuiteEvent
		err := decodeSuiteStream(bytes.NewReader(data), fuzzStreamLine, func(ev SuiteEvent) { seen = append(seen, ev) })
		decodeTimeline(bytes.NewReader(data), fuzzStreamLine)
		if err != nil {
			return
		}
		var want []SuiteEvent
		sawResult := false
		for _, line := range bytes.Split(data, []byte("\n")) {
			line = bytes.TrimSpace(line)
			if len(line) == 0 {
				continue
			}
			var ev SuiteEvent
			if err := json.Unmarshal(line, &ev); err != nil {
				t.Fatalf("accepted a stream with the bad line %q: %v", line, err)
			}
			switch ev.Type {
			case "error":
				t.Fatalf("accepted a stream with the error event %q", line)
			case "result":
				sawResult = true
			}
			want = append(want, ev)
		}
		if !sawResult {
			t.Fatal("accepted a stream without a result event")
		}
		if !reflect.DeepEqual(seen, want) {
			t.Fatalf("onEvent saw %+v, want every line's event %+v", seen, want)
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
		var runs []string
		total := 0
		err := decodeSuiteStream(bytes.NewReader(data), fuzzStreamLine, func(ev SuiteEvent) {
			switch {
			case ev.Type == "run" && ev.Run != nil:
				runs = append(runs, ev.Run.Key)
			case ev.Type == "result":
				total = ev.Total
			}
		})
		if (err != nil) != wantErr {
			t.Errorf("seed %s: error %v, want error %v", name, err, wantErr)
		}
		if name == "valid" && (!reflect.DeepEqual(runs, []string{"k1", "k2"}) || total != 2) {
			t.Errorf("seed valid decodes to runs %v, total %d", runs, total)
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
