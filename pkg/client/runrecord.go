package client

import (
	"encoding/json"
	"fmt"
	"io"
	"mime"
	"net/http"
	"strings"

	"samielsq/internal/experiments"
)

// RunRecordType is the media type of the binary run record
// (experiments.EncodeRunRecord). Run and ProbeRun ask for it with a
// layout parameter naming this build's record layout; the server
// answers with a record only on an exact layout match and with JSON
// otherwise, so JSON remains what every other client gets.
const RunRecordType = "application/x-samie-run"

// RunRecordContentType is RunRecordType with this build's layout, as
// Run and ProbeRun send it in Accept and the server sends it back in
// Content-Type.
var RunRecordContentType = RunRecordType + "; layout=" + experiments.RunRecordLayout

// maxRunRecord bounds a binary run body; a record is about 1.3 KB.
const maxRunRecord = 1 << 20

// AcceptsRunRecord reports whether an Accept header value names
// RunRecordType with this build's layout. Every other value — absent,
// JSON, a record of another layout — means JSON.
func AcceptsRunRecord(accept string) bool {
	for part := range strings.SplitSeq(accept, ",") {
		mt, params, err := mime.ParseMediaType(part)
		if err == nil && mt == RunRecordType && params["layout"] == experiments.RunRecordLayout {
			return true
		}
	}
	return false
}

// decodeRun reads a run response in whichever encoding the server
// chose: a binary run record, or JSON (the answer of a server that
// does not speak this build's record layout).
func decodeRun(resp *http.Response) (RunResponse, error) {
	// Only the media type decides; the decoder checks the layout.
	mt, _, _ := strings.Cut(resp.Header.Get("Content-Type"), ";")
	if !strings.EqualFold(strings.TrimSpace(mt), RunRecordType) {
		var out RunResponse
		err := json.NewDecoder(resp.Body).Decode(&out)
		return out, err
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxRunRecord+1))
	if err != nil {
		return RunResponse{}, err
	}
	if len(data) > maxRunRecord {
		return RunResponse{}, fmt.Errorf("run record exceeds %d bytes", maxRunRecord)
	}
	res, sim, err := experiments.DecodeRunRecord(data)
	if err != nil {
		return RunResponse{}, err
	}
	return ResponseFor(res, sim), nil
}
