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

// SpecRecordType is the media type of the binary spec record
// (experiments.EncodeSpecRecord), a POST /v1/runs body. Run sends one
// only to a server that has answered in this build's layout; a server
// of another layout answers 415, and JSON remains the default body.
const SpecRecordType = "application/x-samie-spec"

// SpecRecordContentType is SpecRecordType with this build's layout,
// as Run sends it in Content-Type.
var SpecRecordContentType = SpecRecordType + "; layout=" + experiments.RunRecordLayout

// maxRunRecord bounds a binary record body; a run record is about
// 1.3 KB and a spec record about 0.3 KB.
const maxRunRecord = 1 << 20

// RecordMediaType splits a Content-Type or Accept element into its
// lower-case media type and its layout parameter ("" when absent or
// unparseable). This build's own record types take a fast path.
func RecordMediaType(value string) (mediaType, layout string) {
	switch value = strings.TrimSpace(value); value {
	case RunRecordContentType:
		return RunRecordType, experiments.RunRecordLayout
	case SpecRecordContentType:
		return SpecRecordType, experiments.RunRecordLayout
	}
	mt, params, err := mime.ParseMediaType(value)
	if err != nil {
		return "", ""
	}
	return mt, params["layout"]
}

// AcceptsRunRecord reports whether an Accept header value names
// RunRecordType with this build's layout. Every other value — absent,
// JSON, a record of another layout — means JSON.
func AcceptsRunRecord(accept string) bool {
	for part := range strings.SplitSeq(accept, ",") {
		if mt, layout := RecordMediaType(part); mt == RunRecordType && layout == experiments.RunRecordLayout {
			return true
		}
	}
	return false
}

// ReadRecordBody reads a binary record body into one buffer sized by
// its declared length (-1 when unknown), refusing a body longer than
// maxRunRecord.
func ReadRecordBody(body io.Reader, length int64) ([]byte, error) {
	if length > maxRunRecord {
		return nil, fmt.Errorf("record of %d bytes exceeds %d bytes", length, maxRunRecord)
	}
	if length >= 0 {
		data := make([]byte, length)
		_, err := io.ReadFull(body, data)
		return data, err
	}
	data, err := io.ReadAll(io.LimitReader(body, maxRunRecord+1))
	if err == nil && len(data) > maxRunRecord {
		err = fmt.Errorf("record exceeds %d bytes", maxRunRecord)
	}
	return data, err
}

// decodeRun reads a run response in whichever encoding the server
// chose: a binary run record, or JSON (the answer of a server that
// does not speak this build's record layout). ours reports a run
// record in this build's layout, which proves the server also decodes
// this build's spec records.
func decodeRun(resp *http.Response) (out RunResponse, ours bool, err error) {
	// Only the media type picks the decoder; the decoder checks the
	// layout.
	mt, layout := RecordMediaType(resp.Header.Get("Content-Type"))
	if mt != RunRecordType {
		err := json.NewDecoder(resp.Body).Decode(&out)
		return out, false, err
	}
	ours = layout == experiments.RunRecordLayout
	data, err := ReadRecordBody(resp.Body, resp.ContentLength)
	if err != nil {
		return RunResponse{}, ours, err
	}
	res, sim, err := experiments.DecodeRunRecord(data)
	if err != nil {
		return RunResponse{}, ours, err
	}
	return ResponseFor(res, sim), ours, nil
}
