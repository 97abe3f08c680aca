package experiments

// The binary run-record codec. One plan compiler (record_plan.go) and
// one fingerprint serve every record type: the disk artifact
// (diskArtifact), the wire record the typed client receives
// (wireRecord) and the spec record it sends (specRecord). A record is
// written as
//
//	magic "SAMIERUN" | layout fingerprint (u64) | fields in declaration order
//
// where, walking nested structs depth-first:
//
//	signed, unsigned and float64 fields  8 bytes little-endian
//	                                     (floats by math.Float64bits)
//	bools                                1 byte, 0 or 1
//	strings                              u32 length, then the bytes
//	pointers to structs                  presence byte (0 or 1), then
//	                                     the pointee when present
//
// The layout fingerprint hashes every persisted field's name and kind,
// so a record written before a field was added, removed, renamed or
// retyped is rejected instead of decoding into the wrong slots or
// leaving the new field silently zero. Each record type has its own
// fingerprint, so a record of one type offered as another (a disk
// artifact as a wire record, a wire record as a spec record) is
// rejected the same way. The decoder rejects anything the
// encoder could not have produced: a decoded record re-encodes to
// exactly the bytes it came from.

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"strconv"

	"samielsq/internal/obs"
)

// recordMagic opens every binary run record.
const recordMagic = "SAMIERUN"

// recordHeader is the magic plus the layout fingerprint.
const recordHeader = len(recordMagic) + 8

// Reasons a byte string is not a run record of the expected type.
// For the disk tier every one of them is a cache miss.
var (
	errRecordMagic     = errors.New("experiments: not a binary run record")
	errRecordLayout    = errors.New("experiments: run record layout fingerprint mismatch")
	errRecordTruncated = errors.New("experiments: run record truncated")
	errRecordByte      = errors.New("experiments: run record bool or presence byte above 1")
	errRecordRange     = errors.New("experiments: run record integer out of range")
	errRecordTrailing  = errors.New("experiments: trailing bytes after run record")
)

// artifactCodec reads and writes disk artifacts.
var artifactCodec = newRecordCodec[diskArtifact](true)

// wireRecord is one run result as POST /v1/runs and GET /v1/runs/{key}
// send it to a client that negotiated the binary record: the disk
// artifact plus where the serving process spent the request's
// wall-clock.
type wireRecord struct {
	Artifact diskArtifact
	Phases   obs.PhaseTimes
}

// wireCodec reads and writes wire records.
var wireCodec = newRecordCodec[wireRecord](true)

// specRecord is one POST /v1/runs request as the typed client sends it
// to a server that speaks its layout: the spec exactly as the caller
// built it (not normalized) and the request's timeline option.
type specRecord struct {
	Spec     RunSpec
	Timeline bool
}

// specCodec reads and writes spec records.
var specCodec = newRecordCodec[specRecord](true)

// RunRecordLayout names, in hex, the layouts of both wire record types:
// the run record a server answers with and the spec record a client
// sends. A client and a server exchange binary records only when this
// string is equal on both sides, so a run record answered in the
// client's layout also proves the server decodes the client's spec
// records; any other pairing falls back to JSON.
var RunRecordLayout = strconv.FormatUint(wireLayout(wireCodec.layout, specCodec.layout), 16)

// wireLayout folds the run-record and spec-record fingerprints into
// one.
func wireLayout(run, spec uint64) uint64 {
	h := fnv.New64a()
	h.Write(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, run), spec))
	return h.Sum64()
}

// EncodeRunRecord renders a result delivered by a Batch, which carries
// its canonical key and normalized spec, as a binary wire record
// stamped with this build's simulator stamp.
func EncodeRunRecord(res RunResult) []byte {
	rec := wireRecord{Artifact: newArtifact(res.Key, res), Phases: res.Phases}
	return wireCodec.encode(&rec)
}

// DecodeRunRecord parses a wire record read from the network. It
// returns the result, whose Key, Spec and Phases come from the record
// and whose Timeline is nil, and the simulator stamp of the
// build that encoded it. It checks the encoding only: whether the
// result may be trusted as a peer's answer is ValidatePeerResult's
// decision.
func DecodeRunRecord(data []byte) (RunResult, string, error) {
	rec, err := wireCodec.decode(data)
	if err != nil {
		return RunResult{}, "", err
	}
	res := rec.Artifact.result()
	res.Phases = rec.Phases
	return res, rec.Artifact.Sim, nil
}

// EncodeSpecRecord renders a run request as a binary spec record: the
// spec as the caller built it, and whether the response should carry
// the run's timeline.
func EncodeSpecRecord(spec RunSpec, timeline bool) []byte {
	rec := specRecord{Spec: spec, Timeline: timeline}
	return specCodec.encode(&rec)
}

// DecodeSpecRecord parses a spec record read from the network. It
// checks the encoding only: the spec may name any model kind or
// configuration, and ValidateSpec decides whether it can run.
func DecodeSpecRecord(data []byte) (RunSpec, bool, error) {
	rec, err := specCodec.decode(data)
	if err != nil {
		return RunSpec{}, false, err
	}
	return rec.Spec, rec.Timeline, nil
}

// body checks data's magic and layout fingerprint against T's and
// returns the encoded fields that follow them.
func (c recordCodec[T]) body(data []byte) ([]byte, error) {
	if len(data) < len(recordMagic) || string(data[:len(recordMagic)]) != recordMagic {
		return nil, errRecordMagic
	}
	if len(data) < recordHeader {
		return nil, errRecordTruncated
	}
	if binary.LittleEndian.Uint64(data[len(recordMagic):]) != c.layout {
		return nil, errRecordLayout
	}
	return data[recordHeader:], nil
}
