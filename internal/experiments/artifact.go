package experiments

// The binary run-record codec. One walker and one fingerprint serve
// every record type: the disk artifact (diskArtifact), the wire record
// the typed client receives (wireRecord) and the spec record it sends
// (specRecord). A record is written as
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
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"reflect"
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

// recordCodec encodes and decodes one record type T. Building it vets
// T's shape: a field of a kind the codec cannot carry panics at
// package initialization, long before any record is read.
type recordCodec[T any] struct {
	layout uint64 // T's layout fingerprint
}

func newRecordCodec[T any]() recordCodec[T] {
	return recordCodec[T]{layout: layoutFingerprint(reflect.TypeFor[T]())}
}

// artifactCodec reads and writes disk artifacts.
var artifactCodec = newRecordCodec[diskArtifact]()

// wireRecord is one run result as POST /v1/runs and GET /v1/runs/{key}
// send it to a client that negotiated the binary record: the disk
// artifact plus where the serving process spent the request's
// wall-clock.
type wireRecord struct {
	Artifact diskArtifact
	Phases   obs.PhaseTimes
}

// wireCodec reads and writes wire records.
var wireCodec = newRecordCodec[wireRecord]()

// specRecord is one POST /v1/runs request as the typed client sends it
// to a server that speaks its layout: the spec exactly as the caller
// built it (not normalized) and the request's timeline option.
type specRecord struct {
	Spec     RunSpec
	Timeline bool
}

// specCodec reads and writes spec records.
var specCodec = newRecordCodec[specRecord]()

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
// and whose Hier and Timeline are nil, and the simulator stamp of the
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

// layoutFingerprint hashes the field names and kinds of t, recursively.
func layoutFingerprint(t reflect.Type) uint64 {
	h := fnv.New64a()
	describeLayout(h, t)
	return h.Sum64()
}

// describeLayout writes t's persisted shape to w, panicking on a kind
// the codec does not carry (maps, slices, interfaces, float32,
// unexported fields, pointers to non-structs).
func describeLayout(w io.Writer, t reflect.Type) {
	switch t.Kind() {
	case reflect.Struct:
		io.WriteString(w, "{")
		for i := range t.NumField() {
			f := t.Field(i)
			if !f.IsExported() {
				panic(fmt.Sprintf("experiments: unexported field %s.%s cannot persist in a run record", t, f.Name))
			}
			io.WriteString(w, f.Name+":")
			describeLayout(w, f.Type)
			io.WriteString(w, ";")
		}
		io.WriteString(w, "}")
	case reflect.Pointer:
		if t.Elem().Kind() != reflect.Struct {
			panic(fmt.Sprintf("experiments: %s cannot persist in a run record", t))
		}
		io.WriteString(w, "*")
		describeLayout(w, t.Elem())
	case reflect.Bool, reflect.String, reflect.Float64,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		io.WriteString(w, t.Kind().String())
	default:
		panic(fmt.Sprintf("experiments: %s cannot persist in a run record", t))
	}
}

// encode renders v in T's record layout.
func (c recordCodec[T]) encode(v *T) []byte {
	b := make([]byte, 0, 2048)
	b = append(b, recordMagic...)
	b = binary.LittleEndian.AppendUint64(b, c.layout)
	return appendValue(b, reflect.ValueOf(v).Elem())
}

// appendValue appends v's encoding; describeLayout has already vetted
// every kind it can meet.
func appendValue(b []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			b = appendValue(b, v.Field(i))
		}
		return b
	case reflect.Pointer:
		if v.IsNil() {
			return append(b, 0)
		}
		return appendValue(append(b, 1), v.Elem())
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	case reflect.String:
		b = binary.LittleEndian.AppendUint32(b, uint32(v.Len()))
		return append(b, v.String()...)
	case reflect.Float64:
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.LittleEndian.AppendUint64(b, uint64(v.Int()))
	default: // unsigned
		return binary.LittleEndian.AppendUint64(b, v.Uint())
	}
}

// decode parses one record of type T. It checks the encoding only;
// what a well-formed record may answer (validArtifact,
// ValidatePeerResult) is the caller's decision.
func (c recordCodec[T]) decode(data []byte) (T, error) {
	var v T
	if len(data) < len(recordMagic) || string(data[:len(recordMagic)]) != recordMagic {
		return v, errRecordMagic
	}
	if len(data) < recordHeader {
		return v, errRecordTruncated
	}
	if binary.LittleEndian.Uint64(data[len(recordMagic):]) != c.layout {
		return v, errRecordLayout
	}
	rest, err := readValue(data[recordHeader:], reflect.ValueOf(&v).Elem())
	if err == nil && len(rest) != 0 {
		err = errRecordTrailing
	}
	if err != nil {
		var zero T
		return zero, err
	}
	return v, nil
}

// readValue decodes one value of v's type from the front of b into v
// and returns the remaining bytes.
func readValue(b []byte, v reflect.Value) ([]byte, error) {
	switch v.Kind() {
	case reflect.Struct:
		var err error
		for i := range v.NumField() {
			if b, err = readValue(b, v.Field(i)); err != nil {
				return nil, err
			}
		}
		return b, nil
	case reflect.Pointer, reflect.Bool:
		if len(b) < 1 {
			return nil, errRecordTruncated
		}
		if b[0] > 1 {
			return nil, errRecordByte
		}
		if v.Kind() == reflect.Bool {
			v.SetBool(b[0] == 1)
			return b[1:], nil
		}
		if b[0] == 0 {
			return b[1:], nil // v is already nil
		}
		v.Set(reflect.New(v.Type().Elem()))
		return readValue(b[1:], v.Elem())
	case reflect.String:
		if len(b) < 4 {
			return nil, errRecordTruncated
		}
		n := binary.LittleEndian.Uint32(b)
		b = b[4:]
		if uint64(n) > uint64(len(b)) {
			return nil, errRecordTruncated
		}
		v.SetString(string(b[:n]))
		return b[n:], nil
	}
	if len(b) < 8 {
		return nil, errRecordTruncated
	}
	x := binary.LittleEndian.Uint64(b)
	switch v.Kind() {
	case reflect.Float64:
		v.SetFloat(math.Float64frombits(x))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if v.OverflowInt(int64(x)) {
			return nil, errRecordRange
		}
		v.SetInt(int64(x))
	default: // unsigned
		if v.OverflowUint(x) {
			return nil, errRecordRange
		}
		v.SetUint(x)
	}
	return b[8:], nil
}
