package experiments

// The binary run-artifact codec. A diskArtifact is written as
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
// so an artifact written before a field was added, removed, renamed or
// retyped reads as a miss instead of decoding into the wrong slots or
// leaving the new field silently zero. The decoder rejects anything
// the encoder could not have produced: a decoded artifact re-encodes
// to exactly the bytes it came from.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"reflect"
)

// artifactMagic opens every binary run artifact.
const artifactMagic = "SAMIERUN"

// artifactHeader is the magic plus the layout fingerprint.
const artifactHeader = len(artifactMagic) + 8

// artifactLayout fingerprints diskArtifact's persisted shape. Building
// it also vets the shape: a field of a kind the codec cannot carry
// panics at package initialization, long before any artifact is read.
var artifactLayout = layoutFingerprint(reflect.TypeFor[diskArtifact]())

// Reasons a byte string is not a run artifact. Every one of them is a
// disk-cache miss.
var (
	errArtifactMagic     = errors.New("experiments: not a binary run artifact")
	errArtifactLayout    = errors.New("experiments: run artifact layout fingerprint mismatch")
	errArtifactTruncated = errors.New("experiments: run artifact truncated")
	errArtifactByte      = errors.New("experiments: run artifact bool or presence byte above 1")
	errArtifactRange     = errors.New("experiments: run artifact integer out of range")
	errArtifactTrailing  = errors.New("experiments: trailing bytes after run artifact")
)

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
				panic(fmt.Sprintf("experiments: unexported field %s.%s cannot persist in a run artifact", t, f.Name))
			}
			io.WriteString(w, f.Name+":")
			describeLayout(w, f.Type)
			io.WriteString(w, ";")
		}
		io.WriteString(w, "}")
	case reflect.Pointer:
		if t.Elem().Kind() != reflect.Struct {
			panic(fmt.Sprintf("experiments: %s cannot persist in a run artifact", t))
		}
		io.WriteString(w, "*")
		describeLayout(w, t.Elem())
	case reflect.Bool, reflect.String, reflect.Float64,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		io.WriteString(w, t.Kind().String())
	default:
		panic(fmt.Sprintf("experiments: %s cannot persist in a run artifact", t))
	}
}

// encodeArtifact renders art in the binary artifact layout.
func encodeArtifact(art *diskArtifact) []byte {
	b := make([]byte, 0, 2048)
	b = append(b, artifactMagic...)
	b = binary.LittleEndian.AppendUint64(b, artifactLayout)
	return appendValue(b, reflect.ValueOf(art).Elem())
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

// decodeArtifact parses a binary artifact. It checks the encoding
// only; validArtifact decides whether a well-formed artifact answers a
// given key on this build.
func decodeArtifact(data []byte) (diskArtifact, error) {
	var art diskArtifact
	if len(data) < len(artifactMagic) || string(data[:len(artifactMagic)]) != artifactMagic {
		return art, errArtifactMagic
	}
	if len(data) < artifactHeader {
		return art, errArtifactTruncated
	}
	if binary.LittleEndian.Uint64(data[len(artifactMagic):]) != artifactLayout {
		return art, errArtifactLayout
	}
	rest, err := readValue(data[artifactHeader:], reflect.ValueOf(&art).Elem())
	if err != nil {
		return diskArtifact{}, err
	}
	if len(rest) != 0 {
		return diskArtifact{}, errArtifactTrailing
	}
	return art, nil
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
			return nil, errArtifactTruncated
		}
		if b[0] > 1 {
			return nil, errArtifactByte
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
			return nil, errArtifactTruncated
		}
		n := binary.LittleEndian.Uint32(b)
		b = b[4:]
		if uint64(n) > uint64(len(b)) {
			return nil, errArtifactTruncated
		}
		v.SetString(string(b[:n]))
		return b[n:], nil
	}
	if len(b) < 8 {
		return nil, errArtifactTruncated
	}
	x := binary.LittleEndian.Uint64(b)
	switch v.Kind() {
	case reflect.Float64:
		v.SetFloat(math.Float64frombits(x))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if v.OverflowInt(int64(x)) {
			return nil, errArtifactRange
		}
		v.SetInt(int64(x))
	default: // unsigned
		if v.OverflowUint(x) {
			return nil, errArtifactRange
		}
		v.SetUint(x)
	}
	return b[8:], nil
}
