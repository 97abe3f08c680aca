package experiments

// The reflection walker the record codec used before its types were
// compiled into plans (record_plan.go), kept only as a test oracle:
// the fuzz targets and TestRecordPlanMatchesWalker hold every plan to
// the walker's bytes, values, fingerprints and rejections.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
)

// oracleLayout hashes the field names and kinds of t, recursively.
func oracleLayout(t reflect.Type) uint64 {
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

// oracleEncode renders v in c's record layout by walking it.
func oracleEncode[T any](c recordCodec[T], v *T) []byte {
	b := binary.LittleEndian.AppendUint64([]byte(recordMagic), c.layout)
	return appendValue(b, reflect.ValueOf(v).Elem())
}

// oracleDecode parses one record of type T by walking it.
func oracleDecode[T any](c recordCodec[T], data []byte) (T, error) {
	var v T
	body, err := c.body(data)
	if err == nil {
		var rest []byte
		rest, err = readValue(body, reflect.ValueOf(&v).Elem())
		if err == nil && len(rest) != 0 {
			err = errRecordTrailing
		}
	}
	if err != nil {
		var zero T
		return zero, err
	}
	return v, nil
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

// checkAgreesWithOracle holds c's plan to the walker on one input: the
// same error sentinel, equal values, and, for an accepted input, the
// same bytes when the value is encoded again.
func checkAgreesWithOracle[T any](t *testing.T, c recordCodec[T], data []byte) {
	t.Helper()
	got, err := c.decode(data)
	want, werr := oracleDecode(c, data)
	if err != werr {
		t.Fatalf("plan decode error %v, walker error %v", err, werr)
	}
	// reflect.DeepEqual never equates a NaN with itself, so values
	// that differ under it must still render to the same walker bytes,
	// which compare floats by their bits.
	if !reflect.DeepEqual(got, want) && !bytes.Equal(oracleEncode(c, &got), oracleEncode(c, &want)) {
		t.Fatalf("plan and walker decode different values:\n plan   %+v\n walker %+v", got, want)
	}
	if err == nil {
		if p, w := c.encode(&got), oracleEncode(c, &want); !bytes.Equal(p, w) {
			t.Fatalf("plan and walker re-encode differently:\n plan   %x\n walker %x", p, w)
		}
	}
}

// allKinds carries every kind a record may hold, including the
// narrower integers no record type uses yet, so the plan's
// overflow-checked ops are exercised on every host.
type allKinds struct {
	I   int
	I8  int8
	I16 int16
	I32 int32
	I64 int64
	U   uint
	U8  uint8
	U16 uint16
	U32 uint32
	U64 uint64
	F   float64
	B   bool
	S   string
	N   struct {
		F float64
		I int
		B bool
		U uint64
	}
	P *struct {
		S string
		I int64
		Q *struct{ U uint32 }
	}
}

// fillRecord sets every field reachable from v from rng, giving each
// pointer a one-in-four chance of staying nil.
func fillRecord(rng *rand.Rand, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			fillRecord(rng, v.Field(i))
		}
	case reflect.Pointer:
		if rng.IntN(4) != 0 {
			v.Set(reflect.New(v.Type().Elem()))
			fillRecord(rng, v.Elem())
		}
	case reflect.Bool:
		v.SetBool(rng.IntN(2) == 1)
	case reflect.String:
		v.SetString(strings.Repeat(string(rune('a'+rng.IntN(26))), rng.IntN(40)))
	case reflect.Float64:
		v.SetFloat(rng.NormFloat64() * math.Pow(10, float64(rng.IntN(30)-15)))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(rng.Uint64()) >> (64 - 8*v.Type().Size()))
	default: // unsigned
		v.SetUint(rng.Uint64() >> (64 - 8*v.Type().Size()))
	}
}

// checkPlanMatchesWalker fills n values of T at random and holds both
// of T's plans, words merged and per field, to the walker: the same
// fingerprint, the same bytes, and decoding back to the value.
func checkPlanMatchesWalker[T any](t *testing.T, rng *rand.Rand, n int) {
	t.Helper()
	merged, perField := newRecordCodec[T](true), newRecordCodec[T](false)
	if fp := oracleLayout(reflect.TypeFor[T]()); merged.layout != fp || perField.layout != fp {
		t.Fatalf("%s: plan fingerprints %x/%x, walker %x", reflect.TypeFor[T](), merged.layout, perField.layout, fp)
	}
	if hostLittleEndian && len(merged.plan.ops) >= len(perField.plan.ops) {
		t.Errorf("%s: merging left %d ops of %d", reflect.TypeFor[T](), len(merged.plan.ops), len(perField.plan.ops))
	}
	for range n {
		var v T
		fillRecord(rng, reflect.ValueOf(&v).Elem())
		want := oracleEncode(merged, &v)
		for _, c := range []recordCodec[T]{merged, perField} {
			got := c.encode(&v)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: plan encodes %x\nwalker encodes %x", reflect.TypeFor[T](), got, want)
			}
			if cap(got) != len(got) {
				t.Fatalf("%s: encode buffer capacity %d for a %d-byte record", reflect.TypeFor[T](), cap(got), len(got))
			}
			back, err := c.decode(got)
			if err != nil || !reflect.DeepEqual(back, v) {
				t.Fatalf("%s: decode (%+v, %v), want %+v", reflect.TypeFor[T](), back, err, v)
			}
			checkAgreesWithOracle(t, c, got)
		}
	}
}

// TestRecordPlanMatchesWalker holds the compiled plans of the three
// record types, and of a type with every supported kind, to the
// walker over random values filled field by field, with adjacent
// words merged (the little-endian path) and per field (the path
// big-endian hosts take), and over one simulated result per LSQ model.
func TestRecordPlanMatchesWalker(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	checkPlanMatchesWalker[diskArtifact](t, rng, 200)
	checkPlanMatchesWalker[wireRecord](t, rng, 200)
	checkPlanMatchesWalker[specRecord](t, rng, 200)
	checkPlanMatchesWalker[allKinds](t, rng, 500)

	for name, res := range modelResults() {
		art := newArtifact(res.Key, res)
		if got, want := artifactCodec.encode(&art), oracleEncode(artifactCodec, &art); !bytes.Equal(got, want) {
			t.Fatalf("%s: plan and walker encode the artifact differently", name)
		}
	}
}

// TestRecordPlanRejectsOutOfRange checks the overflow-checked narrow
// integer ops against the walker: a value that does not fit its field
// is errRecordRange in both, at every width.
func TestRecordPlanRejectsOutOfRange(t *testing.T) {
	c := newRecordCodec[allKinds](true)
	var v allKinds
	good := c.encode(&v)
	// I8 is the second field: its 8 bytes follow the header and I.
	at := recordHeader + 8
	for _, x := range []uint64{0x80, 0xffffffffffffff7f, 1 << 40} {
		bad := bytes.Clone(good)
		binary.LittleEndian.PutUint64(bad[at:], x)
		if _, err := c.decode(bad); !errors.Is(err, errRecordRange) {
			t.Errorf("I8 = %#x: decode error %v, want %v", x, err, errRecordRange)
		}
		checkAgreesWithOracle(t, c, bad)
	}
	// U8 follows I, I8, I16, I32, I64 and U.
	at = recordHeader + 6*8
	for _, x := range []uint64{0x100, 1 << 63} {
		bad := bytes.Clone(good)
		binary.LittleEndian.PutUint64(bad[at:], x)
		if _, err := c.decode(bad); !errors.Is(err, errRecordRange) {
			t.Errorf("U8 = %#x: decode error %v, want %v", x, err, errRecordRange)
		}
		checkAgreesWithOracle(t, c, bad)
	}
}

// TestRecordPlanMatchesWalkerOnSuite holds the plans to the walker on
// every result the paper suite requests of the 26 benchmarks, under
// all four LSQ models, as disk artifacts, wire records and spec
// records.
func TestRecordPlanMatchesWalkerOnSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the whole suite")
	}
	specs := SuiteSpecs(Benchmarks(), 2000)
	results, err := NewBatch(2).RunEachCtx(context.Background(), specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		art := newArtifact(res.Key, res)
		wire := wireRecord{Artifact: art, Phases: res.Phases}
		spec := specRecord{Spec: specs[i], Timeline: i%2 == 0}
		if !bytes.Equal(artifactCodec.encode(&art), oracleEncode(artifactCodec, &art)) ||
			!bytes.Equal(wireCodec.encode(&wire), oracleEncode(wireCodec, &wire)) ||
			!bytes.Equal(specCodec.encode(&spec), oracleEncode(specCodec, &spec)) {
			t.Fatalf("%s: plan and walker encode differently", res.Key)
		}
	}
}
