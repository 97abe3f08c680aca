package experiments

// Compiled record plans. Each record type's codec is compiled once, at
// package initialization, into a flat list of (offset, op) entries over
// the record struct, by the same reflect.Type walk that computes the
// layout fingerprint, so a plan and its fingerprint cannot disagree.
// Nested structs are flattened into the list; a pointer to a struct is
// one op carrying the pointee's own plan. On little-endian hosts,
// adjacent 8-byte integer and float64 fields are merged into one byte
// copy, since their bytes in memory are already their record encoding.
//
// This is the only file of the package that uses unsafe. The decoder
// checks every length and bound against the input slice before it
// copies a byte, and it writes only through offsets reflect reported
// for T, so a hostile record can make decoding fail but never read or
// write outside the input slice and the value being decoded.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"reflect"
	"unsafe"
)

// hostLittleEndian reports whether this host stores integers
// little-endian, the record's byte order.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// opKind is how one plan entry encodes its field.
type opKind uint8

const (
	opWords  opKind = iota // size bytes of adjacent 8-byte fields, copied as they lie in memory
	opWord                 // one 8-byte integer or float64, as u64 little-endian
	opInt                  // a signed integer of size bytes below 8, widened to 8
	opUint                 // an unsigned integer of size bytes below 8, widened to 8
	opBool                 // 1 byte, 0 or 1
	opString               // u32 length, then the bytes
	opPtr                  // presence byte, then the pointee by sub
)

// planOp encodes one field, or one run of merged words, of a struct.
type planOp struct {
	kind opKind
	off  uintptr      // offset from the start of the plan's struct
	size uintptr      // opWords: bytes copied; opInt, opUint: field width
	sub  *recordPlan  // opPtr: the pointee's plan
	elem reflect.Type // opPtr: the pointee's type, for allocation
}

// recordPlan is one struct type's encoding, field by field in
// declaration order.
type recordPlan struct {
	ops   []planOp
	fixed int // encoded size of every op except string bodies and pointees
}

// buildPlan compiles t's plan and computes its layout fingerprint in
// one walk, panicking on a kind the codec does not carry. mergeWords
// asks for adjacent 8-byte fields to be merged into one copy; it takes
// effect only on little-endian hosts, and without it every field has
// its own op, as on big-endian hosts.
func buildPlan(t reflect.Type, mergeWords bool) (*recordPlan, uint64) {
	h := fnv.New64a()
	p := &recordPlan{}
	p.compile(h, t, 0, mergeWords && hostLittleEndian)
	return p, h.Sum64()
}

// compile writes t's persisted shape to w, as the layout fingerprint
// hashes it, and appends t's ops at offset off to p. It panics on
// maps, slices, interfaces, float32, unexported fields and pointers to
// non-structs.
func (p *recordPlan) compile(w io.Writer, t reflect.Type, off uintptr, merge bool) {
	switch t.Kind() {
	case reflect.Struct:
		io.WriteString(w, "{")
		for i := range t.NumField() {
			f := t.Field(i)
			if !f.IsExported() {
				panic(fmt.Sprintf("experiments: unexported field %s.%s cannot persist in a run record", t, f.Name))
			}
			io.WriteString(w, f.Name+":")
			p.compile(w, f.Type, off+f.Offset, merge)
			io.WriteString(w, ";")
		}
		io.WriteString(w, "}")
		return
	case reflect.Pointer:
		if t.Elem().Kind() != reflect.Struct {
			panic(fmt.Sprintf("experiments: %s cannot persist in a run record", t))
		}
		io.WriteString(w, "*")
		sub := &recordPlan{}
		sub.compile(w, t.Elem(), 0, merge)
		p.add(planOp{kind: opPtr, off: off, sub: sub, elem: t.Elem()}, 1)
		return
	case reflect.Bool:
		p.add(planOp{kind: opBool, off: off}, 1)
	case reflect.String:
		p.add(planOp{kind: opString, off: off}, 4)
	case reflect.Float64,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		p.addNumber(t, off, merge)
	default:
		panic(fmt.Sprintf("experiments: %s cannot persist in a run record", t))
	}
	io.WriteString(w, t.Kind().String())
}

// addNumber appends the op for a numeric field of type t at off,
// merging an 8-byte field into a preceding run of words when it
// starts where the run ends.
func (p *recordPlan) addNumber(t reflect.Type, off uintptr, merge bool) {
	size := t.Size()
	switch {
	case size == 8 && merge:
		if n := len(p.ops); n > 0 && p.ops[n-1].kind == opWords && p.ops[n-1].off+p.ops[n-1].size == off {
			p.ops[n-1].size += 8
			p.fixed += 8
			return
		}
		p.add(planOp{kind: opWords, off: off, size: 8}, 8)
	case size == 8:
		p.add(planOp{kind: opWord, off: off}, 8)
	case t.Kind() >= reflect.Int && t.Kind() <= reflect.Int64:
		p.add(planOp{kind: opInt, off: off, size: size}, 8)
	default:
		p.add(planOp{kind: opUint, off: off, size: size}, 8)
	}
}

// add appends op, whose fixed part encodes to n bytes.
func (p *recordPlan) add(op planOp, n int) {
	p.ops = append(p.ops, op)
	p.fixed += n
}

// size is the encoded size of the struct at base.
func (p *recordPlan) size(base unsafe.Pointer) int {
	n := p.fixed
	for i := range p.ops {
		op := &p.ops[i]
		f := unsafe.Add(base, op.off)
		switch op.kind {
		case opString:
			n += len(*(*string)(f))
		case opPtr:
			if q := *(*unsafe.Pointer)(f); q != nil {
				n += op.sub.size(q)
			}
		}
	}
	return n
}

// append appends the encoding of the struct at base to b.
func (p *recordPlan) append(b []byte, base unsafe.Pointer) []byte {
	for i := range p.ops {
		op := &p.ops[i]
		f := unsafe.Add(base, op.off)
		switch op.kind {
		case opWords:
			b = append(b, unsafe.Slice((*byte)(f), op.size)...)
		case opWord:
			b = binary.LittleEndian.AppendUint64(b, *(*uint64)(f))
		case opInt:
			b = binary.LittleEndian.AppendUint64(b, uint64(loadInt(f, op.size)))
		case opUint:
			b = binary.LittleEndian.AppendUint64(b, loadUint(f, op.size))
		case opBool:
			if *(*bool)(f) {
				b = append(b, 1)
			} else {
				b = append(b, 0)
			}
		case opString:
			s := *(*string)(f)
			b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
			b = append(b, s...)
		case opPtr:
			if q := *(*unsafe.Pointer)(f); q == nil {
				b = append(b, 0)
			} else {
				b = op.sub.append(append(b, 1), q)
			}
		}
	}
	return b
}

// read decodes the struct at base, which must be its zero value, from
// the front of b and returns the remaining bytes.
func (p *recordPlan) read(b []byte, base unsafe.Pointer) ([]byte, error) {
	for i := range p.ops {
		op := &p.ops[i]
		f := unsafe.Add(base, op.off)
		switch op.kind {
		case opWords:
			if uintptr(len(b)) < op.size {
				return nil, errRecordTruncated
			}
			copy(unsafe.Slice((*byte)(f), op.size), b[:op.size])
			b = b[op.size:]
			continue
		case opBool, opPtr:
			if len(b) < 1 {
				return nil, errRecordTruncated
			}
			if b[0] > 1 {
				return nil, errRecordByte
			}
			present := b[0] == 1
			b = b[1:]
			if op.kind == opBool {
				*(*bool)(f) = present
			} else if present {
				q := reflect.New(op.elem).UnsafePointer()
				*(*unsafe.Pointer)(f) = q
				var err error
				if b, err = op.sub.read(b, q); err != nil {
					return nil, err
				}
			}
			continue
		case opString:
			if len(b) < 4 {
				return nil, errRecordTruncated
			}
			n := binary.LittleEndian.Uint32(b)
			b = b[4:]
			if uint64(n) > uint64(len(b)) {
				return nil, errRecordTruncated
			}
			*(*string)(f) = string(b[:n])
			b = b[n:]
			continue
		}
		if len(b) < 8 {
			return nil, errRecordTruncated
		}
		x := binary.LittleEndian.Uint64(b)
		b = b[8:]
		switch op.kind {
		case opWord:
			*(*uint64)(f) = x
		case opInt:
			if !storeInt(f, op.size, int64(x)) {
				return nil, errRecordRange
			}
		case opUint:
			if !storeUint(f, op.size, x) {
				return nil, errRecordRange
			}
		}
	}
	return b, nil
}

// loadInt reads a signed integer of size bytes (1, 2 or 4) at f.
func loadInt(f unsafe.Pointer, size uintptr) int64 {
	switch size {
	case 1:
		return int64(*(*int8)(f))
	case 2:
		return int64(*(*int16)(f))
	default:
		return int64(*(*int32)(f))
	}
}

// loadUint reads an unsigned integer of size bytes (1, 2 or 4) at f.
func loadUint(f unsafe.Pointer, size uintptr) uint64 {
	switch size {
	case 1:
		return uint64(*(*uint8)(f))
	case 2:
		return uint64(*(*uint16)(f))
	default:
		return uint64(*(*uint32)(f))
	}
}

// storeInt writes x as a signed integer of size bytes (1, 2 or 4) at
// f, reporting false, and writing nothing, when x does not fit.
func storeInt(f unsafe.Pointer, size uintptr, x int64) bool {
	switch size {
	case 1:
		if int64(int8(x)) != x {
			return false
		}
		*(*int8)(f) = int8(x)
	case 2:
		if int64(int16(x)) != x {
			return false
		}
		*(*int16)(f) = int16(x)
	default:
		if int64(int32(x)) != x {
			return false
		}
		*(*int32)(f) = int32(x)
	}
	return true
}

// storeUint writes x as an unsigned integer of size bytes (1, 2 or 4)
// at f, reporting false, and writing nothing, when x does not fit.
func storeUint(f unsafe.Pointer, size uintptr, x uint64) bool {
	if x>>(8*size) != 0 {
		return false
	}
	switch size {
	case 1:
		*(*uint8)(f) = uint8(x)
	case 2:
		*(*uint16)(f) = uint16(x)
	default:
		*(*uint32)(f) = uint32(x)
	}
	return true
}

// recordCodec encodes and decodes one record type T through T's
// compiled plan. Building it vets T's shape: a field of a kind the
// codec cannot carry panics at package initialization, long before
// any record is read.
type recordCodec[T any] struct {
	layout uint64 // T's layout fingerprint
	plan   *recordPlan
}

// newRecordCodec compiles T's codec; mergeWords is buildPlan's.
func newRecordCodec[T any](mergeWords bool) recordCodec[T] {
	plan, layout := buildPlan(reflect.TypeFor[T](), mergeWords)
	return recordCodec[T]{layout: layout, plan: plan}
}

// encode renders v in T's record layout, into a buffer of exactly the
// record's size.
func (c recordCodec[T]) encode(v *T) []byte {
	return c.appendTo(nil, v)
}

// appendTo appends v in T's record layout to dst. When dst lacks the
// room, it is reallocated once, to exactly the room the record needs.
func (c recordCodec[T]) appendTo(dst []byte, v *T) []byte {
	base := unsafe.Pointer(v)
	b := dst
	if n := recordHeader + c.plan.size(base); cap(b)-len(b) < n {
		b = append(make([]byte, 0, len(b)+n), b...)
	}
	b = append(b, recordMagic...)
	b = binary.LittleEndian.AppendUint64(b, c.layout)
	return c.plan.append(b, base)
}

// decode parses one record of type T. It checks the encoding only;
// what a well-formed record may answer (validArtifact,
// ValidatePeerResult) is the caller's decision.
func (c recordCodec[T]) decode(data []byte) (T, error) {
	var v T
	body, err := c.body(data)
	if err == nil {
		var rest []byte
		rest, err = c.plan.read(body, unsafe.Pointer(&v))
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
