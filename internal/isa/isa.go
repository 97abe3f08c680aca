// Package isa defines the trace-driven micro-operation representation
// consumed by the cycle-level CPU model.
//
// The simulator is a timing model in the spirit of SimpleScalar's
// sim-outorder: it does not execute program semantics, it replays a
// dynamic instruction stream annotated with everything timing needs —
// instruction class, register operands, effective addresses for memory
// operations and outcomes for branches.
package isa

import "fmt"

// Class enumerates micro-op classes with distinct timing behaviour.
type Class uint8

// Instruction classes. Latencies and functional-unit bindings live in
// the cpu package (Table 2 of the paper).
const (
	ClassNop    Class = iota // no functional unit, retires immediately after issue
	ClassIntALU              // 1-cycle integer ALU op
	ClassIntMul              // 3-cycle integer multiply
	ClassIntDiv              // 20-cycle non-pipelined integer divide
	ClassFPALU               // 2-cycle FP add/sub/cmp
	ClassFPMul               // 4-cycle FP multiply
	ClassFPDiv               // 12-cycle non-pipelined FP divide
	ClassLoad                // memory load
	ClassStore               // memory store
	ClassBranch              // conditional branch
	numClasses
)

// NumClasses is the number of distinct instruction classes.
const NumClasses = int(numClasses)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassNop:
		return "nop"
	case ClassIntALU:
		return "ialu"
	case ClassIntMul:
		return "imul"
	case ClassIntDiv:
		return "idiv"
	case ClassFPALU:
		return "falu"
	case ClassFPMul:
		return "fmul"
	case ClassFPDiv:
		return "fdiv"
	case ClassLoad:
		return "load"
	case ClassStore:
		return "store"
	case ClassBranch:
		return "branch"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// IsMem reports whether the class is a memory operation.
func (c Class) IsMem() bool { return c == ClassLoad || c == ClassStore }

// IsFP reports whether the class executes on the FP cluster.
func (c Class) IsFP() bool {
	return c == ClassFPALU || c == ClassFPMul || c == ClassFPDiv
}

// NumLogicalRegs is the size of the logical register space used by the
// trace generator (shared INT+FP namespace; the CPU model tracks
// dependences, not values, so a single namespace suffices).
const NumLogicalRegs = 64

// RegNone marks an absent register operand.
const RegNone int16 = -1

// Inst is one dynamic micro-operation of the trace.
type Inst struct {
	Seq uint64 // dynamic sequence number, 0-based
	PC  uint64 // instruction address (for branch prediction indexing)
	Cls Class

	// Register operands; RegNone if unused. Dest is written, SrcA/SrcB
	// are read. For stores, SrcA is the address base and SrcB the data.
	Dest, SrcA, SrcB int16

	// Memory operations.
	Addr uint64 // effective virtual address
	Size uint8  // access size in bytes (1, 2, 4, 8)

	// Branches.
	Taken  bool
	Target uint64
}

// LineAddr returns the cache-line address of the access for the given
// line size (which must be a power of two).
func (in *Inst) LineAddr(lineBytes uint64) uint64 {
	return in.Addr &^ (lineBytes - 1)
}

// Validate performs basic structural checks, returning a descriptive
// error for malformed trace records. It is used by trace tests and by
// the CPU front-end in debug builds.
func (in *Inst) Validate() error {
	if int(in.Cls) >= NumClasses {
		return fmt.Errorf("isa: inst %d has invalid class %d", in.Seq, in.Cls)
	}
	if in.Cls.IsMem() {
		switch in.Size {
		case 1, 2, 4, 8:
		default:
			return fmt.Errorf("isa: mem inst %d has invalid size %d", in.Seq, in.Size)
		}
		if in.Addr == 0 {
			return fmt.Errorf("isa: mem inst %d has zero address", in.Seq)
		}
	}
	for _, r := range [...]int16{in.Dest, in.SrcA, in.SrcB} {
		if r != RegNone && (r < 0 || r >= NumLogicalRegs) {
			return fmt.Errorf("isa: inst %d has invalid register %d", in.Seq, r)
		}
	}
	return nil
}

// Stream is a source of dynamic instructions. Next stores the next
// instruction in *out, or returns false when the stream is exhausted.
// Sequence numbers are consecutive from 0: the
// CPU decodes each instruction straight into a window slot chosen by
// its Seq, and panics on a stream that starts elsewhere or skips one.
// Implementations must be deterministic for a given construction so
// that simulations are reproducible.
type Stream interface {
	Next(out *Inst) bool
}

// SliceStream adapts a pre-built slice of instructions to the Stream
// interface; used heavily in tests.
type SliceStream struct {
	insts []Inst
	pos   int
}

// NewSliceStream returns a Stream replaying insts in order. Sequence
// numbers are rewritten to be consecutive from 0.
func NewSliceStream(insts []Inst) *SliceStream {
	cp := make([]Inst, len(insts))
	copy(cp, insts)
	for i := range cp {
		cp[i].Seq = uint64(i)
	}
	return &SliceStream{insts: cp}
}

// Next implements Stream.
func (s *SliceStream) Next(out *Inst) bool {
	if s.pos >= len(s.insts) {
		return false
	}
	*out = s.insts[s.pos]
	s.pos++
	return true
}

// Reset rewinds the stream to the beginning.
func (s *SliceStream) Reset() { s.pos = 0 }

// Len returns the total number of instructions in the stream.
func (s *SliceStream) Len() int { return len(s.insts) }
