package trace

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"samielsq/internal/isa"
)

// streamPinInsts is how many instructions of each personality
// TestGeneratorStreamPinned hashes: three slab chunks.
const streamPinInsts = 3 * slabChunk

// streamHash is the FNV-64a of every isa.Inst field of the first n
// instructions NewGenerator(p) produces, each field little-endian at
// its own width, in declaration order.
func streamHash(p Params, n int) uint64 {
	g := NewGenerator(p)
	h := fnv.New64a()
	var in isa.Inst
	buf := make([]byte, 0, 48)
	for i := 0; i < n; i++ {
		g.Next(&in)
		buf = binary.LittleEndian.AppendUint64(buf[:0], in.Seq)
		buf = binary.LittleEndian.AppendUint64(buf, in.PC)
		buf = append(buf, byte(in.Cls))
		for _, r := range [...]int16{in.Dest, in.SrcA, in.SrcB} {
			buf = binary.LittleEndian.AppendUint16(buf, uint16(r))
		}
		buf = binary.LittleEndian.AppendUint64(buf, in.Addr)
		buf = append(buf, in.Size)
		taken := byte(0)
		if in.Taken {
			taken = 1
		}
		buf = append(buf, taken)
		buf = binary.LittleEndian.AppendUint64(buf, in.Target)
		h.Write(buf)
	}
	return h.Sum64()
}

// TestGeneratorStreamPinned holds every personality's generated
// instruction stream to the hash in testdata/stream_pins.txt, so a
// change to how the generator draws its random values cannot move a
// single instruction unnoticed. UPDATE_GOLDEN=1 rewrites the file.
func TestGeneratorStreamPinned(t *testing.T) {
	var got strings.Builder
	for _, name := range append(Benchmarks(), AdversarialBenchmarks()...) {
		fmt.Fprintf(&got, "%s %016x\n", name, streamHash(MustPersonality(name), streamPinInsts))
	}
	path := filepath.Join("testdata", "stream_pins.txt")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing pin (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("pinned %d lines, computed %d", len(wantLines), len(gotLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("stream changed:\n got  %s\n want %s", gotLines[i], wantLines[i])
		}
	}
}
