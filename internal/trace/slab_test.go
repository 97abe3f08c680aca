package trace

import (
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"samielsq/internal/isa"
)

// TestSlabMatchesGenerator replays every personality's slab across
// three chunk boundaries against a fresh generator.
func TestSlabMatchesGenerator(t *testing.T) {
	names := append(Benchmarks(), AdversarialBenchmarks()...)
	if len(names) != 28 {
		t.Fatalf("%d personalities, want the 26 SPEC programs plus 2 adversarial", len(names))
	}
	const n = 3*slabChunk + slabChunk/2
	for _, name := range names {
		p := MustPersonality(name)
		g := NewGenerator(p)
		ss := NewSlab(p).Stream()
		var a, b isa.Inst
		for i := 0; i < n; i++ {
			if !g.Next(&a) || !ss.Next(&b) {
				t.Fatalf("%s: stream ended", name)
			}
			if a != b {
				t.Fatalf("%s: inst %d differs: %+v vs %+v", name, i, a, b)
			}
		}
	}
}

// TestSlabConcurrentStreams starts each stream a staggered distance
// behind the one before it, so followers cross into chunks the leader
// has just published while the leader materializes the next one.
func TestSlabConcurrentStreams(t *testing.T) {
	const streams = 8
	const stagger = slabChunk*3/4 + 101 // not a chunk multiple
	p := MustPersonality("swim")
	slab := NewSlab(p)
	want := Generate(p, streams*stagger+2*slabChunk)
	released := make([]func(), streams)
	gates := make([]chan struct{}, streams)
	for g := range gates {
		gates[g] = make(chan struct{})
		released[g] = sync.OnceFunc(func() { close(gates[g]) })
	}
	var wg sync.WaitGroup
	for g := 0; g < streams; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer released[g]()
			if g > 0 {
				<-gates[g-1] // start once the stream ahead is stagger insts in
			}
			ss := slab.Stream()
			var in isa.Inst
			for i := range want {
				if i == stagger {
					released[g]()
				}
				ss.Next(&in)
				if in != want[i] {
					t.Errorf("stream %d: inst %d differs under concurrency", g, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSlabRecordRejectsUnpackable round-trips the edges of every
// window the 12-byte record keeps, and covers every instruction pack
// must refuse because the record cannot reproduce it.
func TestSlabRecordRejectsUnpackable(t *testing.T) {
	ok := isa.Inst{Seq: 7, PC: codeBase + 0x100, Cls: isa.ClassBranch, Dest: isa.RegNone,
		SrcA: 63, SrcB: -128, Taken: true, Target: codeBase}
	for _, in := range []isa.Inst{
		ok,
		{Seq: 7, PC: codeBase + codeWindow - 1, Cls: isa.ClassStore, Dest: 127, SrcA: 0, SrcB: isa.RegNone,
			Addr: dataBase + dataWindow - 1, Size: 255},
		{Seq: 7, PC: codeBase, Cls: isa.ClassLoad, Dest: 1, SrcA: 2, SrcB: isa.RegNone,
			Addr: dataBase, Size: 8},
		{Seq: 7, PC: codeBase + 4, Cls: isa.ClassBranch, Dest: isa.RegNone, SrcA: 1, SrcB: isa.RegNone,
			Target: codeBase + dataWindow - 1},
		{Seq: 7, PC: codeBase, Cls: recClass, Dest: isa.RegNone, SrcA: isa.RegNone, SrcB: isa.RegNone},
	} {
		var r slabRec
		r.pack(&in, 7)
		var out isa.Inst
		r.unpack(7, &out)
		if out != in {
			t.Fatalf("round trip changed %+v into %+v", in, out)
		}
	}
	for _, c := range []struct {
		name   string
		mutate func(*isa.Inst)
	}{
		{"Seq is not the index", func(in *isa.Inst) { in.Seq = 8 }},
		{"Addr and Target both set", func(in *isa.Inst) { in.Addr = dataBase }},
		{"Dest above int8", func(in *isa.Inst) { in.Dest = 128 }},
		{"SrcA below int8", func(in *isa.Inst) { in.SrcA = -129 }},
		{"SrcB above int8", func(in *isa.Inst) { in.SrcB = 1 << 14 }},
		{"PC below the code window", func(in *isa.Inst) { in.PC = codeBase - 4 }},
		{"PC above the code window", func(in *isa.Inst) { in.PC = codeBase + codeWindow }},
		{"Addr below the data window", func(in *isa.Inst) { in.Target, in.Addr = 0, dataBase-1 }},
		{"Addr above the data window", func(in *isa.Inst) { in.Target, in.Addr = 0, dataBase+dataWindow }},
		{"Target below the code base", func(in *isa.Inst) { in.Target = codeBase - 4 }},
		{"Target above its window", func(in *isa.Inst) { in.Target = codeBase + dataWindow }},
		{"class beyond 4 bits", func(in *isa.Inst) { in.Cls = recClass + 1 }},
	} {
		in := ok
		c.mutate(&in)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: pack accepted %+v", c.name, in)
				}
			}()
			new(slabRec).pack(&in, 7)
		}()
	}
}

// TestSlabRecordSize pins the record at 12 bytes: the shared trace's
// footprint, and so how much of the slab cache's bound a run uses.
func TestSlabRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(slabRec{}); got != 12 {
		t.Fatalf("slabRec is %d bytes, want 12", got)
	}
}

// TestSlabMaterializeAllocs bounds what materializing costs in heap:
// one 12-byte record per instruction and no regrowth copies (a slab of
// 48-byte isa.Inst grown by append allocated 264 B per instruction).
func TestSlabMaterializeAllocs(t *testing.T) {
	const n = 8 * slabChunk
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ss := NewSlab(MustPersonality("gzip")).Stream()
	var in isa.Inst
	for i := 0; i < n; i++ {
		ss.Next(&in)
	}
	runtime.ReadMemStats(&after)
	if per := float64(after.TotalAlloc-before.TotalAlloc) / n; per > 14 {
		t.Errorf("materializing allocates %.1f B per instruction, want <= 14", per)
	}
	if got := ss.slab.Bytes(); got != n*12 {
		t.Errorf("Bytes() = %d for %d instructions, want 12 B each", got, n)
	}
}

func TestSharedStreamCacheAndEviction(t *testing.T) {
	prev := SetSlabCacheLimit(1) // bytes: evict on every new personality
	defer SetSlabCacheLimit(prev)

	s1 := SharedStream(MustPersonality("gzip"))
	var in isa.Inst
	for i := 0; i < slabChunk; i++ {
		s1.Next(&in) // materialize beyond the 1-byte budget
	}
	SharedStream(MustPersonality("swim")) // must evict gzip's slab
	if n := SlabCacheLen(); n > 2 {
		t.Fatalf("slab cache holds %d entries over a 1-byte budget", n)
	}
	// The evicted slab's stream keeps working.
	for i := 0; i < 100; i++ {
		if !s1.Next(&in) {
			t.Fatal("stream over evicted slab ended")
		}
	}
	// And a re-acquired stream still replays the identical prefix.
	s2 := SharedStream(MustPersonality("gzip"))
	want := Generate(MustPersonality("gzip"), 1000)
	for i := range want {
		s2.Next(&in)
		if in != want[i] {
			t.Fatalf("re-acquired stream diverged at %d", i)
		}
	}
}

// TestSlabStreamNextZeroAlloc guards the trace side of the hot path.
func TestSlabStreamNextZeroAlloc(t *testing.T) {
	ss := SharedStream(MustPersonality("gzip"))
	var in isa.Inst
	for i := 0; i < slabChunk; i++ {
		ss.Next(&in) // materialize the first chunks
	}
	fresh := NewSlab(MustPersonality("gzip")).Stream()
	for i := 0; i < 2*slabChunk; i++ {
		fresh.Next(&in)
	}
	pos := 0
	if n := testing.AllocsPerRun(10, func() {
		for i := 0; i < 1000; i++ {
			fresh.Next(&in)
			pos++
		}
	}); n > 1 { // amortized: a new chunk is one allocation per slabChunk instructions
		t.Errorf("SlabStream.Next allocates %.1f per 1000 (amortized budget 1)", n)
	}
}

// TestGeneratorNextZeroAlloc pins Generator.Next itself as
// allocation-free.
func TestGeneratorNextZeroAlloc(t *testing.T) {
	g := NewGenerator(MustPersonality("mcf"))
	var in isa.Inst
	for i := 0; i < 1000; i++ {
		g.Next(&in)
	}
	if n := testing.AllocsPerRun(10, func() {
		for i := 0; i < 1000; i++ {
			g.Next(&in)
		}
	}); n > 0 {
		t.Errorf("Generator.Next allocates %.1f per 1000 insts, want 0", n)
	}
}

func BenchmarkHotPathTraceNext(b *testing.B) {
	g := NewGenerator(MustPersonality("gzip"))
	var in isa.Inst
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next(&in)
	}
}

// BenchmarkHotPathSlabMaterialize times filling fresh slabs: the
// generator plus packing, one chunk allocation per slabChunk
// instructions. A new slab every eight chunks bounds the footprint.
func BenchmarkHotPathSlabMaterialize(b *testing.B) {
	p := MustPersonality("gzip")
	var ss *SlabStream
	var in isa.Inst
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%(8*slabChunk) == 0 {
			ss = NewSlab(p).Stream()
		}
		ss.Next(&in)
	}
}

// BenchmarkHotPathSlabReplay times what a simulation's fetch pays per
// instruction: Next over a pre-materialized slab, crossing a chunk
// boundary every slabChunk instructions.
func BenchmarkHotPathSlabReplay(b *testing.B) {
	const n = 4 * slabChunk
	slab := NewSlab(MustPersonality("gzip"))
	ss := slab.Stream()
	var in isa.Inst
	for i := 0; i < n; i++ {
		ss.Next(&in) // materialize
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%n == 0 {
			ss = slab.Stream()
		}
		ss.Next(&in)
	}
}
