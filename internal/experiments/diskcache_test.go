package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// cacheTestSpec is a tiny simulation so the cache tests stay fast.
func cacheTestSpec() RunSpec {
	return RunSpec{Benchmark: "gzip", Insts: 5_000, Model: ModelSAMIE}
}

// TestDiskCachePathRendering pins artifact file names to the rendering
// existing cache directories were written with,
// filepath.Join(dir, "run-"+hex(sha256(key))+".bin"), for directories
// that Join cleans, and checks that a path costs one allocation.
func TestDiskCachePathRendering(t *testing.T) {
	const key = "b=gzip|m=3|i=2000|w=1000"
	const name = "run-c4a0941fce155e29373fef974cd5329bca049582820a0f8ec4d48b901f65a33d.bin"
	tmp := t.TempDir()
	for _, dir := range []string{tmp, tmp + "/", tmp + "//x/./../", ".", "/"} {
		d, err := NewDiskCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256([]byte(key))
		old := filepath.Join(dir, "run-"+hex.EncodeToString(sum[:])+".bin")
		if got := d.path(key); got != old || filepath.Base(got) != name {
			t.Errorf("dir %q: path %q, want %q named %s", dir, got, old, name)
		}
		if n := testing.AllocsPerRun(100, func() { _ = d.path(key) }); n != 1 {
			t.Errorf("dir %q: path allocates %v times, want 1", dir, n)
		}
	}
}

func TestDiskCacheRoundTrip(t *testing.T) {
	for _, m := range artifactModels {
		dir := t.TempDir()
		b1, err := NewBatchWithCache(1, dir)
		if err != nil {
			t.Fatal(err)
		}
		fresh := b1.Run(m.spec)
		if st := b1.DiskStats(); st.Writes != 1 || st.Hits != 0 {
			t.Fatalf("%s: first run stats = %+v, want 1 write", m.name, st)
		}

		// A second batch over the same directory must serve from disk
		// and reproduce the result exactly (everything figures consume).
		b2, err := NewBatchWithCache(1, dir)
		if err != nil {
			t.Fatal(err)
		}
		cached := b2.Run(m.spec)
		if st := b2.DiskStats(); st.Hits != 1 || st.Writes != 0 {
			t.Fatalf("%s: second run stats = %+v, want 1 hit", m.name, st)
		}
		if cached.CPU != fresh.CPU {
			t.Errorf("%s: CPU result differs: disk %+v vs fresh %+v", m.name, cached.CPU, fresh.CPU)
		}
		if *cached.Meter != *fresh.Meter {
			t.Errorf("%s: meter differs after round trip", m.name)
		}
		if cached.SAMIE != fresh.SAMIE || cached.Conv != fresh.Conv {
			t.Errorf("%s: model stats differ after round trip", m.name)
		}
		// The artifact's own spec (what preloading serves) must be the
		// normalized one, and equal encodings mean equal bits in every
		// persisted field, float signs and NaN payloads included.
		key := Key(m.spec)
		stored, ok := b2.Disk().read(key)
		if !ok || !reflect.DeepEqual(stored.Spec, Normalize(m.spec)) {
			t.Errorf("%s: restored spec not normalized: %+v", m.name, stored.Spec)
		}
		sa, fa := newArtifact(key, stored), newArtifact(key, fresh)
		if !bytes.Equal(artifactCodec.encode(&sa), artifactCodec.encode(&fa)) {
			t.Errorf("%s: disk-served result is not bit-identical to the fresh one", m.name)
		}
	}
}

func TestDiskCacheCorruptAndPartialFiles(t *testing.T) {
	dir := t.TempDir()
	b, err := NewBatchWithCache(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	b.Run(cacheTestSpec())

	files, err := filepath.Glob(filepath.Join(dir, "run-*.bin"))
	if err != nil || len(files) != 1 {
		t.Fatalf("expected one artifact, got %v (%v)", files, err)
	}
	for _, corrupt := range []func() error{
		func() error { return os.WriteFile(files[0], []byte("{not json"), 0o644) },       // corrupt
		func() error { return os.Truncate(files[0], 10) },                                // partial write
		func() error { return os.WriteFile(files[0], []byte(`{"Version":999}`), 0o644) }, // version skew
	} {
		if err := corrupt(); err != nil {
			t.Fatal(err)
		}
		nb, err := NewBatchWithCache(1, dir)
		if err != nil {
			t.Fatal(err)
		}
		res := nb.Run(cacheTestSpec())
		st := nb.DiskStats()
		if st.Hits != 0 || st.Misses != 1 || st.Writes != 1 {
			t.Fatalf("corrupt artifact not recovered: stats %+v", st)
		}
		if res.CPU.Committed == 0 {
			t.Fatal("re-simulation after corrupt artifact produced nothing")
		}
		// The rewrite must have repaired the artifact.
		rb, _ := NewBatchWithCache(1, dir)
		rb.Run(cacheTestSpec())
		if rs := rb.DiskStats(); rs.Hits != 1 {
			t.Fatalf("artifact not repaired after corruption: %+v", rs)
		}
	}
}

// TestReadArtifact: the pooled read returns a file's bytes whatever
// its size against the buffer — empty, shorter, exactly as long (which
// may hide more, so the file is read whole) or longer — also behind a
// path too long for its stack buffer, and fails on a directory or a
// missing file.
func TestReadArtifact(t *testing.T) {
	dir := t.TempDir()
	buf := make([]byte, 64)
	for _, size := range []int{0, 1, 63, 64, 65, 1000} {
		want := make([]byte, size)
		for i := range want {
			want[i] = byte(i*7 + size)
		}
		name := fmt.Sprint("f", size)
		if err := os.WriteFile(filepath.Join(dir, name), want, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := readArtifact(dir+string(filepath.Separator), []byte(name), buf)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%d-byte file: read %d bytes (err %v), want the file's %d", size, len(got), err, size)
		}
	}
	// A path too long for the stack buffer is read through os.ReadFile.
	deep := filepath.Join(dir, strings.Repeat("d", 200), strings.Repeat("e", 200), strings.Repeat("f", 200))
	if err := os.MkdirAll(deep, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(deep, "g"), []byte("deep"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := readArtifact(deep+string(filepath.Separator), []byte("g"), buf); err != nil || string(got) != "deep" {
		t.Errorf("%d-byte path: read %q (err %v), want the file's bytes", len(deep)+2, got, err)
	}
	for _, path := range []string{dir, filepath.Join(dir, "missing")} {
		if got, err := readArtifact(path, nil, buf); err == nil {
			t.Errorf("%s: read %d bytes, want an error", path, len(got))
		}
	}
}

// TestDiskCacheReadPath covers the disk tier's pooled artifact read:
// an artifact longer than the read buffer still loads, a directory or
// an empty file at an artifact's path is a miss, and a loaded result
// shares no bytes with the buffer the next load reuses.
func TestDiskCacheReadPath(t *testing.T) {
	d, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fresh := func(key string) RunResult {
		t.Helper()
		data, err := os.ReadFile(d.path(key))
		if err != nil {
			t.Fatal(err)
		}
		art, err := artifactCodec.decode(data)
		if err != nil {
			t.Fatal(err)
		}
		return art.result()
	}

	// The key is stored in the artifact, so a long key makes a valid
	// artifact longer than the buffer.
	res := Run(cacheTestSpec())
	long := strings.Repeat("k", readBufSize)
	d.store(long, res)
	if st, err := os.Stat(d.path(long)); err != nil || st.Size() <= readBufSize {
		t.Fatalf("long artifact: %v, want more than %d bytes", st, readBufSize)
	}
	if got, ok := d.load(long); !ok || !reflect.DeepEqual(got, fresh(long)) {
		t.Errorf("an artifact longer than the read buffer does not load (hit %v)", ok)
	}

	for name, plant := range map[string]func(path string) error{
		"directory":  func(path string) error { return os.Mkdir(path, 0o755) },
		"empty file": func(path string) error { return os.WriteFile(path, nil, 0o644) },
	} {
		key := "b=" + name
		if err := plant(d.path(key)); err != nil {
			t.Fatal(err)
		}
		if _, ok := d.load(key); ok {
			t.Errorf("a %s at the artifact's path is a hit", name)
		}
	}

	specA, specB := cacheTestSpec(), cacheTestSpec()
	specB.Benchmark = "swim"
	keyA, keyB := Key(specA), Key(specB)
	d.store(keyA, Run(specA))
	d.store(keyB, Run(specB))
	a, okA := d.load(keyA)
	b, okB := d.load(keyB)
	if !okA || !okB {
		t.Fatalf("loads hit %v, %v; want both", okA, okB)
	}
	if !reflect.DeepEqual(a, fresh(keyA)) {
		t.Errorf("after a second load, the first result differs from a fresh decode of its file:\n%+v", a)
	}
	if !reflect.DeepEqual(b, fresh(keyB)) {
		t.Errorf("the second result differs from a fresh decode of its file")
	}
}

func TestDiskCacheConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	// Many batches race to simulate and persist the same spec; every
	// one must succeed and the surviving artifact must be valid.
	var wg sync.WaitGroup
	results := make([]RunResult, 6)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, err := NewBatchWithCache(1, dir)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = b.Run(cacheTestSpec())
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(results); i++ {
		if results[i].CPU != results[0].CPU {
			t.Fatalf("racing writers produced different results")
		}
	}
	b, _ := NewBatchWithCache(1, dir)
	b.Run(cacheTestSpec())
	if st := b.DiskStats(); st.Hits != 1 {
		t.Fatalf("artifact invalid after concurrent writers: %+v", st)
	}
}

func TestDiskCacheDisabledCleanly(t *testing.T) {
	// An empty cache directory is a configuration error for the
	// explicit constructor...
	if _, err := NewBatchWithCache(1, ""); err == nil {
		t.Fatal("empty cache dir accepted")
	}
	// ...while the plain batch simply has no disk cache: zero stats,
	// no files written anywhere.
	b := NewBatch(1)
	b.Run(cacheTestSpec())
	if st := b.DiskStats(); st != (DiskCacheStats{}) {
		t.Fatalf("cacheless batch reported disk traffic: %+v", st)
	}
}

// specFor is cacheTestSpec for an arbitrary benchmark.
func specFor(bench string) RunSpec {
	s := cacheTestSpec()
	s.Benchmark = bench
	return s
}

func TestDiskCacheIndexAndPreload(t *testing.T) {
	dir := t.TempDir()
	b1, err := NewBatchWithCache(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]RunResult{}
	for _, bench := range []string{"gzip", "swim"} {
		want[bench] = b1.Run(specFor(bench))
	}
	if files := artifactFiles(t, dir); len(files) != 2 {
		t.Fatalf("directory holds %d artifacts after 2 stores, want 2", len(files))
	}

	// A fresh batch over the same directory preloads the whole suite by
	// scanning it: both specs then serve from memory with zero
	// simulations and zero disk traffic.
	b2, err := NewBatchWithCache(2, dir)
	if err != nil {
		t.Fatal(err)
	}
	n, err := b2.PreloadDisk()
	if err != nil || n != 2 {
		t.Fatalf("PreloadDisk = %d, %v; want 2, nil", n, err)
	}
	for _, bench := range []string{"gzip", "swim"} {
		r, err := b2.RunCtx(context.Background(), specFor(bench))
		if err != nil {
			t.Fatal(err)
		}
		if r.CPU != want[bench].CPU {
			t.Errorf("%s: preloaded CPU result differs", bench)
		}
		if r.Spec.Benchmark != bench || r.Spec.SAMIE == nil {
			t.Errorf("%s: preloaded result lost its normalized spec: %+v", bench, r.Spec)
		}
	}
	st := b2.Stats()
	if st.Executed != 0 || st.Hits != 2 {
		t.Fatalf("preloaded batch stats %+v, want executed=0 hits=2", st)
	}
	if ds := b2.DiskStats(); ds.Hits != 0 || ds.Misses != 0 {
		t.Fatalf("preload counted as disk traffic: %+v", ds)
	}

	// Preloading an uncached batch is a configuration error.
	if _, err := NewBatch(1).PreloadDisk(); err == nil {
		t.Fatal("PreloadDisk on a cacheless batch did not error")
	}
}

// TestPreloadDiskSeesEverySibling checks that preloading enumerates
// artifacts every process sharing the directory wrote, whether or not
// the writers closed their batches.
func TestPreloadDiskSeesEverySibling(t *testing.T) {
	preloaded := func(t *testing.T, dir string) int {
		t.Helper()
		b, err := NewBatchWithCache(1, dir)
		if err != nil {
			t.Fatal(err)
		}
		n, err := b.PreloadDisk()
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	t.Run("two closed writers", func(t *testing.T) {
		dir := t.TempDir()
		// Both writers open the directory before either persists.
		w1, err := NewBatchWithCache(1, dir)
		if err != nil {
			t.Fatal(err)
		}
		w2, err := NewBatchWithCache(1, dir)
		if err != nil {
			t.Fatal(err)
		}
		w1.Run(specFor("gzip"))
		w2.Run(specFor("swim"))
		if err := w1.Close(); err != nil {
			t.Fatal(err)
		}
		if err := w2.Close(); err != nil {
			t.Fatal(err)
		}
		if n := preloaded(t, dir); n != 2 {
			t.Fatalf("PreloadDisk installed %d of 2 sibling artifacts", n)
		}
	})

	t.Run("writer never closed", func(t *testing.T) {
		dir := t.TempDir()
		w, err := NewBatchWithCache(1, dir)
		if err != nil {
			t.Fatal(err)
		}
		w.Run(specFor("gzip"))
		if n := preloaded(t, dir); n != 1 {
			t.Fatalf("PreloadDisk installed %d of 1 artifact from an open writer", n)
		}
	})
}

func TestPreloadDiskSkipsInvalidFiles(t *testing.T) {
	dir := t.TempDir()
	w, err := NewBatchWithCache(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, bench := range []string{"gzip", "mcf", "swim"} {
		w.Run(specFor(bench))
	}
	d := w.Disk()
	write := func(name string, data []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	gzipArt, err := os.ReadFile(d.path(Key(specFor("gzip"))))
	if err != nil {
		t.Fatal(err)
	}
	write("run-zz.bin", []byte("{bad"))
	// A valid artifact under a name that is not its key's address.
	write(filepath.Base(d.path("not-a-spec-key")), gzipArt)
	// A truncated artifact at its own address.
	if err := os.Truncate(d.path(Key(specFor("swim"))), 40); err != nil {
		t.Fatal(err)
	}
	write("run-x.json", []byte(`{"Version":2}`))
	write("index.json", []byte(`{"Version":3,"Sim":"dev","Keys":{}}`))

	b, err := NewBatchWithCache(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	n, err := b.PreloadDisk()
	if err != nil || n != 2 {
		t.Fatalf("PreloadDisk = %d, %v; want 2, nil", n, err)
	}
	for _, bench := range []string{"gzip", "mcf"} {
		b.Run(specFor(bench))
	}
	if st := b.Stats(); st.Executed != 0 || st.Hits != 2 {
		t.Fatalf("valid artifacts not preloaded: %+v", st)
	}
	b.Run(specFor("swim"))
	if st := b.Stats(); st.Executed != 1 {
		t.Fatalf("truncated artifact was preloaded: %+v", st)
	}
}

func TestDiskCachePruneBySize(t *testing.T) {
	dir := t.TempDir()
	b, err := NewBatchWithCache(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, bench := range []string{"gzip", "swim", "mcf"} {
		b.Run(specFor(bench))
	}
	files := artifactFiles(t, dir)
	if len(files) != 3 {
		t.Fatalf("have %d artifacts, want 3", len(files))
	}
	// Distinct mtimes so "oldest first" is deterministic.
	for i, p := range files {
		mt := time.Now().Add(-time.Duration(len(files)-i) * time.Hour)
		if err := os.Chtimes(p, mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	// Keep one artifact's worth of bytes: pruning retains newest-first,
	// so the budget must fit the newest artifact (files[2] after the
	// Chtimes above — glob order is hash order, not age order).
	var one int64
	if st, err := os.Stat(files[len(files)-1]); err == nil {
		one = st.Size()
	}
	ps, err := b.Disk().Prune(one+16, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Removed != 2 || ps.Remaining != 1 {
		t.Fatalf("prune stats %+v, want 2 removed, 1 remaining", ps)
	}
	if got := artifactFiles(t, dir); len(got) != 1 {
		t.Fatalf("%d artifacts survive, want 1", len(got))
	}
}

func TestDiskCachePruneByAge(t *testing.T) {
	dir := t.TempDir()
	b, err := NewBatchWithCache(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	b.Run(specFor("gzip"))
	b.Run(specFor("swim"))
	gzipArt := b.Disk().path(Key(specFor("gzip")))
	old := time.Now().Add(-48 * time.Hour)
	if err := os.Chtimes(gzipArt, old, old); err != nil {
		t.Fatal(err)
	}
	// A stale temp file from a killed writer is collected too.
	stale := filepath.Join(dir, "tmp-run-dead")
	if err := os.WriteFile(stale, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}

	ps, err := b.Disk().Prune(0, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Removed != 1 || ps.Remaining != 1 {
		t.Fatalf("prune stats %+v, want 1 removed, 1 remaining", ps)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale temp file survived the prune")
	}
	// The unexpired artifact still serves.
	nb, _ := NewBatchWithCache(1, dir)
	nb.Run(specFor("swim"))
	if st := nb.DiskStats(); st.Hits != 1 {
		t.Fatalf("surviving artifact no longer serves: %+v", st)
	}
}

// artifactFiles lists the run artifacts sorted by name.
func artifactFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "run-*.bin"))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func TestBatchCacheLimitLRU(t *testing.T) {
	b := NewBatch(1)
	b.SetCacheLimit(2)
	s1 := cacheTestSpec()
	s2 := cacheTestSpec()
	s2.Benchmark = "swim"
	s3 := cacheTestSpec()
	s3.Benchmark = "mcf"

	b.Run(s1)
	b.Run(s2)
	b.Run(s3) // evicts s1 (least recently requested)
	if got := b.Stats().Executed; got != 3 {
		t.Fatalf("executed %d, want 3", got)
	}
	b.Run(s2) // still cached
	if got := b.Stats().Executed; got != 3 {
		t.Fatalf("cached spec re-executed: %d", got)
	}
	r := b.Run(s1) // evicted: must re-simulate, and deterministically so
	if got := b.Stats().Executed; got != 4 {
		t.Fatalf("evicted spec served stale: executed %d, want 4", got)
	}
	if r.CPU.Committed == 0 {
		t.Fatal("re-simulated result empty")
	}
	if b.DistinctRuns() > 2 {
		t.Fatalf("cache holds %d results, want <= 2", b.DistinctRuns())
	}
}

func TestDiskCacheArtifactsWorldReadable(t *testing.T) {
	dir := t.TempDir()
	b, err := NewBatchWithCache(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	b.Run(cacheTestSpec())

	// CreateTemp makes 0600 temp files; the rename must publish 0644 —
	// a sibling process under another uid sharing the cache directory
	// otherwise reads nothing and silently re-simulates.
	files := artifactFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("expected one artifact, got %v", files)
	}
	st, err := os.Stat(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if mode := st.Mode().Perm(); mode != 0o644 {
		t.Errorf("%s published with mode %o, want 644", filepath.Base(files[0]), mode)
	}
}
