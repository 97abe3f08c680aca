package experiments

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"
)

// cacheTestSpec is a tiny simulation so the cache tests stay fast.
func cacheTestSpec() RunSpec {
	return RunSpec{Benchmark: "gzip", Insts: 5_000, Model: ModelSAMIE}
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
		if cached.Hier != nil {
			t.Errorf("%s: disk-served result must carry a nil Hier", m.name)
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
	if keys := b1.Disk().Keys(); len(keys) != 2 {
		t.Fatalf("index holds %d keys after 2 stores, want 2", len(keys))
	}
	// Index rewrites are debounced; Close forces the flush so a fresh
	// process adopting the directory sees both keys.
	if err := b1.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh batch over the same directory preloads the whole suite
	// from the index: both specs then serve from memory with zero
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

func TestDiskCacheRebuildIndex(t *testing.T) {
	dir := t.TempDir()
	b, err := NewBatchWithCache(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	b.Run(specFor("gzip"))
	b.Run(specFor("mcf"))
	b.Disk().FlushIndex()
	if err := os.Remove(filepath.Join(dir, indexFile)); err != nil {
		t.Fatal(err)
	}

	// Without an index a fresh cache enumerates nothing...
	d, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if keys := d.Keys(); len(keys) != 0 {
		t.Fatalf("lost index still enumerates %d keys", len(keys))
	}
	// ...and RebuildIndex recovers every valid artifact, skipping junk.
	if err := os.WriteFile(filepath.Join(dir, "run-zz.bin"), []byte("{bad"), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := d.RebuildIndex()
	if err != nil || n != 2 {
		t.Fatalf("RebuildIndex = %d, %v; want 2, nil", n, err)
	}
	if keys := d.Keys(); len(keys) != 2 {
		t.Fatalf("rebuilt index holds %d keys, want 2", len(keys))
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
	if keys := b.Disk().Keys(); len(keys) != 1 {
		t.Fatalf("index holds %d keys after prune, want 1", len(keys))
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

func TestDiskCacheDebouncedIndexFlush(t *testing.T) {
	dir := t.TempDir()
	b, err := NewBatchWithCache(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	d := b.Disk()
	// Lengthen the debounce so the window is observable: the store must
	// NOT rewrite index.json synchronously.
	d.flushDelay = time.Hour
	b.Run(specFor("gzip"))
	if _, err := os.Stat(filepath.Join(dir, indexFile)); !os.IsNotExist(err) {
		t.Fatalf("index.json written synchronously by store (err=%v); flush should be debounced", err)
	}
	// The in-memory index already enumerates the key regardless.
	if keys := d.Keys(); len(keys) != 1 {
		t.Fatalf("in-memory index holds %d keys, want 1", len(keys))
	}
	// A second store inside the pending window does not re-arm the
	// timer: one flush covers the burst.
	b.Run(specFor("swim"))
	if _, err := os.Stat(filepath.Join(dir, indexFile)); !os.IsNotExist(err) {
		t.Fatalf("burst store flushed early (err=%v)", err)
	}

	// With a short debounce the flush arrives without any forced call,
	// carrying every store of the burst.
	dirShort := t.TempDir()
	bs, err := NewBatchWithCache(1, dirShort)
	if err != nil {
		t.Fatal(err)
	}
	bs.Disk().flushDelay = 10 * time.Millisecond
	bs.Run(specFor("gzip"))
	bs.Run(specFor("swim"))
	deadline := time.Now().Add(5 * time.Second)
	for {
		nd, err := NewDiskCache(dirShort)
		if err != nil {
			t.Fatal(err)
		}
		if keys := nd.Keys(); len(keys) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("debounced flush never wrote a complete index.json")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Close on a dirty cache flushes immediately, and is idempotent.
	dir2 := t.TempDir()
	b2, err := NewBatchWithCache(1, dir2)
	if err != nil {
		t.Fatal(err)
	}
	b2.Disk().flushDelay = time.Hour
	b2.Run(specFor("gzip"))
	if _, err := os.Stat(filepath.Join(dir2, indexFile)); !os.IsNotExist(err) {
		t.Fatal("index.json present before Close despite hour-long debounce")
	}
	if err := b2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir2, indexFile)); err != nil {
		t.Fatalf("Close did not flush the index: %v", err)
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
	b.Disk().FlushIndex()

	// CreateTemp makes 0600 temp files; the rename must publish 0644 —
	// a sibling process under another uid sharing the cache directory
	// otherwise reads nothing and silently re-simulates.
	files := artifactFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("expected one artifact, got %v", files)
	}
	for _, f := range append(files, filepath.Join(dir, indexFile)) {
		st, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		if mode := st.Mode().Perm(); mode != 0o644 {
			t.Errorf("%s published with mode %o, want 644", filepath.Base(f), mode)
		}
	}
}
