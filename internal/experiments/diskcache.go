package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"samielsq/internal/core"
	"samielsq/internal/cpu"
	"samielsq/internal/energy"
	"samielsq/internal/lsq"
)

// diskCacheVersion tags the on-disk artifact format; bump it when the
// encoding changes in a way the layout fingerprint (artifact.go) does
// not see, so stale artifacts are treated as misses instead of being
// misread. Version 2 added the normalized Spec so whole-suite
// preloading can reconstruct complete results; version 3 replaced the
// JSON artifacts (run-*.json) with the binary layout (run-*.bin).
const diskCacheVersion = 3

// simStamp identifies the simulator build that produced an artifact.
// A spec key alone is not enough: a later commit may change simulation
// semantics, and serving an older build's artifact would reproduce
// numbers the current code cannot. The stamp is the VCS revision (plus
// a dirty marker) when the binary carries build info; builds without
// it (plain `go test`, dirty dev trees) share a conservative "dev"
// stamp — use -cachedir "" or a throwaway directory when iterating on
// simulator semantics uncommitted.
var simStamp = sync.OnceValue(func() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" && !dirty {
			return rev
		}
	}
	return "dev"
})

// diskArtifact is the persisted form of one RunResult, written by the
// binary record codec in artifact.go. Everything the figure and table
// harnesses read from a result round-trips exactly: floats are stored
// as their IEEE-754 bits, so figures regenerated from disk are
// byte-identical to fresh simulations. The memory-hierarchy state
// (RunResult.Hier) is deliberately not persisted — its aggregate rates
// already live in the CPU result — so disk-served results carry a nil
// Hier.
type diskArtifact struct {
	Version int
	Sim     string // simulator build stamp (see simStamp)
	Key     string
	Spec    RunSpec // normalized; lets preloaded results keep their identity
	CPU     cpu.Result
	Meter   *energy.Meter
	SAMIE   core.Stats
	Conv    lsq.OccupancyStats
}

// DiskCacheStats counts a cache's traffic.
type DiskCacheStats struct {
	Hits   int64 // results served from disk
	Misses int64 // absent, corrupt or incompatible artifacts
	Writes int64 // artifacts persisted
}

// DiskCache spills run results to a directory, content-addressed by
// the canonical RunSpec key, so repeated invocations (separate
// samie-bench runs, CI jobs, several processes on a shared cache
// directory) skip finished simulations entirely. Corrupt or partial
// files — a killed writer, a disk-full truncation — degrade to cache
// misses and are repaired by the rewrite after re-simulation.
// Concurrent writers are safe: artifacts are written to a unique temp
// file and atomically renamed into place.
//
// Alongside the artifacts the cache maintains index.json, a key ->
// file map that lets a fresh process enumerate (and preload) the whole
// cache without reading every artifact body. The index is an
// accelerator, never an authority: per-key loads go straight to the
// content-addressed file, and a stale or missing index is rebuilt by
// RebuildIndex. Concurrent processes rewrite it atomically
// (last-writer-wins); keys a racing process added are still served by
// load, merely absent from this process's enumeration.
type DiskCache struct {
	dir string

	hits, misses, writes atomic.Int64

	mu  sync.Mutex
	idx map[string]indexEntry

	// Index flushes are debounced: a store marks the index dirty and
	// arms a timer; the whole O(N) marshal+write happens once per
	// flushDelay however many artifacts land in the window, instead of
	// once per store (O(N²) aggregate for a long-lived server). The
	// index stays an accelerator, never an authority — per-key loads go
	// to the content-addressed file — so a crash before the timer fires
	// loses only enumeration hints, which RebuildIndex recovers.
	// Prune, RebuildIndex and Close flush synchronously.
	flushDelay time.Duration
	dirty      bool
	flushTimer *time.Timer
	closed     bool

	// idxWriteMu serializes index.json rewrites so a newer snapshot is
	// never clobbered by an older one racing its rename.
	idxWriteMu sync.Mutex
}

// indexFile is the cache-directory index name.
const indexFile = "index.json"

// indexEntry locates one artifact from the index.
type indexEntry struct {
	File  string `json:"file"`
	Bytes int64  `json:"bytes"`
	Mod   int64  `json:"mod"` // unix seconds
}

// diskIndex is the persisted index shape.
type diskIndex struct {
	Version int
	Sim     string
	Keys    map[string]indexEntry
}

// defaultFlushDelay is how long a dirty index may wait before its
// debounced rewrite; long enough to batch a burst of stores, short
// enough that a sibling process adopting the index sees fresh keys.
const defaultFlushDelay = time.Second

// NewDiskCache opens (creating if needed) a cache rooted at dir,
// adopting a compatible existing index.
func NewDiskCache(dir string) (*DiskCache, error) {
	if dir == "" {
		return nil, fmt.Errorf("experiments: empty disk cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("experiments: disk cache: %w", err)
	}
	d := &DiskCache{dir: dir, idx: map[string]indexEntry{}, flushDelay: defaultFlushDelay}
	if data, err := os.ReadFile(filepath.Join(dir, indexFile)); err == nil {
		var ix diskIndex
		if json.Unmarshal(data, &ix) == nil &&
			ix.Version == diskCacheVersion && ix.Sim == simStamp() && ix.Keys != nil {
			d.idx = ix.Keys
		}
	}
	return d, nil
}

// DefaultCacheDir returns the conventional per-user cache location
// (<user cache dir>/samielsq).
func DefaultCacheDir() (string, error) {
	base, err := os.UserCacheDir()
	if err != nil {
		return "", fmt.Errorf("experiments: no user cache dir: %w", err)
	}
	return filepath.Join(base, "samielsq"), nil
}

// ResolveCacheDir maps the conventional -cachedir flag value shared by
// the CLIs and the server to a concrete directory: "auto" resolves to
// DefaultCacheDir, "" keeps the disk cache disabled, anything else is
// used as-is.
func ResolveCacheDir(flagValue string) (string, error) {
	if flagValue == "auto" {
		return DefaultCacheDir()
	}
	return flagValue, nil
}

// OpenBatch assembles the standard command-line/server batch over a
// -cachedir flag value: disk-backed when a cache directory is
// available, degrading to an uncached batch when directory resolution
// or cache construction fails (warn observes the failure; a cache
// problem must never stop simulations). The second return is the
// resolved cache directory — "" when the batch runs uncached — for
// callers that report or prune it.
func OpenBatch(workers int, cachedirFlag string, warn func(err error)) (*Batch, string) {
	dir, err := ResolveCacheDir(cachedirFlag)
	if err != nil {
		warn(err)
		dir = ""
	}
	if dir != "" {
		b, err := NewBatchWithCache(workers, dir)
		if err == nil {
			return b, dir
		}
		warn(err)
	}
	return NewBatch(workers), ""
}

// Dir returns the cache's root directory.
func (d *DiskCache) Dir() string { return d.dir }

// Stats returns a snapshot of the cache traffic counters.
func (d *DiskCache) Stats() DiskCacheStats {
	return DiskCacheStats{
		Hits:   d.hits.Load(),
		Misses: d.misses.Load(),
		Writes: d.writes.Load(),
	}
}

// path maps a canonical spec key to its content-addressed file.
func (d *DiskCache) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(d.dir, "run-"+hex.EncodeToString(sum[:])+".bin")
}

// load returns the cached result for key, if a valid artifact exists,
// counting a hit or miss.
func (d *DiskCache) load(key string) (RunResult, bool) {
	r, ok := d.read(key)
	if ok {
		d.hits.Add(1)
	} else {
		d.misses.Add(1)
	}
	return r, ok
}

// read is load without the traffic accounting; preloading uses it so
// warming a batch does not masquerade as request traffic.
func (d *DiskCache) read(key string) (RunResult, bool) {
	data, err := os.ReadFile(d.path(key))
	if err != nil {
		return RunResult{}, false
	}
	art, err := artifactCodec.decode(data)
	if err != nil || !validArtifact(&art, key) {
		// Corrupt, truncated, produced by a different simulator build,
		// version-skewed or hash-collided: treat as a miss; the
		// post-simulation store rewrites it.
		return RunResult{}, false
	}
	return art.result(), true
}

// result unwraps a decoded artifact into the result it persisted.
func (a *diskArtifact) result() RunResult {
	return RunResult{Key: a.Key, Spec: a.Spec, CPU: a.CPU, Meter: a.Meter, SAMIE: a.SAMIE, Conv: a.Conv}
}

// newArtifact wraps a result in the persisted form this build writes.
func newArtifact(key string, res RunResult) diskArtifact {
	return diskArtifact{
		Version: diskCacheVersion,
		Sim:     simStamp(),
		Key:     key,
		Spec:    res.Spec,
		CPU:     res.CPU,
		Meter:   res.Meter,
		SAMIE:   res.SAMIE,
		Conv:    res.Conv,
	}
}

// validArtifact is the single acceptance predicate for run payloads
// from outside this process — disk artifacts (read, RebuildIndex) and
// peer-delivered bodies (ValidatePeerResult) alike: the format
// version, simulator build stamp and canonical key must all match,
// and the energy meter must be present.
func validArtifact(art *diskArtifact, key string) bool {
	return art.Version == diskCacheVersion && art.Sim == simStamp() &&
		art.Key == key && art.Meter != nil
}

// store persists a result. Failures are silent by design: the cache is
// an accelerator, never a correctness dependency.
//
//samie:deterministic
func (d *DiskCache) store(key string, res RunResult) {
	art := newArtifact(key, res)
	data := artifactCodec.encode(&art)
	tmp, err := os.CreateTemp(d.dir, "tmp-run-*")
	if err != nil {
		return
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return
	}
	// CreateTemp makes the file 0600; the cache directory is shared
	// between processes (and uids, on a common -cachedir), so widen to
	// the conventional artifact mode before publishing it.
	if err := os.Chmod(name, 0o644); err != nil {
		os.Remove(name)
		return
	}
	path := d.path(key)
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return
	}
	d.writes.Add(1)
	d.mu.Lock()
	//lint:ignore detpure Mod is operational index metadata; the keyed artifact body above is byte-deterministic
	d.idx[key] = indexEntry{File: filepath.Base(path), Bytes: int64(len(data)), Mod: time.Now().Unix()}
	d.markDirtyLocked()
	d.mu.Unlock()
}

// markDirtyLocked notes an index change and arms the debounce timer if
// none is pending. Caller holds d.mu. A closed cache flushed on Close;
// a straggling store after that is still served per-key from its
// artifact, so losing its index entry is harmless.
func (d *DiskCache) markDirtyLocked() {
	d.dirty = true
	if d.flushTimer == nil && !d.closed {
		d.flushTimer = time.AfterFunc(d.flushDelay, d.debouncedFlush)
	}
}

// debouncedFlush is the timer callback: rewrite the index if it is
// still dirty.
func (d *DiskCache) debouncedFlush() {
	d.mu.Lock()
	d.flushTimer = nil
	dirty := d.dirty
	d.dirty = false
	d.mu.Unlock()
	if dirty {
		d.flushIndex()
	}
}

// FlushIndex rewrites index.json immediately, cancelling any pending
// debounced flush. Call it before handing the directory to another
// process that will enumerate the index (tests, CI assertions);
// Prune, RebuildIndex and Close already do.
func (d *DiskCache) FlushIndex() {
	d.mu.Lock()
	d.dirty = false
	if d.flushTimer != nil {
		d.flushTimer.Stop()
		d.flushTimer = nil
	}
	d.mu.Unlock()
	d.flushIndex()
}

// Close flushes a dirty index and stops the debounce timer. The cache
// remains usable for per-key loads and stores (it holds no other
// resources), but further index changes are no longer flushed
// automatically. Safe to call more than once.
func (d *DiskCache) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	dirty := d.dirty
	d.dirty = false
	if d.flushTimer != nil {
		d.flushTimer.Stop()
		d.flushTimer = nil
	}
	d.mu.Unlock()
	if dirty {
		d.flushIndex()
	}
	return nil
}

// flushIndex atomically rewrites index.json from a snapshot of the
// in-memory index. The marshal and file I/O happen outside d.mu, so
// workers persisting results only contend on the map update, never on
// disk writes; idxWriteMu orders the snapshots. Failures are silent
// (accelerator, not authority; RebuildIndex repairs).
func (d *DiskCache) flushIndex() {
	d.idxWriteMu.Lock()
	defer d.idxWriteMu.Unlock()
	d.mu.Lock()
	snap := make(map[string]indexEntry, len(d.idx))
	for k, e := range d.idx {
		snap[k] = e
	}
	d.mu.Unlock()
	data, err := json.Marshal(diskIndex{Version: diskCacheVersion, Sim: simStamp(), Keys: snap})
	if err != nil {
		return
	}
	tmp, err := os.CreateTemp(d.dir, "tmp-index-*")
	if err != nil {
		return
	}
	name := tmp.Name()
	// Same 0600 -> 0644 widening as store: sibling processes under
	// other uids must be able to enumerate the index.
	if _, err := tmp.Write(data); err == nil && tmp.Close() == nil && os.Chmod(name, 0o644) == nil {
		if os.Rename(name, filepath.Join(d.dir, indexFile)) == nil {
			return
		}
	} else {
		tmp.Close()
	}
	os.Remove(name)
}

// Keys returns the indexed artifact keys, sorted, without touching any
// artifact body.
func (d *DiskCache) Keys() []string {
	d.mu.Lock()
	keys := make([]string, 0, len(d.idx))
	for k := range d.idx {
		keys = append(keys, k)
	}
	d.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// RebuildIndex rescans the cache directory, validating every artifact
// body, and rewrites index.json from what it finds. Use it to adopt
// artifacts written by other processes or to repair a lost index.
// Returns the number of valid artifacts indexed.
func (d *DiskCache) RebuildIndex() (int, error) {
	files, err := filepath.Glob(filepath.Join(d.dir, "run-*.bin"))
	if err != nil {
		return 0, fmt.Errorf("experiments: disk cache scan: %w", err)
	}
	fresh := map[string]indexEntry{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		art, err := artifactCodec.decode(data)
		if err != nil || !validArtifact(&art, art.Key) || d.path(art.Key) != f {
			continue
		}
		st, err := os.Stat(f)
		if err != nil {
			continue
		}
		fresh[art.Key] = indexEntry{File: filepath.Base(f), Bytes: st.Size(), Mod: st.ModTime().Unix()}
	}
	d.mu.Lock()
	d.idx = fresh
	d.mu.Unlock()
	d.FlushIndex()
	return len(fresh), nil
}

// PruneStats reports what a Prune pass did and what it left behind.
type PruneStats struct {
	Removed        int   // artifacts deleted
	FreedBytes     int64 // bytes those artifacts occupied
	Remaining      int   // artifacts kept
	RemainingBytes int64 // bytes they occupy
}

// Prune bounds the cache: artifacts older than maxAge are removed, and
// if the survivors still exceed maxBytes the oldest are removed until
// they fit. A zero maxAge or maxBytes disables that bound (Prune(0, 0)
// only sweeps leftovers). Stale temp files from killed writers are
// always collected, and so are legacy JSON artifacts (run-*.json,
// format version 2 and older), which can never validate again; those
// count as removed. The index is rewritten to match.
func (d *DiskCache) Prune(maxBytes int64, maxAge time.Duration) (PruneStats, error) {
	type artifact struct {
		path  string
		bytes int64
		mod   time.Time
	}
	files, err := filepath.Glob(filepath.Join(d.dir, "run-*.bin"))
	if err != nil {
		return PruneStats{}, fmt.Errorf("experiments: disk cache prune: %w", err)
	}
	arts := make([]artifact, 0, len(files))
	for _, f := range files {
		st, err := os.Stat(f)
		if err != nil {
			continue
		}
		arts = append(arts, artifact{f, st.Size(), st.ModTime()})
	}
	sort.Slice(arts, func(i, j int) bool { return arts[i].mod.Before(arts[j].mod) })

	now := time.Now()
	var ps PruneStats
	var total int64
	for _, a := range arts {
		total += a.bytes
	}
	doomed := map[string]bool{}
	for _, a := range arts {
		expired := maxAge > 0 && now.Sub(a.mod) > maxAge
		over := maxBytes > 0 && total > maxBytes
		if !expired && !over {
			ps.Remaining++
			ps.RemainingBytes += a.bytes
			continue
		}
		if err := os.Remove(a.path); err != nil && !os.IsNotExist(err) {
			// Undeletable file still occupies space; count it as kept.
			ps.Remaining++
			ps.RemainingBytes += a.bytes
			continue
		}
		doomed[filepath.Base(a.path)] = true
		ps.Removed++
		ps.FreedBytes += a.bytes
		total -= a.bytes
	}

	// Temp files orphaned by killed writers: anything older than an
	// hour was abandoned, not in-flight.
	tmps, _ := filepath.Glob(filepath.Join(d.dir, "tmp-*"))
	for _, f := range tmps {
		if st, err := os.Stat(f); err == nil && now.Sub(st.ModTime()) > time.Hour {
			os.Remove(f)
		}
	}
	legacy, _ := filepath.Glob(filepath.Join(d.dir, "run-*.json"))
	for _, f := range legacy {
		if st, err := os.Stat(f); err == nil && os.Remove(f) == nil {
			ps.Removed++
			ps.FreedBytes += st.Size()
		}
	}

	d.mu.Lock()
	//lint:ordered per-key deletes of doomed entries; no cross-key state
	for k, e := range d.idx {
		if doomed[e.File] {
			delete(d.idx, k)
		}
	}
	d.mu.Unlock()
	d.FlushIndex()
	return ps, nil
}
