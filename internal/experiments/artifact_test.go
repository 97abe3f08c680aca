package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"samielsq/internal/energy"
)

// artifactModels is one small spec per LSQ model, for seeds and
// per-model checks.
var artifactModels = []struct {
	name string
	spec RunSpec
}{
	{"conventional", RunSpec{Benchmark: "gzip", Insts: 2000, Model: ModelConventional}},
	{"unbounded", RunSpec{Benchmark: "gzip", Insts: 2000, Model: ModelUnbounded}},
	{"arb", RunSpec{Benchmark: "gzip", Insts: 2000, Model: ModelARB, ARBBanks: 64, ARBAddrs: 2, ARBInflight: 128}},
	{"samie", RunSpec{Benchmark: "gzip", Insts: 2000, Model: ModelSAMIE}},
}

// checkArtifactRoundTrip is the decoder's invariant: an input is
// either rejected or re-encodes to exactly its own bytes.
func checkArtifactRoundTrip(t *testing.T, data []byte) {
	t.Helper()
	art, err := decodeArtifact(data)
	if err != nil {
		return
	}
	if got := encodeArtifact(&art); !bytes.Equal(got, data) {
		t.Fatalf("decoded artifact re-encodes to different bytes:\n got %x\nwant %x", got, data)
	}
}

func FuzzDecodeArtifact(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkArtifactRoundTrip(t, data)
	})
}

// legacyJSONArtifact is what format version 2 wrote for a result: the
// same fields, JSON-encoded.
func legacyJSONArtifact(t *testing.T, key string, res RunResult) []byte {
	t.Helper()
	art := newArtifact(key, res)
	art.Version = 2
	data, err := json.Marshal(art)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// fuzzSeeds builds the FuzzDecodeArtifact seed corpus: one valid
// artifact per LSQ model, truncations of each, a flipped layout
// fingerprint and a legacy JSON artifact.
func fuzzSeeds(t *testing.T) map[string][]byte {
	t.Helper()
	seeds := map[string][]byte{}
	var samie RunResult
	for _, m := range artifactModels {
		n := Normalize(m.spec)
		res := runNormalized(n)
		art := newArtifact(keyOf(n), res)
		valid := encodeArtifact(&art)
		seeds["valid-"+m.name] = valid
		seeds["truncated-half-"+m.name] = valid[:len(valid)/2]
		seeds["truncated-last-"+m.name] = valid[:len(valid)-1]
		if m.spec.Model == ModelSAMIE {
			samie = res
		}
	}
	flipped := bytes.Clone(seeds["valid-samie"])
	flipped[len(artifactMagic)] ^= 0xff
	seeds["flipped-fingerprint"] = flipped
	seeds["legacy-v2-json"] = legacyJSONArtifact(t, keyOf(samie.Spec), samie)
	return seeds
}

// readCorpusFile parses a one-[]byte "go test fuzz v1" corpus file.
func readCorpusFile(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
		!strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
		t.Fatalf("%s: not a one-[]byte fuzz corpus file", path)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}

// TestFuzzDecodeArtifactCorpus keeps the committed seed corpus
// meaningful: every seed exists, and the valid ones still decode under
// the current layout fingerprint while the rest are rejected. A layout
// change makes the valid seeds stale; regenerate them with
// UPDATE_GOLDEN=1 go test -run TestFuzzDecodeArtifactCorpus.
func TestFuzzDecodeArtifactCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeArtifact")
	seeds := fuzzSeeds(t)
	names := make([]string, 0, len(seeds))
	for name := range seeds {
		names = append(names, name)
	}
	sort.Strings(names)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seeds[name])
			if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("fuzz corpus updated: %d seeds", len(names))
		return
	}
	for _, name := range names {
		data := readCorpusFile(t, filepath.Join(dir, name))
		_, err := decodeArtifact(data)
		if valid := strings.HasPrefix(name, "valid-"); valid != (err == nil) {
			t.Errorf("seed %s: decode error %v; regenerate the corpus with UPDATE_GOLDEN=1", name, err)
		}
	}
}

// testArtifact is a small well-formed artifact that needs no
// simulation.
func testArtifact() diskArtifact {
	n := Normalize(RunSpec{Benchmark: "gzip", Insts: 2000, Model: ModelSAMIE})
	m := energy.NewMeter()
	m.Distrib, m.NBusSends = 1.0/3, 7
	return newArtifact(keyOf(n), RunResult{Spec: n, Meter: m})
}

// firstDiff returns the first offset at which a and b differ.
func firstDiff(t *testing.T, a, b []byte) int {
	t.Helper()
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	t.Fatal("encodings do not differ")
	return 0
}

func TestDecodeArtifactRejects(t *testing.T) {
	art := testArtifact()
	good := encodeArtifact(&art)
	got, err := decodeArtifact(good)
	if err != nil {
		t.Fatalf("well-formed artifact rejected: %v", err)
	}
	if !reflect.DeepEqual(got, art) {
		t.Fatalf("decoded artifact differs:\n got %+v\nwant %+v", got, art)
	}

	reject := func(what string, data []byte, want error) {
		t.Helper()
		if _, err := decodeArtifact(data); !errors.Is(err, want) {
			t.Errorf("%s: decode error %v, want %v", what, err, want)
		}
	}
	for i := range len(good) {
		want := errArtifactTruncated
		if i < len(artifactMagic) {
			want = errArtifactMagic
		}
		reject(fmt.Sprintf("truncated to %d bytes", i), good[:i], want)
	}
	reject("trailing byte", append(bytes.Clone(good), 0), errArtifactTrailing)
	badMagic := bytes.Clone(good)
	badMagic[0] ^= 1
	reject("bad magic", badMagic, errArtifactMagic)
	badLayout := bytes.Clone(good)
	badLayout[len(artifactMagic)+3] ^= 1
	reject("flipped fingerprint", badLayout, errArtifactLayout)

	// A bool byte above 1: locate FastWayKnown by encoding both values.
	on := art
	scfg := *art.Spec.SAMIE
	scfg.FastWayKnown = true
	on.Spec.SAMIE = &scfg
	i := firstDiff(t, good, encodeArtifact(&on))
	badBool := bytes.Clone(good)
	badBool[i] = 2
	reject("bool byte 2", badBool, errArtifactByte)

	// A presence byte above 1: locate the Meter's by dropping it.
	noMeter := art
	noMeter.Meter = nil
	absent := encodeArtifact(&noMeter)
	i = firstDiff(t, good, absent)
	absent[i] = 2
	reject("presence byte 2", absent, errArtifactByte)

	reject("legacy JSON", legacyJSONArtifact(t, art.Key, RunResult{Spec: art.Spec, Meter: art.Meter}), errArtifactMagic)
}

func TestLayoutFingerprint(t *testing.T) {
	type base struct {
		A int
		B bool
	}
	type added struct {
		A int
		B bool
		C int
	}
	type renamed struct {
		A int
		X bool
	}
	type retyped struct {
		A uint
		B bool
	}
	fp := layoutFingerprint(reflect.TypeFor[base]())
	for name, typ := range map[string]reflect.Type{
		"added":   reflect.TypeFor[added](),
		"renamed": reflect.TypeFor[renamed](),
		"retyped": reflect.TypeFor[retyped](),
	} {
		if layoutFingerprint(typ) == fp {
			t.Errorf("%s field leaves the layout fingerprint unchanged", name)
		}
	}
	for _, typ := range []reflect.Type{
		reflect.TypeFor[struct{ M map[string]int }](),
		reflect.TypeFor[struct{ S []int }](),
		reflect.TypeFor[struct{ F float32 }](),
		reflect.TypeFor[struct{ p int }](),
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: unsupported layout accepted", typ)
				}
			}()
			layoutFingerprint(typ)
		}()
	}
}

// TestDiskCacheLegacyJSONArtifact covers an upgrade: a format-2 JSON
// artifact left in the directory reads as a miss, the re-simulated
// result lands as a binary artifact, and Prune deletes the JSON.
func TestDiskCacheLegacyJSONArtifact(t *testing.T) {
	dir := t.TempDir()
	spec := cacheTestSpec()
	key := Key(spec)
	fresh := Run(spec)
	sum := sha256.Sum256([]byte(key))
	legacy := filepath.Join(dir, "run-"+hex.EncodeToString(sum[:])+".json")
	if err := os.WriteFile(legacy, legacyJSONArtifact(t, key, fresh), 0o644); err != nil {
		t.Fatal(err)
	}

	b, err := NewBatchWithCache(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	r := b.Run(spec)
	if st := b.DiskStats(); st.Hits != 0 || st.Misses != 1 || st.Writes != 1 {
		t.Fatalf("legacy artifact not treated as a miss: stats %+v", st)
	}
	if r.CPU != fresh.CPU {
		t.Fatal("re-simulated result differs")
	}
	if files := artifactFiles(t, dir); len(files) != 1 || files[0] != b.Disk().path(key) ||
		filepath.Ext(files[0]) != ".bin" {
		t.Fatalf("binary artifacts after re-simulation: %v", files)
	}

	ps, err := b.Disk().Prune(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Removed != 1 || ps.Remaining != 1 {
		t.Fatalf("prune stats %+v, want the legacy artifact removed and 1 remaining", ps)
	}
	if _, err := os.Stat(legacy); !os.IsNotExist(err) {
		t.Fatalf("legacy JSON artifact survived Prune (err=%v)", err)
	}
	nb, _ := NewBatchWithCache(1, dir)
	nb.Run(spec)
	if st := nb.DiskStats(); st.Hits != 1 {
		t.Fatalf("binary artifact does not serve after prune: %+v", st)
	}
}

// BenchmarkDiskHit measures one disk-tier hit: read, decode and
// validate an artifact.
func BenchmarkDiskHit(b *testing.B) {
	d, err := NewDiskCache(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	spec := Normalize(RunSpec{Benchmark: "gzip", Insts: 2000, Model: ModelSAMIE})
	key := keyOf(spec)
	d.store(key, runNormalized(spec))
	b.ReportAllocs()
	for b.Loop() {
		if _, ok := d.load(key); !ok {
			b.Fatal("disk miss")
		}
	}
}
