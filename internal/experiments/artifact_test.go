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
	"samielsq/internal/obs"
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

// checkRoundTrip is every record decoder's invariant: an input is
// either rejected or re-encodes to exactly its own bytes.
func checkRoundTrip[T any](t *testing.T, c recordCodec[T], data []byte) {
	t.Helper()
	v, err := c.decode(data)
	if err != nil {
		return
	}
	if got := c.encode(&v); !bytes.Equal(got, data) {
		t.Fatalf("decoded record re-encodes to different bytes:\n got %x\nwant %x", got, data)
	}
}

// FuzzDecodeArtifact holds the disk-artifact decoder, which reads
// whatever a shared cache directory holds, to the round-trip invariant
// and its compiled plan to the reflection walker (record_oracle_test.go).
func FuzzDecodeArtifact(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRoundTrip(t, artifactCodec, data)
		checkAgreesWithOracle(t, artifactCodec, data)
	})
}

// FuzzDecodeRunRecord holds the wire-record decoder, which reads
// whatever a server sends the typed client, to the same invariants;
// DecodeRunRecord must accept exactly what the codec accepts.
func FuzzDecodeRunRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRoundTrip(t, wireCodec, data)
		checkAgreesWithOracle(t, wireCodec, data)
		_, _, err := DecodeRunRecord(data)
		if _, cerr := wireCodec.decode(data); (err == nil) != (cerr == nil) {
			t.Fatalf("DecodeRunRecord error %v, codec error %v", err, cerr)
		}
	})
}

// FuzzDecodeSpecRecord holds the spec-record decoder, which reads
// whatever a client posts to /v1/runs, to the codec invariants, and
// feeds every accepted spec to ValidateSpec, which must answer without
// a panic: a spec record carries a raw model kind and configuration.
func FuzzDecodeSpecRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRoundTrip(t, specCodec, data)
		checkAgreesWithOracle(t, specCodec, data)
		spec, _, err := DecodeSpecRecord(data)
		if _, cerr := specCodec.decode(data); (err == nil) != (cerr == nil) {
			t.Fatalf("DecodeSpecRecord error %v, codec error %v", err, cerr)
		}
		if err == nil {
			_, _ = ValidateSpec(spec)
		}
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

// modelResults simulates artifactModels, one result per LSQ model.
func modelResults() map[string]RunResult {
	out := map[string]RunResult{}
	for _, m := range artifactModels {
		n := Normalize(m.spec)
		out[m.name] = runNormalized(n, keyOf(n))
	}
	return out
}

// addTruncations adds a valid seed and its half-length and last-byte
// truncations.
func addTruncations(seeds map[string][]byte, model string, valid []byte) {
	seeds["valid-"+model] = valid
	seeds["truncated-half-"+model] = valid[:len(valid)/2]
	seeds["truncated-last-"+model] = valid[:len(valid)-1]
}

// flipFingerprint returns rec with its layout fingerprint corrupted.
func flipFingerprint(rec []byte) []byte {
	flipped := bytes.Clone(rec)
	flipped[len(recordMagic)] ^= 0xff
	return flipped
}

// artifactSeeds builds the FuzzDecodeArtifact seed corpus: one valid
// artifact per LSQ model, truncations of each, a flipped layout
// fingerprint and a legacy JSON artifact.
func artifactSeeds(t *testing.T) map[string][]byte {
	t.Helper()
	seeds := map[string][]byte{}
	results := modelResults()
	for _, m := range artifactModels {
		art := newArtifact(results[m.name].Key, results[m.name])
		addTruncations(seeds, m.name, artifactCodec.encode(&art))
	}
	seeds["flipped-fingerprint"] = flipFingerprint(seeds["valid-samie"])
	seeds["legacy-v2-json"] = legacyJSONArtifact(t, results["samie"].Key, results["samie"])
	return seeds
}

// runRecordSeeds builds the FuzzDecodeRunRecord seed corpus: one valid
// wire record per LSQ model, truncations of each, a flipped layout
// fingerprint and a disk artifact offered as a wire record.
func runRecordSeeds(t *testing.T) map[string][]byte {
	t.Helper()
	seeds := map[string][]byte{}
	results := modelResults()
	for _, m := range artifactModels {
		addTruncations(seeds, m.name, EncodeRunRecord(results[m.name]))
	}
	seeds["flipped-fingerprint"] = flipFingerprint(seeds["valid-samie"])
	art := newArtifact(results["samie"].Key, results["samie"])
	seeds["disk-artifact"] = artifactCodec.encode(&art)
	return seeds
}

// specRecordSeeds builds the FuzzDecodeSpecRecord seed corpus: one
// valid spec record per LSQ model and one normalized SAMIE spec with
// the timeline option, truncations of each, a flipped layout
// fingerprint, a wire run record offered as a spec record, and a
// well-formed record whose model kind is out of range.
func specRecordSeeds(t *testing.T) map[string][]byte {
	t.Helper()
	seeds := map[string][]byte{}
	for _, m := range artifactModels {
		addTruncations(seeds, m.name, EncodeSpecRecord(m.spec, false))
	}
	addTruncations(seeds, "timeline", EncodeSpecRecord(Normalize(artifactModels[3].spec), true))
	seeds["flipped-fingerprint"] = flipFingerprint(seeds["valid-samie"])
	seeds["run-record"] = EncodeRunRecord(modelResults()["samie"])
	seeds["model-out-of-range"] = EncodeSpecRecord(RunSpec{Benchmark: "gzip", Insts: 2000, Model: ModelSAMIE + 1}, false)
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

// checkCorpus keeps a committed seed corpus meaningful: every seed
// exists, and the valid ones still decode under the current layout
// fingerprint while the rest are rejected. A layout change makes the
// valid seeds stale; UPDATE_GOLDEN=1 regenerates them.
func checkCorpus(t *testing.T, target string, seeds map[string][]byte, decode func([]byte) error) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
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
		t.Logf("%s corpus updated: %d seeds", target, len(names))
		return
	}
	for _, name := range names {
		err := decode(readCorpusFile(t, filepath.Join(dir, name)))
		if valid := strings.HasPrefix(name, "valid-"); valid != (err == nil) {
			t.Errorf("%s seed %s: decode error %v; regenerate the corpus with UPDATE_GOLDEN=1", target, name, err)
		}
	}
}

// TestFuzzDecodeArtifactCorpus checks the FuzzDecodeArtifact corpus;
// regenerate it with
// UPDATE_GOLDEN=1 go test -run TestFuzzDecodeArtifactCorpus.
func TestFuzzDecodeArtifactCorpus(t *testing.T) {
	checkCorpus(t, "FuzzDecodeArtifact", artifactSeeds(t), func(b []byte) error {
		_, err := artifactCodec.decode(b)
		return err
	})
}

// TestFuzzDecodeRunRecordCorpus checks the FuzzDecodeRunRecord corpus;
// regenerate it with
// UPDATE_GOLDEN=1 go test -run TestFuzzDecodeRunRecordCorpus.
func TestFuzzDecodeRunRecordCorpus(t *testing.T) {
	checkCorpus(t, "FuzzDecodeRunRecord", runRecordSeeds(t), func(b []byte) error {
		_, _, err := DecodeRunRecord(b)
		return err
	})
}

// TestFuzzDecodeSpecRecordCorpus checks the FuzzDecodeSpecRecord
// corpus, where a seed counts as accepted only when its spec also
// passes ValidateSpec; regenerate it with
// UPDATE_GOLDEN=1 go test -run TestFuzzDecodeSpecRecordCorpus.
func TestFuzzDecodeSpecRecordCorpus(t *testing.T) {
	checkCorpus(t, "FuzzDecodeSpecRecord", specRecordSeeds(t), func(b []byte) error {
		spec, _, err := DecodeSpecRecord(b)
		if err != nil {
			return err
		}
		_, err = ValidateSpec(spec)
		return err
	})
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
	good := artifactCodec.encode(&art)
	got, err := artifactCodec.decode(good)
	if err != nil {
		t.Fatalf("well-formed artifact rejected: %v", err)
	}
	if !reflect.DeepEqual(got, art) {
		t.Fatalf("decoded artifact differs:\n got %+v\nwant %+v", got, art)
	}

	reject := func(what string, data []byte, want error) {
		t.Helper()
		if _, err := artifactCodec.decode(data); !errors.Is(err, want) {
			t.Errorf("%s: decode error %v, want %v", what, err, want)
		}
	}
	for i := range len(good) {
		want := errRecordTruncated
		if i < len(recordMagic) {
			want = errRecordMagic
		}
		reject(fmt.Sprintf("truncated to %d bytes", i), good[:i], want)
	}
	reject("trailing byte", append(bytes.Clone(good), 0), errRecordTrailing)
	badMagic := bytes.Clone(good)
	badMagic[0] ^= 1
	reject("bad magic", badMagic, errRecordMagic)
	badLayout := bytes.Clone(good)
	badLayout[len(recordMagic)+3] ^= 1
	reject("flipped fingerprint", badLayout, errRecordLayout)

	// A bool byte above 1: locate FastWayKnown by encoding both values.
	on := art
	scfg := *art.Spec.SAMIE
	scfg.FastWayKnown = true
	on.Spec.SAMIE = &scfg
	i := firstDiff(t, good, artifactCodec.encode(&on))
	badBool := bytes.Clone(good)
	badBool[i] = 2
	reject("bool byte 2", badBool, errRecordByte)

	// A presence byte above 1: locate the Meter's by dropping it.
	noMeter := art
	noMeter.Meter = nil
	absent := artifactCodec.encode(&noMeter)
	i = firstDiff(t, good, absent)
	absent[i] = 2
	reject("presence byte 2", absent, errRecordByte)

	reject("legacy JSON", legacyJSONArtifact(t, art.Key, RunResult{Spec: art.Spec, Meter: art.Meter}), errRecordMagic)
}

// TestRunRecordRoundTrip checks the wire record against the disk
// artifact it extends: it carries the same fields plus Phases, and
// neither codec accepts the other's records.
func TestRunRecordRoundTrip(t *testing.T) {
	art := testArtifact()
	res := art.result()
	res.Phases = obs.PhaseTimes{QueueWait: 1e-6, DiskTier: 2.5e-5}
	rec := EncodeRunRecord(res)
	got, sim, err := DecodeRunRecord(rec)
	if err != nil {
		t.Fatalf("wire record rejected: %v", err)
	}
	if sim != simStamp() {
		t.Errorf("sim stamp %q, want %q", sim, simStamp())
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatalf("decoded result differs:\n got %+v\nwant %+v", got, res)
	}

	if wireCodec.layout == artifactCodec.layout {
		t.Fatal("wire record and disk artifact share a layout fingerprint")
	}
	if _, _, err := DecodeRunRecord(artifactCodec.encode(&art)); !errors.Is(err, errRecordLayout) {
		t.Errorf("disk artifact as a wire record: error %v, want %v", err, errRecordLayout)
	}
	if _, err := artifactCodec.decode(rec); !errors.Is(err, errRecordLayout) {
		t.Errorf("wire record as a disk artifact: error %v, want %v", err, errRecordLayout)
	}
	if RunRecordLayout != strconv.FormatUint(wireLayout(wireCodec.layout, specCodec.layout), 16) {
		t.Errorf("RunRecordLayout %q does not name the wire layouts", RunRecordLayout)
	}
}

// TestSpecRecordRoundTrip checks that a spec record carries a spec
// exactly as the caller built it, raw or normalized, with its timeline
// option, and that no other record type is accepted as one.
func TestSpecRecordRoundTrip(t *testing.T) {
	for _, m := range artifactModels {
		for _, spec := range []RunSpec{m.spec, Normalize(m.spec)} {
			for _, timeline := range []bool{false, true} {
				got, gotTimeline, err := DecodeSpecRecord(EncodeSpecRecord(spec, timeline))
				if err != nil {
					t.Fatalf("%s: spec record rejected: %v", m.name, err)
				}
				if !reflect.DeepEqual(got, spec) || gotTimeline != timeline {
					t.Fatalf("%s: decoded (%+v, %v), want (%+v, %v)", m.name, got, gotTimeline, spec, timeline)
				}
			}
		}
	}
	if specCodec.layout == wireCodec.layout || specCodec.layout == artifactCodec.layout {
		t.Fatal("spec record shares a layout fingerprint with another record type")
	}
	if _, _, err := DecodeSpecRecord(EncodeRunRecord(modelResults()["samie"])); !errors.Is(err, errRecordLayout) {
		t.Errorf("wire record as a spec record: error %v, want %v", err, errRecordLayout)
	}
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
	layoutFingerprint := func(t reflect.Type) uint64 {
		_, fp := buildPlan(t, true)
		return fp
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
// result lands as a binary artifact, and Prune deletes the JSON and an
// older build's index.json, counting only the former as an artifact.
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

	index := filepath.Join(dir, "index.json")
	if err := os.WriteFile(index, []byte(`{"Version":3,"Sim":"dev","Keys":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	ps, err := b.Disk().Prune(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Removed != 1 || ps.Remaining != 1 {
		t.Fatalf("prune stats %+v, want the legacy artifact removed and 1 remaining", ps)
	}
	for _, f := range []string{legacy, index} {
		if _, err := os.Stat(f); !os.IsNotExist(err) {
			t.Fatalf("%s survived Prune (err=%v)", filepath.Base(f), err)
		}
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
	d.store(key, runNormalized(spec, key))
	b.ReportAllocs()
	for b.Loop() {
		if _, ok := d.load(key); !ok {
			b.Fatal("disk miss")
		}
	}
}

// benchRunResult is the result the record benchmarks encode: a
// simulated SAMIE gzip run at 2000 instructions, as BenchmarkDiskHit
// reads it.
func benchRunResult() RunResult {
	spec := Normalize(RunSpec{Benchmark: "gzip", Insts: 2000, Model: ModelSAMIE})
	res := runNormalized(spec, keyOf(spec))
	res.Phases = obs.PhaseTimes{QueueWait: 1e-6, DiskTier: 2.5e-5}
	return res
}

// BenchmarkEncodeRunRecord measures rendering one wire record, which
// every binary POST /v1/runs answer and peer probe pays.
func BenchmarkEncodeRunRecord(b *testing.B) {
	res := benchRunResult()
	b.ReportAllocs()
	for b.Loop() {
		_ = EncodeRunRecord(res)
	}
}

// BenchmarkDecodeRunRecord measures parsing one wire record, which the
// typed client pays for every binary answer.
func BenchmarkDecodeRunRecord(b *testing.B) {
	rec := EncodeRunRecord(benchRunResult())
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := DecodeRunRecord(rec); err != nil {
			b.Fatal(err)
		}
	}
}
