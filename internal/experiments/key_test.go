package experiments

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"samielsq/internal/core"
	"samielsq/internal/cpu"
)

// keyOfFmt is the reference rendering keyOf must reproduce byte for
// byte: the canonical key's original fmt format.
func keyOfFmt(n RunSpec) string {
	var scfg core.Config
	if n.SAMIE != nil {
		scfg = *n.SAMIE
	}
	return fmt.Sprintf("b=%s|m=%d|i=%d|w=%d|conv=%d|arb=%d.%d.%d|samie=%+v|cpu=%+v",
		n.Benchmark, n.Model, n.Insts, n.Warmup,
		n.ConvEntries, n.ARBBanks, n.ARBAddrs, n.ARBInflight,
		scfg, *n.CPU)
}

// fillRandom sets every field of the struct *p from rng. A field kind
// keyOf does not render yet fails the test instead of being skipped.
func fillRandom(t *testing.T, rng *rand.Rand, p any) {
	t.Helper()
	v := reflect.ValueOf(p).Elem()
	for i := range v.NumField() {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int:
			f.SetInt(int64(int32(rng.Uint32())))
		case reflect.Bool:
			f.SetBool(rng.IntN(2) == 1)
		default:
			t.Fatalf("%s.%s: kind %s has no key rendering; extend keyOf and this test",
				v.Type(), v.Type().Field(i).Name, f.Kind())
		}
	}
}

// TestKeyMatchesFmtRendering pins keyOf to the fmt rendering over every
// spec the paper suite and the registered scenarios request, and over
// random specs whose configurations are filled field by field, so a
// Config field the renderer misses changes the reference and fails
// here.
func TestKeyMatchesFmtRendering(t *testing.T) {
	check := func(spec RunSpec) {
		t.Helper()
		n := Normalize(spec)
		if got, want := keyOf(n), keyOfFmt(n); got != want {
			t.Fatalf("keyOf diverges from the fmt rendering:\n got %s\nwant %s", got, want)
		}
	}
	benchmarks := Benchmarks()
	if len(benchmarks) != 26 {
		t.Fatalf("%d benchmarks, want the paper's 26", len(benchmarks))
	}
	for _, spec := range SuiteSpecs(benchmarks, 2000) {
		check(spec)
	}
	for _, name := range ScenarioNames() {
		specs, _, err := ScenarioSpecs(name, benchmarks, 2000)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range specs {
			check(spec)
		}
	}

	rng := rand.New(rand.NewPCG(1, 2))
	for range 300 {
		var scfg core.Config
		var ccfg cpu.Config
		fillRandom(t, rng, &scfg)
		fillRandom(t, rng, &ccfg)
		spec := RunSpec{
			Benchmark:   benchmarks[rng.IntN(len(benchmarks))],
			Insts:       rng.Uint64(),
			Warmup:      rng.Uint64(),
			Model:       ModelKind(rng.IntN(4)),
			ConvEntries: int(int32(rng.Uint32())),
			ARBBanks:    int(int32(rng.Uint32())),
			ARBAddrs:    int(int32(rng.Uint32())),
			ARBInflight: int(int32(rng.Uint32())),
			SAMIE:       &scfg,
			CPU:         &ccfg,
		}
		check(spec)
		// Unnormalized too: keyOf renders whatever it is handed.
		if got, want := keyOf(spec), keyOfFmt(spec); got != want {
			t.Fatalf("keyOf diverges on a raw spec:\n got %s\nwant %s", got, want)
		}
	}
}

// BenchmarkKey measures rendering the canonical key of a normalized
// spec, which every request pays.
func BenchmarkKey(b *testing.B) {
	n := Normalize(RunSpec{Benchmark: "gzip", Insts: 2000, Model: ModelSAMIE})
	b.ReportAllocs()
	for b.Loop() {
		_ = keyOf(n)
	}
}
