package trace

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// lagRandSeeds are the seeds lagRand is held to math/rand on: the
// edges of the standard source's seed reduction (a seed that is a
// multiple of 2^31-1 is replaced by 89482311), and the seed of every
// personality.
func lagRandSeeds() []int64 {
	seeds := []int64{0, 1, -1, math.MaxInt32, 3 * math.MaxInt32, -987654321, 1 << 62}
	for _, name := range append(Benchmarks(), AdversarialBenchmarks()...) {
		seeds = append(seeds, seedFor(name))
	}
	return seeds
}

// TestLagRandMatchesMathRand replays, for every seed, more than five
// register refills of interleaved Float64, Intn and Uint64 draws
// against rand.New(rand.NewSource(seed)) as the oracle. Intn(1<<30+1)
// rejects almost half its Int31 draws, so the rejection loop runs.
func TestLagRandMatchesMathRand(t *testing.T) {
	ns := []int{1, 2, 64, 1 << 30, math.MaxInt32, 3, 40, 42, 1000003, math.MaxInt32 - 2, 1<<30 + 1}
	const draws = 6 * rngLen // each consumes at least one register word
	for _, seed := range lagRandSeeds() {
		want := rand.New(rand.NewSource(seed))
		var got lagRand
		got.seed(seed)
		for i := 0; i < draws; i++ {
			switch i % 3 {
			case 0:
				if g, w := float64(got.unit63())/(1<<63), want.Float64(); g != w {
					t.Fatalf("seed %d draw %d: Float64 %v, want %v", seed, i, g, w)
				}
			case 1:
				n := ns[i/3%len(ns)]
				if g, w := got.Intn(n), want.Intn(n); g != w {
					t.Fatalf("seed %d draw %d: Intn(%d) %d, want %d", seed, i, n, g, w)
				}
			case 2:
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %d draw %d: Uint64 %#x, want %#x", seed, i, g, w)
				}
			}
		}
	}
}

// TestLagRandIntnRejectsOutOfRange checks that Intn refuses what
// Int31n cannot draw.
func TestLagRandIntnRejectsOutOfRange(t *testing.T) {
	var r lagRand
	r.seed(1)
	above := math.MaxInt32
	above++ // wraps to a negative n where int is 32 bits
	for _, n := range []int{0, -1, above} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			r.Intn(n)
		}()
	}
}

// thresholdProbabilities lists every probability the generator turns
// into a threshold for p: the float64 fields of Params, the cumulative
// mix and compute-class sums, the cold-base probabilities and the
// fixed ones.
func thresholdProbabilities(p Params) []float64 {
	var ps []float64
	v := reflect.ValueOf(p)
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Float64 {
			ps = append(ps, f.Float())
		}
	}
	return append(ps,
		p.LoadFrac+p.StoreFrac, p.LoadFrac+p.StoreFrac+p.BranchFrac,
		p.DivFrac+p.MulFrac,
		0.8-float64(0.4*p.DepGeom), 0.95-float64(0.2*p.DepGeom),
		0.02, 0.75, 0.7)
}

// TestThresholdMatchesFloatCompare checks, for 0, 1, every personality
// probability and the float64 neighbours of each, that x < threshold(p)
// holds exactly when float64(x)/(1<<63) < p, for the draws x within 2
// of the threshold.
func TestThresholdMatchesFloatCompare(t *testing.T) {
	ps := []float64{0, 1, 0.5, math.SmallestNonzeroFloat64, 1.5, math.NaN()}
	for _, name := range append(Benchmarks(), AdversarialBenchmarks()...) {
		ps = append(ps, thresholdProbabilities(MustPersonality(name))...)
	}
	if got := threshold(1); got != oneFloor {
		t.Errorf("threshold(1) = %#x, want oneFloor %#x", got, uint64(oneFloor))
	}
	for _, p0 := range ps {
		for _, p := range []float64{math.Nextafter(p0, math.Inf(-1)), p0, math.Nextafter(p0, math.Inf(1))} {
			th := threshold(p)
			for d := -2; d <= 2; d++ {
				x := th + uint64(d)
				if (d < 0 && th < uint64(-d)) || x >= 1<<63 {
					continue // outside the 63-bit draws
				}
				if below, want := x < th, float64(x)/(1<<63) < p; below != want {
					t.Errorf("p=%v: x=%#x below threshold %#x is %v, float compare says %v", p, x, th, below, want)
				}
			}
		}
	}
}

// TestUnit63SkipsDrawsRoundingToOne plants register words whose
// quotient rounds to 1.0, once mid-register and once as the last word
// before a refill, and checks unit63 skips exactly those, as Float64
// redraws them.
func TestUnit63SkipsDrawsRoundingToOne(t *testing.T) {
	if float64(uint64(oneFloor))/(1<<63) != 1 || float64(uint64(oneFloor-1))/(1<<63) >= 1 {
		t.Fatalf("oneFloor %#x is not the smallest draw that rounds to 1.0", uint64(oneFloor))
	}
	for _, pos := range []uint{100, rngLen - 1} {
		for _, planted := range []uint64{oneFloor, 1<<63 | oneFloor, math.MaxUint64, oneFloor - 1} {
			var r lagRand
			r.seed(42)
			r.pos = pos
			r.vec[pos] = planted
			ref := r
			first := ref.Uint64() &^ (1 << 63)
			want := first
			if float64(first)/(1<<63) == 1 {
				want = ref.Uint64() &^ (1 << 63)
			}
			if got := r.unit63(); got != want {
				t.Errorf("word %#x at %d: unit63 = %#x, want %#x", planted, pos, got, want)
			}
		}
	}
}
