package trace

import (
	"math"
	"math/rand"
)

// lagRand draws the exact value stream of rand.New(rand.NewSource(seed))
// without an interface call per draw. The standard source is an additive
// lagged-Fibonacci generator: its k-th Uint64 is
// y[k] = y[k-rngLen] + y[k-rngTap] mod 2^64. lagRand keeps the next
// rngLen values of that sequence in vec, seeded with the standard
// source's first rngLen draws, and advances the whole register in place
// when it runs out.
type lagRand struct {
	vec [rngLen]uint64 // y[k], …, y[k+rngLen-1]: the draws in order
	pos uint           // index of the next draw in vec; rngLen when used up
}

// The lags of math/rand's source.
const (
	rngLen = 607
	rngTap = 273
)

// oneFloor is the smallest 63-bit draw whose quotient float64(x)/(1<<63)
// rounds to 1.0. Float64 redraws those, and unit63 does too.
const oneFloor = 1<<63 - 512

// seed fills the register with the first rngLen draws of the standard
// source for seed.
func (r *lagRand) seed(seed int64) {
	src := rand.NewSource(seed).(rand.Source64)
	for i := range r.vec {
		r.vec[i] = src.Uint64()
	}
	r.pos = 0
}

// refill replaces the register's rngLen values with the next rngLen
// and returns the first of them. The new y[k+rngLen+j] is the old
// vec[j] plus y[k+j+rngLen-rngTap]: still in the old register for
// j < rngTap, already replaced in vec[j-rngTap] from there on. It stays
// out of line, so a draw inlines only its common path.
//
//go:noinline
func (r *lagRand) refill() uint64 {
	lo, hi := r.vec[:rngTap], r.vec[rngLen-rngTap:]
	for j := range lo {
		lo[j] += hi[j]
	}
	for j := rngTap; j < rngLen; j++ {
		r.vec[j] += r.vec[j-rngTap]
	}
	r.pos = 1
	return r.vec[0]
}

// Uint64 is rand.Rand.Uint64.
//
//samie:hotpath
func (r *lagRand) Uint64() uint64 {
	i := r.pos
	if i < rngLen {
		r.pos++
		return r.vec[i]
	}
	return r.refill()
}

// unit63 is the 63-bit draw behind rand.Rand.Float64: Float64 returns
// float64(r.unit63())/(1<<63), skipping a draw that rounds to 1.0 as
// Float64 does. Comparing it against threshold(p) is Float64() < p.
//
//samie:hotpath
func (r *lagRand) unit63() uint64 {
	for {
		if x := r.Uint64() &^ (1 << 63); x < oneFloor {
			return x
		}
	}
}

// Intn is rand.Rand.Intn for 0 < n <= math.MaxInt32, the range where
// it is Int31n: a mask for a power of two, otherwise a rejection loop
// over Int31 draws.
//
//samie:hotpath
func (r *lagRand) Intn(n int) int {
	if n <= 0 || n > math.MaxInt32 {
		panic("trace: Intn argument outside (0, MaxInt32]")
	}
	if n&(n-1) == 0 {
		return int(r.Uint64()<<1>>33) & (n - 1)
	}
	limit := uint64(math.MaxInt32 - (1<<31)%uint32(n))
	v := r.Uint64() << 1 >> 33 // Int31: the top 31 bits of the 63-bit draw
	for v > limit {
		v = r.Uint64() << 1 >> 33
	}
	return int(v % uint64(n))
}

// threshold returns the t with x < t exactly when
// float64(x)/(1<<63) < p, for every 63-bit draw x. The quotient grows
// with x, so the draws below p are a prefix of [0, 1<<63), and t is
// found by bisection on the negated compare (a NaN p gives 0: no draw
// is below it, as no Float64 is).
func threshold(p float64) uint64 {
	lo, hi := uint64(0), uint64(1)<<63
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(mid)/(1<<63) < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
