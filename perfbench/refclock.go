package main

import (
	"bytes"
	"compress/flate"
	"math/rand"
	"runtime"
	"time"
)

// The small shared machines this benchmark runs on change speed by tens
// of percent within seconds as co-tenants come and go, which no run
// length averages away. The end-to-end timings of core-matrix and
// serve-zipf are therefore reported in reference-normalized seconds: the benchmark times a fixed reference
// kernel right before and after each measured interval and scales the
// interval by refNominal / (mean kernel time). A change to the
// repository's code does not touch the kernel, so it moves the
// normalized timings exactly as it moves the raw ones, while a machine
// slowdown that hits both cancels. The raw speed of the machine shows
// as the per-layer metric bench.ref_ms.

// refNominal is the kernel's time, in seconds, on the 2-vCPU machine
// the bounds in BENCHMARK.json were set on when it ran at its usual
// speed; normalized timings read as if every interval ran at that
// speed.
const refNominal = 0.010

// refClock runs the reference kernel: DEFLATE-compressing a fixed
// pseudo-random text, branchy integer code over a cache-sized working
// set, like the simulator, but none of the repository's code.
type refClock struct {
	in  []byte
	out bytes.Buffer
	w   *flate.Writer
	ms  []float64 // every kernel time, for bench.ref_ms
}

func newRefClock() *refClock {
	rng := rand.New(rand.NewSource(42))
	in := make([]byte, 384<<10)
	for i := range in {
		if i > 64 && rng.Intn(3) == 0 {
			in[i] = in[i-1-rng.Intn(64)]
		} else {
			in[i] = byte('a' + rng.Intn(26))
		}
	}
	w, err := flate.NewWriter(nil, flate.DefaultCompression)
	if err != nil {
		panic(err) // DefaultCompression is a valid level
	}
	c := &refClock{in: in, w: w}
	c.sample() // first use pays one-time allocations
	c.ms = c.ms[:0]
	return c
}

// sample runs the kernel once and returns its wall time in seconds.
func (c *refClock) sample() float64 {
	t0 := time.Now()
	c.out.Reset()
	c.w.Reset(&c.out)
	c.w.Write(c.in)
	c.w.Close()
	d := time.Since(t0).Seconds()
	c.ms = append(c.ms, d*1e3)
	return d
}

// normalizer scales consecutive measured intervals: each call to next
// times the kernel k times and returns the factor for the interval
// since the previous call, from the medians at both ends. One kernel
// run is enough where many short intervals average out; a few long
// intervals take k > 1, so one disturbed kernel run cannot skew them.
// Callers sample only while the code under test is idle, and each
// sample first collects the garbage the interval left, so the kernel
// times the machine alone and no leftover work of the interval is
// scaled away.
type normalizer struct {
	c    *refClock
	k    int
	prev float64
}

func (c *refClock) normalizer(k int) *normalizer {
	n := &normalizer{c: c, k: k}
	n.prev = n.measure()
	return n
}

func (n *normalizer) measure() float64 {
	runtime.GC()
	mark := len(n.c.ms)
	n.c.sampleN(n.k)
	return median(append([]float64(nil), n.c.ms[mark:]...)) / 1e3
}

func (n *normalizer) next() float64 {
	cur := n.measure()
	f := refNominal / ((n.prev + cur) / 2)
	n.prev = cur
	return f
}

// refSamples is how many kernel runs a long interval's boundary takes.
const refSamples = 5

// sampleN runs the kernel n times.
func (c *refClock) sampleN(n int) {
	for i := 0; i < n; i++ {
		c.sample()
	}
}
