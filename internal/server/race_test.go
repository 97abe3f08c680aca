//go:build race

package server

// raceEnabled reports a race-instrumented build. The race detector
// makes sync.Pool drop some of what is put back, so allocation counts
// measured under it do not hold.
const raceEnabled = true
