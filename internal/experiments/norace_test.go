//go:build !race

package experiments

// raceEnabled reports a race-instrumented build (race_test.go).
const raceEnabled = false
