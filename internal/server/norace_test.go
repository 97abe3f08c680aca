//go:build !race

package server

// raceEnabled reports a race-instrumented build (race_test.go).
const raceEnabled = false
