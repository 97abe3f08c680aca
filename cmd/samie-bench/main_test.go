package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-run this binary as samie-bench itself: with
// SAMIE_BENCH_RUN_MAIN set, the process is main() over its arguments.
func TestMain(m *testing.M) {
	if os.Getenv("SAMIE_BENCH_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestUnknownFigureExits2 pins the -fig validation: a number no paper
// figure answers to exits 2 with a message naming the valid numbers,
// before any simulation runs or any server is contacted (the -server
// URL below refuses connections, which would exit 1).
func TestUnknownFigureExits2(t *testing.T) {
	for _, args := range [][]string{
		{"-fig", "2"},
		{"-fig", "5", "-fig", "13"},
		{"-fig", "56"},
		{"-fig", "2", "-server", "http://127.0.0.1:1"},
	} {
		cmd := exec.Command(os.Args[0], append(args, "-bench", "gzip", "-insts", "1000", "-cachedir", "")...)
		cmd.Env = append(os.Environ(), "SAMIE_BENCH_RUN_MAIN=1")
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: got %v, want exit status 2 (stderr %q)", args, err, stderr.String())
			continue
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed output before rejecting the figure:\n%s", args, stdout.String())
		}
		if msg := stderr.String(); !strings.Contains(msg, "unknown figure") || !strings.Contains(msg, "1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12") {
			t.Errorf("%v: message %q does not name the valid figure numbers", args, msg)
		}
	}
}
