package main

import (
	"errors"
	"fmt"
	"log/slog"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"testing"

	"samielsq/internal/experiments"
	"samielsq/internal/server"
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

// benchMain runs samie-bench over args in a child process, failing the
// test unless it exits 0.
func benchMain(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SAMIE_BENCH_RUN_MAIN=1")
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		t.Fatalf("samie-bench %v: %v\nstderr:\n%s", args, err, errOut.String())
	}
	return out.String(), errOut.String()
}

// TestLocalStatsOnStderr pins local -stats to stderr: the artefacts on
// stdout are the same bytes with or without it, as in -server mode.
func TestLocalStatsOnStderr(t *testing.T) {
	args := []string{"-bench", "gzip", "-insts", "2000", "-fig", "5", "-cachedir", ""}
	plain, _ := benchMain(t, args...)
	withStats, stderr := benchMain(t, append(args, "-stats")...)
	if withStats != plain {
		t.Errorf("-stats changed stdout:\nwith -stats:\n%s\nwithout:\n%s", withStats, plain)
	}
	if !strings.Contains(stderr, "shared batch:") {
		t.Errorf("-stats wrote no batch accounting to stderr:\n%s", stderr)
	}
}

// TestRemoteMatchesLocal pins -server as a pure placement choice: the
// suite, a figure selection, a scenario and a mixed selection (figures
// in table order, then scenarios in flag order, from one sweep) print
// the same bytes as local mode whether the specs spread over two replicas or land on
// one, every distinct spec executes exactly once across the fleet, and
// -stats keeps stdout to the artefacts.
func TestRemoteMatchesLocal(t *testing.T) {
	const insts = 3_000
	bench := []string{"gzip"}
	// Both replicas share one disk cache, so the single-replica runs
	// find the other replica's results there instead of re-simulating.
	dir := t.TempDir()
	var urls []string
	var batches []*experiments.Batch
	for range 2 {
		batch, err := experiments.NewBatchWithCache(1, dir)
		if err != nil {
			t.Fatal(err)
		}
		s, err := server.New(server.Config{Batch: batch, Logger: slog.New(slog.DiscardHandler)})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
		batches = append(batches, batch)
	}

	common := []string{"-bench", bench[0], "-insts", fmt.Sprint(insts)}
	for _, sel := range [][]string{
		nil,
		{"-fig", "1", "-fig", "5"},
		{"-scenario", "distrib-banking"},
		{"-scenario", "adversarial", "-fig", "3", "-scenario", "distrib-banking"},
	} {
		args := append(append([]string(nil), common...), sel...)
		local, _ := benchMain(t, append(args, "-cachedir", "")...)
		for _, servers := range []string{urls[0] + "," + urls[1], urls[0]} {
			remote, stderr := benchMain(t, append(args, "-server", servers, "-stats")...)
			if remote != local {
				t.Errorf("%v -server %s: stdout differs from local mode\nremote:\n%s\nlocal:\n%s", sel, servers, remote, local)
			}
			if !strings.Contains(stderr, "cluster sweep:") {
				t.Errorf("%v -server %s: -stats wrote no fleet accounting to stderr:\n%s", sel, servers, stderr)
			}
		}
	}

	distinct := map[string]bool{}
	for _, s := range experiments.SuiteSpecs(bench, insts) {
		distinct[experiments.Key(s)] = true
	}
	for _, name := range []string{"distrib-banking", "adversarial"} {
		specs, _, err := experiments.ScenarioSpecs(name, bench, insts)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range specs {
			distinct[experiments.Key(s)] = true
		}
	}
	var total int64
	for i, b := range batches {
		ex := b.Stats().Executed
		if ex == 0 {
			t.Errorf("replica %d executed nothing: sharding degenerate", i)
		}
		total += ex
	}
	if total != int64(len(distinct)) {
		t.Errorf("replicas executed %d simulations, want exactly the %d distinct specs", total, len(distinct))
	}
}
