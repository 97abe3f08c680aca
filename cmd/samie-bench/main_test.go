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

// TestUnknownFigureExits2 pins the -fig validation: a name no paper
// row answers to exits 2 with a message naming the valid names, before
// any simulation runs or any server is contacted (the -server URL
// below refuses connections, which would exit 1). The static tables
// are -fig names, not flags of their own: -table1 is a usage error.
func TestUnknownFigureExits2(t *testing.T) {
	const valid = "1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, table1, delays, tables456, claims"
	for _, c := range []struct {
		args []string
		msg  []string
	}{
		{[]string{"-fig", "2"}, []string{"unknown figure", valid}},
		{[]string{"-fig", "5", "-fig", "13"}, []string{"unknown figure", valid}},
		{[]string{"-fig", "56"}, []string{"unknown figure", valid}},
		{[]string{"-fig", "2", "-server", "http://127.0.0.1:1"}, []string{"unknown figure", valid}},
		{[]string{"-table1"}, []string{"flag provided but not defined: -table1"}},
	} {
		cmd := exec.Command(os.Args[0], append(c.args, "-bench", "gzip", "-insts", "1000", "-cachedir", "")...)
		cmd.Env = append(os.Environ(), "SAMIE_BENCH_RUN_MAIN=1")
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: got %v, want exit status 2 (stderr %q)", c.args, err, stderr.String())
			continue
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed output before rejecting the selection:\n%s", c.args, stdout.String())
		}
		for _, want := range c.msg {
			if msg := stderr.String(); !strings.Contains(msg, want) {
				t.Errorf("%v: message %q does not contain %q", c.args, msg, want)
			}
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

// TestStaticTablesNeedNoFleet: a selection of static tables simulates
// nothing, so -server places nothing and contacts no replica — with
// the fleet down (the URL below refuses connections) it exits 0 and
// prints the local bytes.
func TestStaticTablesNeedNoFleet(t *testing.T) {
	for _, sel := range [][]string{
		{"-fig", "table1"},
		{"-fig", "table1", "-fig", "delays", "-fig", "tables456"},
	} {
		local, _ := benchMain(t, append(sel, "-cachedir", "")...)
		remote, _ := benchMain(t, append(sel, "-cachedir", "", "-server", "http://127.0.0.1:1")...)
		if remote != local {
			t.Errorf("%v -server: stdout differs from local mode\nremote:\n%s\nlocal:\n%s", sel, remote, local)
		}
		if !strings.Contains(local, "Table 1") {
			t.Errorf("%v: no Table 1 in the output:\n%s", sel, local)
		}
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
