// Command samie-serve exposes the shared-run simulation engine as a
// JSON-over-HTTP service: many clients share one long-lived memoizing
// Batch (plus its on-disk cache), so concurrent identical requests
// coalesce into a single simulation and figure regenerations serve
// from a warm cache. See docs/http-api.md for the endpoint reference.
//
// Usage:
//
//	samie-serve                          # :8344, disk cache at <user cache dir>/samielsq
//	samie-serve -addr :9000 -workers 8   # bind + simulation parallelism
//	samie-serve -cache-limit 4096        # bound the in-memory run cache (LRU)
//	samie-serve -cache-max-bytes 1000000000 -cache-max-age 720h
//	samie-serve -preload                 # warm the run cache from every disk artifact
//	samie-serve -max-concurrent 64 -request-timeout 5m
//	samie-serve -peers http://b:8344,http://c:8344   # tier-2 peer fetch from siblings
//	samie-serve -pprof-addr 127.0.0.1:6060           # net/http/pprof on a private listener
//
// The process drains gracefully on SIGINT/SIGTERM: /healthz flips to
// 503, live NDJSON streams receive a terminal error event before the
// listener closes, in-flight simulations finish (bounded by
// -shutdown-grace), queued ones are withdrawn.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"samielsq/internal/experiments"
	"samielsq/internal/faultinject"
	"samielsq/internal/server"
	"samielsq/pkg/cluster"
)

func main() {
	addr := flag.String("addr", ":8344", "listen address")
	workers := flag.Int("workers", 0, "max concurrent simulations (default GOMAXPROCS)")
	maxConcurrent := flag.Int("max-concurrent", 0, "max admitted simulation requests (default 4x workers); beyond it requests get 429 + Retry-After")
	requestTimeout := flag.Duration("request-timeout", 10*time.Minute, "per-request deadline for simulation endpoints (0 disables)")
	defaultInsts := flag.Uint64("default-insts", experiments.DefaultInsts, "instruction budget when a request omits insts")
	maxInsts := flag.Uint64("max-insts", 10_000_000, "reject requests above this per-run budget (0 = unlimited)")
	cachedir := flag.String("cachedir", "auto", `on-disk run cache directory ("auto" = <user cache dir>/samielsq, "" disables)`)
	cacheLimit := flag.Int("cache-limit", 0, "LRU bound on in-memory memoized runs (0 = unbounded)")
	cacheMaxBytes := flag.Int64("cache-max-bytes", 0, "prune the disk cache to this many bytes (0 = unbounded)")
	cacheMaxAge := flag.Duration("cache-max-age", 0, "prune disk artifacts older than this (0 = keep forever)")
	pruneInterval := flag.Duration("cache-prune-interval", 15*time.Minute, "how often to re-apply the disk cache bounds")
	preload := flag.Bool("preload", false, "preload the in-memory run cache from every valid artifact in the disk cache directory at startup")
	peers := flag.String("peers", "", "comma-separated sibling replica base URLs for the tier-2 peer-fetch store (this replica excluded)")
	peerTimeout := flag.Duration("peer-timeout", 3*time.Second, "per-peer probe deadline for tier-2 fetches")
	peerAdopt := flag.Bool("peer-adopt", true, "adopt the sibling replica set a cluster coordinator supplies with each shard")
	shutdownGrace := flag.Duration("shutdown-grace", 30*time.Second, "how long shutdown waits for in-flight requests to drain")
	chaos := flag.String("chaos", "", `deterministic fault injection spec, e.g. "err=0.1,lat=5ms:50ms,reset=0.05,trunc=0.02,seed=42" (testing only; POST /v1/chaos reconfigures at runtime)`)
	pprofAddr := flag.String("pprof-addr", "", `serve net/http/pprof on this separate address ("" disables); bind it privately — the profiles expose internals`)
	logJSON := flag.Bool("log-json", false, "log as JSON instead of text")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected arguments: %v\n", flag.Args())
		os.Exit(2)
	}

	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	log := slog.New(handler)

	chaosSpec, err := faultinject.ParseSpec(*chaos)
	if err != nil {
		fmt.Fprintf(os.Stderr, "-chaos: %v\n", err)
		os.Exit(2)
	}

	// Assemble the shared batch: one memoizing scheduler for every
	// client of this process, spilling to disk unless -cachedir ""
	// asked not to (a cache failure degrades to the uncached batch).
	batch, dir := experiments.OpenBatch(*workers, *cachedir, func(err error) {
		log.Warn("disk cache disabled", "err", err)
	})
	if *cacheLimit > 0 {
		batch.SetCacheLimit(*cacheLimit)
	}

	preloaded := 0
	if dir != "" {
		// Apply the disk bounds before preloading so a bounded cache
		// never warms with artifacts it is about to drop.
		pruneDisk(log, batch, *cacheMaxBytes, *cacheMaxAge)
		if *preload {
			n, err := batch.PreloadDisk()
			if err != nil {
				log.Warn("preload failed", "err", err)
			} else {
				preloaded = n
				log.Info("preloaded run cache", "runs", n, "dir", dir)
			}
		}
	}

	// Tier-2 peer fetch: a static -peers list enables it at boot; with
	// -peer-adopt a coordinator's pushed replica set enables (or
	// retargets) it at the first shard. Either way the fetcher is
	// created once and retargeted thereafter, so its quarantine state
	// and the batch wiring survive fleet changes.
	var peerMu sync.Mutex
	var fetcher *cluster.PeerFetcher
	setPeers := func(urls []string) {
		peerMu.Lock()
		defer peerMu.Unlock()
		if fetcher == nil {
			fetcher = cluster.NewPeerFetcher(urls, cluster.WithPeerTimeout(*peerTimeout))
			batch.SetPeerStore(fetcher)
			log.Info("peer-fetch tier enabled", "peers", fetcher.Peers())
			return
		}
		fetcher.SetPeers(urls)
	}
	if *peers != "" {
		setPeers(strings.Split(*peers, ","))
	}

	cfg := server.Config{
		Batch:          batch,
		Logger:         log,
		MaxConcurrent:  *maxConcurrent,
		RequestTimeout: *requestTimeout,
		DefaultInsts:   *defaultInsts,
		MaxInsts:       *maxInsts,
		CacheDir:       dir,
		Preloaded:      preloaded,
		Chaos:          chaosSpec,
	}
	if *peerAdopt {
		cfg.PeerAdopt = setPeers
	}
	srv, err := server.New(cfg)
	if err != nil {
		log.Error("config", "err", err)
		os.Exit(2)
	}
	if chaosSpec.Enabled() {
		log.Warn("chaos fault injection ENABLED", "spec", chaosSpec.String())
	}

	// Profiling stays off the service mux entirely: its own listener on
	// its own (private) address, so the API surface never grows pprof
	// endpoints and an operator can firewall the two independently.
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			log.Error("pprof listen", "err", err)
			os.Exit(1)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		log.Info("pprof listening", "addr", pln.Addr().String())
		go func() {
			// The operator asked for profiling; losing it silently would
			// leave an incident undebuggable, so a dead pprof server
			// takes the process down rather than limping on without it.
			if err := http.Serve(pln, mux); err != nil {
				log.Error("pprof server failed", "err", err)
				os.Exit(1)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Error("listen", "err", err)
		os.Exit(1)
	}
	hs := newHTTPServer(srv.Handler())

	// Periodic disk-cache hygiene for long-lived processes.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if dir != "" && (*cacheMaxBytes > 0 || *cacheMaxAge > 0) && *pruneInterval > 0 {
		go func() {
			t := time.NewTicker(*pruneInterval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					pruneDisk(log, batch, *cacheMaxBytes, *cacheMaxAge)
				case <-ctx.Done():
					return
				}
			}
		}()
	}

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	log.Info("samie-serve listening",
		"addr", ln.Addr().String(),
		"workers", batch.Workers(),
		"cachedir", dir,
		"default_insts", *defaultInsts,
	)

	select {
	case err := <-errc:
		log.Error("serve", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful drain: /healthz flips to 503 and in-flight NDJSON
	// streams get a terminal error event over their still-open
	// connections (the coordinator re-requests the undelivered work
	// elsewhere), then the listener closes and admitted non-streaming
	// requests finish inside the grace window. Queued simulations whose
	// requests die with the window are withdrawn by their contexts, so
	// nothing leaks.
	log.Info("shutting down, draining in-flight simulations", "grace", shutdownGrace.String())
	srv.BeginDrain()
	shCtx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
	defer cancel()
	if err := hs.Shutdown(shCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Error("shutdown", "err", err)
		os.Exit(1)
	}
	st := batch.Stats()
	log.Info("stopped", "executed", st.Executed, "hits", st.Hits, "requests", st.Requests)
}

// newHTTPServer wraps the service handler with the connection-level
// timeouts the handler itself cannot impose. ReadHeaderTimeout drops a
// client that trickles its request head (slowloris — the admission
// semaphore only guards requests that finish arriving), IdleTimeout
// reclaims parked keep-alive connections. WriteTimeout deliberately
// stays 0: suite NDJSON streams and figure-table renders legitimately
// run for as long as the sweep simulates, and a non-zero value would
// sever them mid-response (per-request deadlines already come from -request-timeout
// via the handler's context).
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// pruneDisk applies the disk bounds and logs the outcome.
func pruneDisk(log *slog.Logger, batch *experiments.Batch, maxBytes int64, maxAge time.Duration) {
	if maxBytes <= 0 && maxAge <= 0 {
		return
	}
	ps, err := batch.Disk().Prune(maxBytes, maxAge)
	if err != nil {
		log.Warn("disk cache prune failed", "err", err)
		return
	}
	log.Info("disk cache pruned",
		"removed", ps.Removed, "freed_bytes", ps.FreedBytes,
		"remaining", ps.Remaining, "remaining_bytes", ps.RemainingBytes)
}
