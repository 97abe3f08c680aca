package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"samielsq/internal/experiments"
	"samielsq/internal/server"
	"samielsq/pkg/client"
	"samielsq/pkg/cluster"
)

// endpoint is a loopback listener serving whichever replica is
// currently installed on it, so a sweep can boot fresh replicas behind
// a stable URL (the cluster's shard assignment hashes replica URLs).
type endpoint struct {
	url  string
	h    atomic.Value // handlerBox
	hs   *http.Server
	done chan struct{}
}

type handlerBox struct{ http.Handler }

// listen binds addr (a loopback host:port; port 0 picks a free one).
func listen(addr string) (*endpoint, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	e := &endpoint{url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	e.h.Store(handlerBox{http.NotFoundHandler()})
	// The same connection hygiene samie-serve applies to its listener.
	e.hs = &http.Server{Handler: e, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
	go func() {
		defer close(e.done)
		_ = e.hs.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return e, nil
}

func (e *endpoint) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	e.h.Load().(handlerBox).ServeHTTP(w, r)
}

// close stops the listener and waits for its serve loop to exit.
func (e *endpoint) close() {
	_ = e.hs.Close() // the only error is the listener's close error
	<-e.done
}

// quietLog formats every request log line as samie-serve does, so the
// logging cost stays in the measurement, but discards the output.
var quietLog = slog.New(slog.NewTextHandler(io.Discard, nil))

// replica is one in-process samie-serve: a batch over a disk cache,
// the HTTP service, and the endpoint it is installed on.
type replica struct {
	ep    *endpoint
	batch *experiments.Batch
	dir   string
}

// replicaOpts mirror the samie-serve flags a workload varies.
type replicaOpts struct {
	workers   int                   // -workers (0: GOMAXPROCS)
	memLimit  int                   // -cache-limit (0: unbounded)
	peer      experiments.PeerStore // static -peers tier, or nil
	peerAdopt bool                  // -peer-adopt
}

// bootReplica installs a fresh replica over dir on ep and waits until
// it answers /healthz.
func bootReplica(ep *endpoint, dir string, o replicaOpts) (*replica, error) {
	batch, err := experiments.NewBatchWithCache(o.workers, dir)
	if err != nil {
		return nil, err
	}
	if o.memLimit > 0 {
		batch.SetCacheLimit(o.memLimit)
	}
	if o.peer != nil {
		batch.SetPeerStore(o.peer)
	}
	cfg := server.Config{
		Batch:          batch,
		Logger:         quietLog,
		RequestTimeout: 10 * time.Minute,
		MaxInsts:       10_000_000,
		CacheDir:       dir,
	}
	if o.peerAdopt {
		// As samie-serve wires -peer-adopt: one fetcher, created on the
		// first pushed replica set and retargeted afterwards.
		var mu sync.Mutex
		var fetcher *cluster.PeerFetcher
		cfg.PeerAdopt = func(urls []string) {
			mu.Lock()
			defer mu.Unlock()
			if fetcher == nil {
				fetcher = cluster.NewPeerFetcher(urls)
				batch.SetPeerStore(fetcher)
				return
			}
			fetcher.SetPeers(urls)
		}
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ep.h.Store(handlerBox{srv.Handler()})
	// The health probe opens its own connection, as a caller's first
	// contact with a freshly booted replica would.
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	if err := client.New(ep.url, client.WithHTTPClient(&http.Client{Transport: tr})).Health(context.Background()); err != nil {
		return nil, fmt.Errorf("replica %s unhealthy: %w", ep.url, err)
	}
	return &replica{ep: ep, batch: batch, dir: dir}, nil
}

// retire uninstalls the replica from its endpoint, flushes its disk
// cache and deletes the cache directory.
func (r *replica) retire() error {
	r.ep.h.Store(handlerBox{http.NotFoundHandler()})
	return errors.Join(r.batch.Close(), os.RemoveAll(r.dir))
}

// timedPeer times the batch's calls into the peer-fetch tier.
type timedPeer struct {
	pf *cluster.PeerFetcher
	tr *tracer
	mu sync.Mutex
	ms []float64
}

func (p *timedPeer) Fetch(ctx context.Context, key string) (experiments.RunResult, bool) {
	sp := p.tr.begin("cluster.PeerFetcher.Fetch", 0)
	t0 := time.Now()
	r, ok := p.pf.Fetch(ctx, key)
	d := time.Since(t0)
	sp.end()
	p.mu.Lock()
	p.ms = append(p.ms, float64(d.Nanoseconds())/1e6)
	p.mu.Unlock()
	return r, ok
}

func (p *timedPeer) latencies() []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]float64(nil), p.ms...)
}
