package cluster

import (
	"context"
	"slices"
	"strings"
	"sync"
	"time"

	"samielsq/internal/experiments"
	"samielsq/pkg/client"
)

// PeerFetcher is the standard experiments.PeerStore: the tier-2
// backend that lets a replica serve keys it never executed. On a local
// miss it probes sibling replicas through GET /v1/runs/{key} in
// rendezvous weight order — after a rebalance the previous owner ranks
// highest among the peers, so the artifact is usually one probe away —
// validates each 200 body against the local simulator build stamp
// (ValidatePeerResult, the disk tier's acceptance predicate), and
// returns the first valid result for installation into the local disk
// cache. Unreachable, slow, empty-handed or build-skewed peers all
// degrade to a miss: the caller simulates, it never fails.
//
// A peer that keeps failing at the transport level trips its circuit
// breaker (the same consecutive-failure → open → half-open policy the
// coordinator applies to replicas) so a dead sibling does not tax
// every subsequent miss with a connect timeout, while one flaky probe
// — a chaos-injected reset or truncation — costs nothing. Safe for
// concurrent use; SetPeers may retarget it live.
type PeerFetcher struct {
	timeout time.Duration

	mu       sync.RWMutex
	ring     *Rendezvous
	clients  map[string]*client.Client
	breakers *breakerSet
}

// PeerOption customizes a PeerFetcher.
type PeerOption func(*PeerFetcher)

// WithPeerTimeout bounds one peer probe (per replica, not per fetch);
// default 3s. Zero disables the per-probe bound (the request context
// still governs).
func WithPeerTimeout(d time.Duration) PeerOption {
	return func(p *PeerFetcher) { p.timeout = d }
}

// WithPeerQuarantine sets how long a tripped peer breaker stays open
// before its half-open probe; default 15s.
func WithPeerQuarantine(d time.Duration) PeerOption {
	return func(p *PeerFetcher) { p.breakers.cooldown = d }
}

// WithPeerBreakerThreshold sets how many consecutive transport
// failures trip a peer's breaker; default 2.
func WithPeerBreakerThreshold(n int) PeerOption {
	return func(p *PeerFetcher) {
		if n >= 1 {
			p.breakers.threshold = n
		}
	}
}

// NewPeerFetcher builds the tier-2 backend over the sibling replica
// base URLs (this replica excluded — probing yourself is a guaranteed
// miss). An empty set is valid: every fetch misses until SetPeers
// supplies replicas (e.g. adopted from a coordinator).
func NewPeerFetcher(peers []string, opts ...PeerOption) *PeerFetcher {
	p := &PeerFetcher{
		timeout:  3 * time.Second,
		breakers: newBreakerSet(2, 15*time.Second),
	}
	for _, o := range opts {
		o(p)
	}
	p.SetPeers(peers)
	return p
}

// The fetcher is the cluster-backed tier-2 store.
var _ experiments.PeerStore = (*PeerFetcher)(nil)

// SetPeers retargets the fetcher at a new sibling set (trimmed,
// deduplicated; order irrelevant). A no-op when the set is unchanged,
// so a coordinator may push its replica list with every shard.
func (p *PeerFetcher) SetPeers(peers []string) {
	urls := make([]string, 0, len(peers))
	for _, r := range peers {
		if r = strings.TrimRight(strings.TrimSpace(r), "/"); r != "" {
			urls = append(urls, r)
		}
	}
	ring := NewRendezvous(urls)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.ring != nil && slices.Equal(ring.Replicas(), p.ring.Replicas()) {
		return
	}
	clients := make(map[string]*client.Client, len(ring.Replicas()))
	for _, rep := range ring.Replicas() {
		clients[rep] = client.New(rep)
	}
	p.ring, p.clients = ring, clients
	p.breakers.reset()
}

// Peers returns the current sibling set, sorted.
func (p *PeerFetcher) Peers() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.ring.Replicas()
}

// Fetch probes the sibling replicas for key, best-ranked first,
// returning the first valid result. False means no peer delivered one
// — for any reason — and the caller should simulate.
func (p *PeerFetcher) Fetch(ctx context.Context, key string) (experiments.RunResult, bool) {
	p.mu.RLock()
	ring, clients := p.ring, p.clients
	p.mu.RUnlock()
	for _, rep := range ring.Ranked(key) {
		// A half-open breaker admits the probe itself as its trial.
		if usable, _ := p.breakers.state(rep); !usable {
			continue
		}
		pctx, cancel := ctx, context.CancelFunc(func() {})
		if p.timeout > 0 {
			pctx, cancel = context.WithTimeout(ctx, p.timeout)
		}
		out, ok, err := clients[rep].ProbeRun(pctx, key)
		cancel()
		if err != nil {
			if ctx.Err() != nil {
				// The owning request went away; stop probing on its
				// behalf.
				return experiments.RunResult{}, false
			}
			if !permanent(err) && !client.IsThrottled(err) {
				p.breakers.failure(rep)
			}
			continue
		}
		p.breakers.success(rep)
		if !ok {
			continue
		}
		res := out.Result()
		if experiments.ValidatePeerResult(key, out.Key, out.Sim, res) != nil {
			// Corrupt body or a different simulator build: a miss for
			// this peer, never installed. Another peer may still hold
			// a valid artifact.
			continue
		}
		return res, true
	}
	return experiments.RunResult{}, false
}
