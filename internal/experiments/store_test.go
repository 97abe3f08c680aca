package experiments

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakePeer is a scripted PeerStore: it serves a fixed result (or
// nothing) and counts fetches.
type fakePeer struct {
	res     RunResult
	ok      bool
	delay   time.Duration
	fetches atomic.Int64
}

func (f *fakePeer) Fetch(ctx context.Context, key string) (RunResult, bool) {
	f.fetches.Add(1)
	if f.delay > 0 {
		select {
		case <-time.After(f.delay):
		case <-ctx.Done():
			return RunResult{}, false
		}
	}
	return f.res, f.ok
}

func TestPeerTierFetchInstallThenLocalHit(t *testing.T) {
	spec := cacheTestSpec()
	want := Run(spec) // the result the peer "holds"

	dir := t.TempDir()
	b, err := NewBatchWithCache(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	peer := &fakePeer{res: want, ok: true}
	b.SetPeerStore(peer)

	got := b.Run(spec)
	if got.CPU != want.CPU || *got.Meter != *want.Meter || got.SAMIE != want.SAMIE {
		t.Errorf("peer-served result differs from the executed one")
	}
	if got.Spec.Benchmark != spec.Benchmark || got.Spec.SAMIE == nil {
		t.Errorf("peer-served result lost its normalized spec: %+v", got.Spec)
	}
	if n := peer.fetches.Load(); n != 1 {
		t.Fatalf("peer fetched %d times, want 1", n)
	}
	// A peer-served run is a store hit, not an execution.
	if st := b.Stats(); st.Executed != 0 || st.Hits != 1 {
		t.Errorf("engine stats %+v, want executed=0 hits=1", st)
	}
	ss := b.StoreStats()
	if ss.Peer.Hits != 1 || ss.Peer.Misses != 0 || ss.PeerInstalls != 1 {
		t.Errorf("peer tier stats %+v, want 1 hit, 0 misses, 1 install", ss.Peer)
	}
	if ss.Mem.Misses != 1 || ss.Disk.Misses != 1 {
		t.Errorf("upper tiers did not record the walk-down: %+v", ss)
	}
	if ss.PeerFetch.Count != 1 {
		t.Errorf("fetch histogram observed %d probes, want 1", ss.PeerFetch.Count)
	}

	// Second request: pure mem hit, the peer is not consulted again.
	b.Run(spec)
	if n := peer.fetches.Load(); n != 1 {
		t.Errorf("mem-cached spec re-fetched from peer (%d fetches)", n)
	}
	if ss := b.StoreStats(); ss.Mem.Hits != 1 {
		t.Errorf("second request not a mem hit: %+v", ss)
	}

	// The install is durable: a fresh batch over the same directory
	// serves from disk with the peer gone dark.
	b2, err := NewBatchWithCache(1, dir)
	if err != nil {
		t.Fatal(err)
	}
	b2.SetPeerStore(&fakePeer{ok: false})
	again := b2.Run(spec)
	if again.CPU != want.CPU {
		t.Errorf("disk-served result differs after peer install")
	}
	ss2 := b2.StoreStats()
	if ss2.Disk.Hits != 1 || ss2.Peer.Hits != 0 || ss2.Peer.Misses != 0 {
		t.Errorf("installed artifact not served from disk: %+v", ss2)
	}
	if st := b2.Stats(); st.Executed != 0 {
		t.Errorf("installed artifact re-simulated: %+v", st)
	}
}

func TestPeerTierDownDegradesToSimulation(t *testing.T) {
	b := NewBatch(1)
	peer := &fakePeer{ok: false} // down, empty, or timed out: all just "no"
	b.SetPeerStore(peer)

	res := b.Run(cacheTestSpec())
	if res.CPU.Committed == 0 {
		t.Fatal("simulation after peer miss produced nothing")
	}
	if n := peer.fetches.Load(); n != 1 {
		t.Errorf("peer fetched %d times, want 1", n)
	}
	if st := b.Stats(); st.Executed != 1 {
		t.Errorf("engine stats %+v, want executed=1", st)
	}
	ss := b.StoreStats()
	if ss.Peer.Hits != 0 || ss.Peer.Misses != 1 || ss.PeerInstalls != 0 {
		t.Errorf("peer tier stats %+v, want 0 hits, 1 miss", ss)
	}
}

func TestPeerTierConcurrentMissesCoalesce(t *testing.T) {
	spec := cacheTestSpec()
	peer := &fakePeer{res: Run(spec), ok: true, delay: 50 * time.Millisecond}
	b := NewBatch(4)
	b.SetPeerStore(peer)

	const callers = 8
	var wg sync.WaitGroup
	for range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.RunCtx(context.Background(), spec); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	// The singleflight owner does the one fetch; everyone else
	// coalesces onto it.
	if n := peer.fetches.Load(); n != 1 {
		t.Errorf("%d concurrent misses made %d peer fetches, want 1", callers, n)
	}
	if st := b.Stats(); st.Requests != callers || st.Executed != 0 || st.Hits != callers {
		t.Errorf("engine stats %+v, want requests=%d executed=0 hits=%d", st, callers, callers)
	}
}

func TestValidatePeerResult(t *testing.T) {
	spec := cacheTestSpec()
	res := Run(spec)
	key := Key(spec)

	if err := ValidatePeerResult(key, key, SimStamp(), res); err != nil {
		t.Errorf("valid peer result rejected: %v", err)
	}
	if err := ValidatePeerResult(key, "some-other-key", SimStamp(), res); err == nil {
		t.Error("key mismatch accepted")
	}
	if err := ValidatePeerResult(key, key, "different-build", res); err == nil {
		t.Error("simulator build-stamp mismatch accepted")
	}
	if err := ValidatePeerResult(key, key, SimStamp(), RunResult{}); err == nil {
		t.Error("meterless (corrupt) payload accepted")
	}
}

func TestStoreStatsAggregation(t *testing.T) {
	a := StoreStats{
		Mem:          TierStats{Hits: 1, Misses: 2},
		Disk:         TierStats{Hits: 3, Misses: 4},
		Peer:         TierStats{Hits: 5, Misses: 6},
		PeerInstalls: 5,
		PeerFetch:    FetchHist{Bounds: fetchBuckets, Counts: make([]uint64, len(fetchBuckets)+1), Sum: 1.5, Count: 11},
	}
	a.PeerFetch.Counts[0] = 11
	b := a
	b.PeerFetch = FetchHist{Bounds: fetchBuckets, Counts: make([]uint64, len(fetchBuckets)+1), Sum: 0.5, Count: 3}
	b.PeerFetch.Counts[1] = 3

	a.Add(b)
	if a.Peer.Hits != 10 || a.Peer.Misses != 12 || a.PeerInstalls != 10 {
		t.Errorf("aggregated peer tier %+v", a.Peer)
	}
	if a.PeerFetch.Count != 14 || a.PeerFetch.Sum != 2.0 {
		t.Errorf("aggregated histogram count=%d sum=%g", a.PeerFetch.Count, a.PeerFetch.Sum)
	}
	if a.PeerFetch.Counts[0] != 11 || a.PeerFetch.Counts[1] != 3 {
		t.Errorf("aggregated buckets %v", a.PeerFetch.Counts)
	}
}
