package tlb

import (
	"math/rand"
	"testing"
)

func TestConfigValidate(t *testing.T) {
	for _, c := range []Config{
		{Name: "bad", Entries: 0},
		{Name: "bad", Entries: 4, HitLatency: -1},
		{Name: "bad", Entries: 4, MissPenalty: -1},
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("invalid config accepted: %+v", c)
		}
	}
	for _, c := range []Config{PaperDTLB(), PaperITLB()} {
		if err := c.Validate(); err != nil {
			t.Errorf("paper config rejected: %v", err)
		}
	}
}

func TestVPN(t *testing.T) {
	if VPN(0) != 0 || VPN(4095) != 0 || VPN(4096) != 1 {
		t.Fatal("VPN arithmetic wrong")
	}
}

func TestMissThenHit(t *testing.T) {
	tl := New(Config{Name: "t", Entries: 4, HitLatency: 1, MissPenalty: 30})
	hit, lat := tl.Lookup(0x1000)
	if hit || lat != 31 {
		t.Fatalf("cold lookup: hit=%v lat=%d", hit, lat)
	}
	hit, lat = tl.Lookup(0x1800) // same page
	if !hit || lat != 1 {
		t.Fatalf("same-page lookup: hit=%v lat=%d", hit, lat)
	}
	if tl.Hits() != 1 || tl.Misses() != 1 {
		t.Fatalf("hits/misses = %d/%d", tl.Hits(), tl.Misses())
	}
}

func TestLRUReplacement(t *testing.T) {
	tl := New(Config{Name: "t", Entries: 2, HitLatency: 1, MissPenalty: 10})
	tl.Lookup(0 * PageBytes)
	tl.Lookup(1 * PageBytes)
	tl.Lookup(0 * PageBytes) // touch page 0; page 1 is LRU
	tl.Lookup(2 * PageBytes) // evicts page 1
	if !tl.Probe(0) {
		t.Fatal("MRU page evicted")
	}
	if tl.Probe(1 * PageBytes) {
		t.Fatal("LRU page survived")
	}
	if !tl.Probe(2 * PageBytes) {
		t.Fatal("new page missing")
	}
}

func TestCapacity(t *testing.T) {
	cfg := PaperDTLB()
	tl := New(cfg)
	for i := 0; i < cfg.Entries; i++ {
		tl.Lookup(uint64(i) * PageBytes)
	}
	// All resident: re-touch hits.
	for i := 0; i < cfg.Entries; i++ {
		if hit, _ := tl.Lookup(uint64(i) * PageBytes); !hit {
			t.Fatalf("page %d evicted below capacity", i)
		}
	}
	if tl.Misses() != uint64(cfg.Entries) {
		t.Fatalf("misses = %d, want %d", tl.Misses(), cfg.Entries)
	}
}

func TestMissRateAndReset(t *testing.T) {
	tl := New(PaperDTLB())
	if tl.MissRate() != 0 {
		t.Fatal("empty TLB miss rate != 0")
	}
	tl.Lookup(0x1000)
	tl.Lookup(0x1000)
	if tl.MissRate() != 0.5 {
		t.Fatalf("miss rate = %v", tl.MissRate())
	}
	tl.ResetStats()
	if tl.Hits() != 0 || tl.Misses() != 0 {
		t.Fatal("ResetStats failed")
	}
	if !tl.Probe(0x1000) {
		t.Fatal("ResetStats dropped entries")
	}
}

// refTLB is a naive fully-associative LRU TLB: a linear scan over the
// entries with per-entry last-use timestamps.
type refTLB struct {
	vpn   []uint64
	used  []uint64 // last-use time; 0 = invalid
	clock uint64
}

func (r *refTLB) lookup(addr uint64) bool {
	vpn := VPN(addr)
	r.clock++
	victim := 0
	for i := range r.vpn {
		if r.used[i] != 0 && r.vpn[i] == vpn {
			r.used[i] = r.clock
			return true
		}
		if r.used[i] < r.used[victim] {
			victim = i
		}
	}
	r.vpn[victim], r.used[victim] = vpn, r.clock
	return false
}

func (r *refTLB) probe(addr uint64) bool {
	for i := range r.vpn {
		if r.used[i] != 0 && r.vpn[i] == VPN(addr) {
			return true
		}
	}
	return false
}

// TestAgainstReferenceLRU drives the TLB and a naive timestamp-LRU
// model with random page streams over more pages than the TLB holds and
// requires the same hit/miss and Probe answers at every step.
func TestAgainstReferenceLRU(t *testing.T) {
	for _, entries := range []int{1, 3, 16, 128} {
		for seed := int64(1); seed <= 4; seed++ {
			tl := New(Config{Name: "t", Entries: entries, HitLatency: 1, MissPenalty: 30})
			ref := &refTLB{vpn: make([]uint64, entries), used: make([]uint64, entries)}
			rng := rand.New(rand.NewSource(seed))
			pages := 2*entries + 8
			for i := 0; i < 20000; i++ {
				// A hot set of a quarter of the pages takes half the
				// accesses, so hits and evictions both stay frequent.
				page := rng.Intn(pages)
				if rng.Intn(2) == 0 {
					page = rng.Intn(pages/4 + 1)
				}
				addr := uint64(page)*PageBytes*7 + uint64(rng.Intn(PageBytes))
				if got, want := tl.Probe(addr), ref.probe(addr); got != want {
					t.Fatalf("entries=%d seed=%d step %d: Probe(%#x) = %v, reference %v", entries, seed, i, addr, got, want)
				}
				hit, _ := tl.Lookup(addr)
				if want := ref.lookup(addr); hit != want {
					t.Fatalf("entries=%d seed=%d step %d: Lookup(%#x) hit = %v, reference %v", entries, seed, i, addr, hit, want)
				}
			}
			if tl.Hits() == 0 || tl.Misses() <= uint64(entries) {
				t.Fatalf("entries=%d seed=%d: stream too easy (%d hits, %d misses)", entries, seed, tl.Hits(), tl.Misses())
			}
		}
	}
}
