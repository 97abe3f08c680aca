// Package tlb models the fully-associative translation lookaside
// buffers of Table 2: 128-entry ITLB and DTLB with LRU replacement and
// 1-cycle access. The SAMIE-LSQ caches a translation inside an LSQ
// entry so that instructions sharing the entry skip the DTLB lookup
// entirely (§3.4); that logic lives in the core package — this package
// only provides the TLB structure itself.
package tlb

import "fmt"

// PageBytes is the virtual memory page size assumed by the model.
const PageBytes = 4096

// Config sizes a TLB.
type Config struct {
	Name        string
	Entries     int
	HitLatency  int // cycles
	MissPenalty int // cycles added on a TLB miss (page-table walk)
}

// PaperDTLB returns the Table 2 DTLB: 128 entries, fully associative,
// 1-cycle access. The paper does not state the miss penalty; we use
// SimpleScalar's default 30-cycle walk.
func PaperDTLB() Config {
	return Config{Name: "dtlb", Entries: 128, HitLatency: 1, MissPenalty: 30}
}

// PaperITLB returns the Table 2 ITLB configuration.
func PaperITLB() Config {
	return Config{Name: "itlb", Entries: 128, HitLatency: 1, MissPenalty: 30}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.Entries <= 0 {
		return fmt.Errorf("tlb %s: entries must be positive", c.Name)
	}
	if c.HitLatency < 0 || c.MissPenalty < 0 {
		return fmt.Errorf("tlb %s: latencies must be non-negative", c.Name)
	}
	return nil
}

type entry struct {
	vpn uint64
	// Intrusive LRU list links (slot indices; -1 terminates).
	prev, next int
}

// TLB is a fully-associative LRU TLB over 4KB pages. Lookups are O(1):
// a fixed open-addressed vpn index finds the slot and an intrusive
// doubly-linked list maintains recency, replacing the original
// timestamp scan over every entry per access. The index holds exactly
// the resident pages (an eviction deletes its page), so its memory is
// fixed by Entries and steady-state lookups allocate nothing.
type TLB struct {
	cfg     Config
	entries []entry
	index   vpnIndex
	mru     int // most recently used slot, -1 when empty
	lru     int // least recently used slot, -1 when empty
	filled  int // slots ever used (they fill in index order)

	hits, misses uint64
}

// New builds a TLB; panics on invalid configuration.
func New(cfg Config) *TLB {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &TLB{
		cfg:     cfg,
		entries: make([]entry, cfg.Entries),
		index:   newVPNIndex(cfg.Entries),
		mru:     -1,
		lru:     -1,
	}
}

// vpnIndex maps the resident vpns to their slots: a linear-probing
// hash table with at least twice as many buckets as entries, so it is
// at most half full and probes stay short. Deletion shifts the rest of
// the probe run back, so no tombstones accumulate.
type vpnIndex struct {
	buckets []vpnBucket
	mask    uint64
	shift   uint // 64 - log2(len(buckets)): Fibonacci hashing keeps the top bits
}

type vpnBucket struct {
	vpn  uint64
	slot int32 // slot + 1; 0 marks an empty bucket
}

func newVPNIndex(entries int) vpnIndex {
	size, shift := 2, uint(63)
	for size < 2*entries {
		size <<= 1
		shift--
	}
	return vpnIndex{buckets: make([]vpnBucket, size), mask: uint64(size - 1), shift: shift}
}

func (x *vpnIndex) home(vpn uint64) uint64 { return (vpn * 0x9E3779B97F4A7C15) >> x.shift }

// find returns the bucket holding vpn, or the empty bucket that ends
// its probe run.
func (x *vpnIndex) find(vpn uint64) uint64 {
	i := x.home(vpn)
	for x.buckets[i].slot != 0 && x.buckets[i].vpn != vpn {
		i = (i + 1) & x.mask
	}
	return i
}

// slot returns the slot holding vpn, or -1.
func (x *vpnIndex) slot(vpn uint64) int {
	return int(x.buckets[x.find(vpn)].slot) - 1
}

// insert maps a vpn that is not resident to slot.
func (x *vpnIndex) insert(vpn uint64, slot int) {
	x.buckets[x.find(vpn)] = vpnBucket{vpn: vpn, slot: int32(slot + 1)}
}

// remove deletes a resident vpn, moving later members of its probe run
// back so every remaining vpn stays reachable from its home bucket.
func (x *vpnIndex) remove(vpn uint64) {
	hole := x.find(vpn)
	for j := (hole + 1) & x.mask; x.buckets[j].slot != 0; j = (j + 1) & x.mask {
		// The bucket at j may fill the hole unless its home lies
		// cyclically after the hole (within (hole, j]).
		if (j-x.home(x.buckets[j].vpn))&x.mask >= (j-hole)&x.mask {
			x.buckets[hole] = x.buckets[j]
			hole = j
		}
	}
	x.buckets[hole] = vpnBucket{}
}

// detach unlinks slot i from the recency list.
func (t *TLB) detach(i int) {
	e := &t.entries[i]
	if e.prev >= 0 {
		t.entries[e.prev].next = e.next
	} else {
		t.mru = e.next
	}
	if e.next >= 0 {
		t.entries[e.next].prev = e.prev
	} else {
		t.lru = e.prev
	}
}

// toFront makes slot i the most recently used.
func (t *TLB) toFront(i int) {
	e := &t.entries[i]
	e.prev, e.next = -1, t.mru
	if t.mru >= 0 {
		t.entries[t.mru].prev = i
	}
	t.mru = i
	if t.lru < 0 {
		t.lru = i
	}
}

// Config returns the TLB configuration.
func (t *TLB) Config() Config { return t.cfg }

// VPN returns the virtual page number of an address.
func VPN(addr uint64) uint64 { return addr / PageBytes }

// Translation is the cached result of a lookup; the SAMIE-LSQ stores
// one of these per entry.
type Translation struct {
	VPN   uint64
	Valid bool
}

// Lookup translates addr, filling on a miss, and returns whether it
// hit together with the latency in cycles.
func (t *TLB) Lookup(addr uint64) (hit bool, latency int) {
	vpn := VPN(addr)
	if i := t.index.slot(vpn); i >= 0 {
		t.hits++
		if t.mru != i {
			t.detach(i)
			t.toFront(i)
		}
		return true, t.cfg.HitLatency
	}
	t.misses++
	var victim int
	if t.filled < len(t.entries) {
		victim = t.filled // slots fill in index order, like the original
		t.filled++
	} else {
		victim = t.lru
		t.detach(victim)
		t.index.remove(t.entries[victim].vpn)
	}
	t.entries[victim].vpn = vpn
	t.toFront(victim)
	t.index.insert(vpn, victim)
	return false, t.cfg.HitLatency + t.cfg.MissPenalty
}

// Probe reports whether addr's page is resident without updating
// state.
func (t *TLB) Probe(addr uint64) bool {
	return t.index.slot(VPN(addr)) >= 0
}

// ResetStats zeroes the hit/miss counters (entries are kept). Used at
// the end of simulation warm-up.
func (t *TLB) ResetStats() { t.hits, t.misses = 0, 0 }

// Hits returns the number of hitting lookups.
func (t *TLB) Hits() uint64 { return t.hits }

// Misses returns the number of missing lookups.
func (t *TLB) Misses() uint64 { return t.misses }

// MissRate returns misses/(hits+misses), 0 if no lookups.
func (t *TLB) MissRate() float64 {
	n := t.hits + t.misses
	if n == 0 {
		return 0
	}
	return float64(t.misses) / float64(n)
}
