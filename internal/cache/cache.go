// Package cache implements the set-associative caches of the modeled
// memory hierarchy, including the presentBit extension the SAMIE-LSQ
// adds to the L1 data cache (§3.4 of the paper): a bit per cache line
// that records whether the line's physical location (set and way) has
// been cached inside an LSQ entry, enabling later accesses from that
// entry to skip the tag check and read a single way.
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes one cache level.
type Config struct {
	Name       string
	SizeBytes  int
	LineBytes  int
	Ways       int
	HitLatency int // cycles
	Ports      int // read/write ports per cycle (0 = unlimited)
}

// PaperL1D returns the Table 2 L1 data cache: 8KB, 4-way, 32-byte
// lines, 4 R/W ports, 2-cycle hit.
func PaperL1D() Config {
	return Config{Name: "dl1", SizeBytes: 8 << 10, LineBytes: 32, Ways: 4, HitLatency: 2, Ports: 4}
}

// PaperL1I returns the Table 2 L1 instruction cache: 64KB, 2-way,
// 32-byte lines, 1-cycle hit.
func PaperL1I() Config {
	return Config{Name: "il1", SizeBytes: 64 << 10, LineBytes: 32, Ways: 2, HitLatency: 1, Ports: 1}
}

// PaperL2 returns the Table 2 unified L2: 512KB, 4-way, 64-byte lines,
// 10-cycle hit.
func PaperL2() Config {
	return Config{Name: "ul2", SizeBytes: 512 << 10, LineBytes: 64, Ways: 4, HitLatency: 10, Ports: 1}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache %s: size, line and ways must be positive", c.Name)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %s: line size %d not a power of two", c.Name, c.LineBytes)
	}
	sets := c.SizeBytes / (c.LineBytes * c.Ways)
	if sets <= 0 || sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d not a positive power of two", c.Name, sets)
	}
	return nil
}

// Sets returns the number of sets implied by the configuration.
func (c *Config) Sets() int { return c.SizeBytes / (c.LineBytes * c.Ways) }

type line struct {
	tag     uint64
	valid   bool
	dirty   bool
	present bool // presentBit: location is cached in some LSQ entry
	age     uint32
}

// Result describes the outcome of a cache access.
type Result struct {
	Hit          bool
	Set, Way     int
	Evicted      bool   // a valid line was evicted
	EvictedLine  uint64 // line address of the victim (if Evicted)
	EvictedHadPB bool   // victim's presentBit was set (LSQ must be told)
}

// Cache is a set-associative, write-back, LRU cache model. It tracks
// tags only (timing/energy model; no data storage).
type Cache struct {
	cfg Config
	// lines holds every set's ways back to back: way w of set s is
	// lines[s*ways+w]. One pointer-free array keeps construction to a
	// single allocation the garbage collector never scans.
	lines     []line
	ways      int
	numSets   int
	lineShift uint
	setBits   uint
	setMask   uint64
	ageTick   uint32

	hits, misses, evictions, writebacks uint64
	pbSet, pbCleared                    uint64
}

// New builds a cache; it panics on invalid configuration (use
// Config.Validate for data-driven configs).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	return &Cache{
		cfg:       cfg,
		lines:     make([]line, sets*cfg.Ways),
		ways:      cfg.Ways,
		numSets:   sets,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setBits:   uint(bits.TrailingZeros(uint(sets))),
		setMask:   uint64(sets - 1),
	}
}

// set returns the ways of set s.
func (c *Cache) set(s int) []line {
	base := s * c.ways
	return c.lines[base : base+c.ways : base+c.ways]
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// IndexOf returns the set index and tag for an address.
func (c *Cache) IndexOf(addr uint64) (set int, tag uint64) {
	l := addr >> c.lineShift
	return int(l & c.setMask), l >> c.setBits
}

// LineAddr returns the line address (address of byte 0 of the line).
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr &^ (uint64(c.cfg.LineBytes) - 1)
}

// Access performs a conventional access (tag check over all ways).
// On a miss the LRU way is filled with the new line. The returned
// Result reports the final location of the line and any eviction.
func (c *Cache) Access(addr uint64, write bool) Result {
	set, tag := c.IndexOf(addr)
	c.ageTick++
	ws := c.set(set)
	for w := range ws {
		if ws[w].valid && ws[w].tag == tag {
			c.hits++
			ws[w].age = c.ageTick
			if write {
				ws[w].dirty = true
			}
			return Result{Hit: true, Set: set, Way: w}
		}
	}
	c.misses++
	// Choose victim: first invalid way, else LRU.
	victim := -1
	for w := range ws {
		if !ws[w].valid {
			victim = w
			break
		}
	}
	res := Result{Hit: false, Set: set}
	if victim < 0 {
		victim = 0
		for w := 1; w < len(ws); w++ {
			if ws[w].age < ws[victim].age {
				victim = w
			}
		}
		res.Evicted = true
		res.EvictedLine = c.reconstruct(set, ws[victim].tag)
		res.EvictedHadPB = ws[victim].present
		c.evictions++
		if ws[victim].dirty {
			c.writebacks++
		}
	}
	ws[victim] = line{tag: tag, valid: true, dirty: write, age: c.ageTick}
	res.Way = victim
	return res
}

// reconstruct rebuilds a line address from set and tag.
func (c *Cache) reconstruct(set int, tag uint64) uint64 {
	l := tag<<c.setBits | uint64(set)
	return l << c.lineShift
}

// Probe checks for the line without updating LRU or filling; used by
// tests and by way-known accesses to verify correctness invariants.
func (c *Cache) Probe(addr uint64) (set, way int, hit bool) {
	set, tag := c.IndexOf(addr)
	for w, ln := range c.set(set) {
		if ln.valid && ln.tag == tag {
			return set, w, true
		}
	}
	return set, -1, false
}

// DirectAccess models a way-known access (§3.4): the LSQ entry cached
// (set, way) for this line, so no tag comparison is performed and only
// one way is read. It returns false if the stored location no longer
// holds the line — by construction this cannot happen while the
// presentBit protocol is followed, so callers treat false as an
// invariant violation.
func (c *Cache) DirectAccess(addr uint64, set, way int, write bool) bool {
	wantSet, tag := c.IndexOf(addr)
	if set != wantSet || way < 0 || way >= c.ways {
		return false
	}
	ln := &c.lines[set*c.ways+way]
	if !ln.valid || ln.tag != tag {
		return false
	}
	c.ageTick++
	ln.age = c.ageTick
	if write {
		ln.dirty = true
	}
	c.hits++
	return true
}

// SetPresentBit marks the line at (set, way) as having its location
// cached in an LSQ entry.
func (c *Cache) SetPresentBit(set, way int) {
	if set >= 0 && set < c.numSets && way >= 0 && way < c.ways {
		ln := &c.lines[set*c.ways+way]
		if !ln.present {
			c.pbSet++
		}
		ln.present = true
	}
}

// ClearPresentBit clears the presentBit at (set, way).
func (c *Cache) ClearPresentBit(set, way int) {
	if set >= 0 && set < c.numSets && way >= 0 && way < c.ways {
		ln := &c.lines[set*c.ways+way]
		if ln.present {
			c.pbCleared++
		}
		ln.present = false
	}
}

// PresentBit reports the presentBit at (set, way).
func (c *Cache) PresentBit(set, way int) bool {
	if set < 0 || set >= c.numSets || way < 0 || way >= c.ways {
		return false
	}
	return c.lines[set*c.ways+way].present
}

// ClearAllPresentBits clears every presentBit (used by the paper's
// conservative invalidation: when a presentBit line is replaced, all
// potentially affected LSQ entries reset their flag and the cache
// forgets all cached locations).
func (c *Cache) ClearAllPresentBits() {
	for i := range c.lines {
		if c.lines[i].present {
			c.pbCleared++
			c.lines[i].present = false
		}
	}
}

// Invalidate drops a line if present (used by tests and by multi-level
// inclusion modeling if enabled).
func (c *Cache) Invalidate(addr uint64) bool {
	set, tag := c.IndexOf(addr)
	ws := c.set(set)
	for w := range ws {
		if ws[w].valid && ws[w].tag == tag {
			ws[w] = line{}
			return true
		}
	}
	return false
}

// ResetStats zeroes the access counters (cache contents are kept).
// Used at the end of simulation warm-up.
func (c *Cache) ResetStats() {
	c.hits, c.misses, c.evictions, c.writebacks = 0, 0, 0, 0
	c.pbSet, c.pbCleared = 0, 0
}

// Hits returns the number of hitting accesses.
func (c *Cache) Hits() uint64 { return c.hits }

// Misses returns the number of missing accesses.
func (c *Cache) Misses() uint64 { return c.misses }

// Evictions returns the number of valid-line evictions.
func (c *Cache) Evictions() uint64 { return c.evictions }

// Writebacks returns the number of dirty evictions.
func (c *Cache) Writebacks() uint64 { return c.writebacks }

// MissRate returns misses/(hits+misses), 0 if no accesses.
func (c *Cache) MissRate() float64 {
	t := c.hits + c.misses
	if t == 0 {
		return 0
	}
	return float64(c.misses) / float64(t)
}
