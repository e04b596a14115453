// Package cache models the CPU cache hierarchy of the simulated platforms:
// parameterized set-associative caches, a multi-level hierarchy with a
// shared last-level cache, and a TLB. It implements the defense mechanisms
// the surveyed architectures rely on — way partitioning (DAWG-style, used
// to model Sanctum's isolation goal), index randomization (RPcache/CEASER
// style), cacheability exclusion (Sanctuary) and flush-on-switch — so the
// cache side-channel experiments of Section 4.1 can measure each defense
// against the same attacks.
//
// The cache is the innermost state machine of every Section 4 experiment,
// so its layout is tuned like the flattened simulators the surveyed
// defenses were themselves evaluated on: one contiguous line array indexed
// by precomputed shift/mask geometry, per-set PLRU state in a bitmask, and
// dense per-domain partition/key tables — no maps, no per-access pointer
// chasing, no allocation anywhere on the access or flush paths (see
// docs/PERFORMANCE.md).
package cache

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// Policy selects the replacement policy of a cache.
type Policy uint8

const (
	// PolicyLRU evicts the least recently used way.
	PolicyLRU Policy = iota
	// PolicyRandom evicts a uniformly random way.
	PolicyRandom
	// PolicyTreePLRU approximates LRU with a binary decision tree.
	PolicyTreePLRU
)

func (p Policy) String() string {
	switch p {
	case PolicyLRU:
		return "lru"
	case PolicyRandom:
		return "random"
	case PolicyTreePLRU:
		return "tree-plru"
	}
	return "policy?"
}

// Config describes one cache level.
type Config struct {
	Name       string
	Sets       int // power of two
	Ways       int
	LineSize   int // bytes, power of two
	HitLatency int // cycles
	Policy     Policy
}

// SizeBytes returns the capacity of the configured cache.
func (c Config) SizeBytes() int { return c.Sets * c.Ways * c.LineSize }

// Stats counts cache events.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Flushes   uint64
}

// MissRate returns misses / (hits+misses), or 0 with no accesses.
func (s Stats) MissRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Misses) / float64(t)
}

type line struct {
	valid   bool
	tag     uint32 // full line address (addr / LineSize)
	domain  int    // security domain that filled the line
	lastUse uint64
	dirty   bool
}

// Cache is one set-associative cache level.
//
// Lines are tagged with the full line address, so set-index geometry can be
// changed per domain (randomized mapping) without aliasing errors. Each
// line remembers the security domain that filled it; domain-selective
// flushes model enclave context-switch hygiene.
//
// All state lives in flat arrays: lines is one contiguous backing array
// (set i occupies lines[i*Ways : (i+1)*Ways]), PLRU state is one bit per
// way in a per-set word, and the per-domain way partitions and
// index-scrambling keys are dense slices indexed by domain. Set indexing
// is a shift and a mask — Sets and LineSize are validated powers of two.
type Cache struct {
	cfg Config

	ways      int
	lineShift uint   // log2(LineSize): addr >> lineShift is the line address
	setMask   uint32 // Sets-1: lineAddr & setMask is the identity set index

	lines []line   // Sets*Ways contiguous lines
	plru  []uint64 // tree-PLRU recently-used bit per way, one word per set

	// filled marks the sets that have had a fill since the last FlushAll
	// or Reset, and filledSets lists them in first-fill order. fill is the
	// only place a line becomes valid, so every line outside a listed set
	// is zero and FlushAll clears just the listed sets — a victim's few
	// dozen lines instead of the server LLC's whole 128Ki-line array.
	// filledSets is allocated at its Sets capacity, so fills never grow it.
	filled     []bool
	filledSets []int32

	tick    uint64
	rng     *rand.Rand
	rngSeed int64
	Stats   Stats

	// parts is the dense domain→way-mask table (DAWG-style way
	// partitioning: both lookups and fills are confined to the mask).
	// A zero entry means the domain is unpartitioned — SetPartition
	// defines mask 0 as "clear", so 0 is never a live partition.
	parts []uint64
	// randKeys is the dense domain→index-scrambling key table (randomized
	// address-to-set mapping; different domains get unrelated mappings).
	// A zero entry means the identity mapping — SetRandomizedIndex
	// defines key 0 as "clear".
	randKeys []uint32
	// randDomains lists the domains with a live scrambling key, so
	// FlushLine can enumerate candidate indices without walking the whole
	// dense table.
	randDomains []int

	// flushCand is FlushLine's reused candidate-index scratch: the line
	// can live under the identity index plus one index per randomized
	// mapping, so the buffer stays tiny and, once grown, the Flush+Reload
	// inner loop never allocates again.
	flushCand []int

	// OnEvict, when non-nil, observes every eviction of a valid line with
	// the line's base address. Platforms use it to implement an INCLUSIVE
	// shared LLC: evicting an LLC line back-invalidates the private
	// caches — the property that lets a cross-core Prime+Probe attacker
	// displace a victim's L1 lines.
	OnEvict func(lineBase uint32)
}

// New creates a cache. It panics on non-power-of-two geometry, which is a
// configuration bug.
func New(cfg Config) *Cache {
	for _, v := range []int{cfg.Sets, cfg.LineSize} {
		if v <= 0 || v&(v-1) != 0 {
			panic(fmt.Sprintf("cache %q: %d is not a power of two", cfg.Name, v))
		}
	}
	if cfg.Ways <= 0 || cfg.Ways > 64 {
		panic(fmt.Sprintf("cache %q: bad way count %d", cfg.Name, cfg.Ways))
	}
	c := &Cache{
		cfg:        cfg,
		ways:       cfg.Ways,
		lineShift:  uint(bits.TrailingZeros(uint(cfg.LineSize))),
		setMask:    uint32(cfg.Sets - 1),
		lines:      make([]line, cfg.Sets*cfg.Ways),
		plru:       make([]uint64, cfg.Sets),
		filled:     make([]bool, cfg.Sets),
		filledSets: make([]int32, 0, cfg.Sets),
		rngSeed:    int64(cfg.Sets)*31 + int64(cfg.Ways),
	}
	c.rng = rand.New(rand.NewSource(c.rngSeed))
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Reset returns the cache to its as-built state: all lines invalid, PLRU
// and statistics cleared, partitions and randomized mappings removed, and
// the replacement RNG re-seeded — so a reset cache replays exactly the
// same decision sequence as a freshly constructed one. Platform reuse
// across measurement passes and cells relies on it instead of
// re-allocating hierarchies (OnEvict wiring is preserved).
func (c *Cache) Reset() {
	c.clearFilled()
	clear(c.plru)
	c.tick = 0
	c.Stats = Stats{}
	c.rng = rand.New(rand.NewSource(c.rngSeed))
	clear(c.parts)
	clear(c.randKeys)
	c.randDomains = c.randDomains[:0]
}

// checkDomain rejects negative security domains, which the dense
// per-domain tables cannot represent (and which nothing in the simulator
// uses); like bad geometry, that is a configuration bug.
func (c *Cache) checkDomain(domain int) {
	if domain < 0 {
		panic(fmt.Sprintf("cache %q: negative security domain %d", c.cfg.Name, domain))
	}
}

// SetPartition restricts domain to the ways in mask (0 clears the
// partition). With a partition installed, the domain cannot hit on or
// evict lines outside its ways, and vice versa for other domains only if
// they are partitioned too.
func (c *Cache) SetPartition(domain int, mask uint64) {
	c.checkDomain(domain)
	if mask == 0 {
		if domain < len(c.parts) {
			c.parts[domain] = 0
		}
		return
	}
	for domain >= len(c.parts) {
		c.parts = append(c.parts, 0)
	}
	c.parts[domain] = mask
}

// SetRandomizedIndex gives domain a private scrambled address-to-set
// mapping derived from key (0 clears it).
func (c *Cache) SetRandomizedIndex(domain int, key uint32) {
	c.checkDomain(domain)
	if key == 0 {
		if domain < len(c.randKeys) && c.randKeys[domain] != 0 {
			c.randKeys[domain] = 0
			for i, d := range c.randDomains {
				if d == domain {
					c.randDomains = append(c.randDomains[:i], c.randDomains[i+1:]...)
					break
				}
			}
		}
		return
	}
	for domain >= len(c.randKeys) {
		c.randKeys = append(c.randKeys, 0)
	}
	if c.randKeys[domain] == 0 {
		c.randDomains = append(c.randDomains, domain)
	}
	c.randKeys[domain] = key
}

// lineAddr returns the line-granular address (the tag).
func (c *Cache) lineAddr(addr uint32) uint32 { return addr >> c.lineShift }

// randKey returns domain's scrambling key, or 0 for the identity mapping.
func (c *Cache) randKey(domain int) uint32 {
	if uint(domain) < uint(len(c.randKeys)) {
		return c.randKeys[domain]
	}
	return 0
}

// setIndex maps a line address to domain's set index.
func (c *Cache) setIndex(la uint32, domain int) int {
	if key := c.randKey(domain); key != 0 {
		return int(scramble(la, key) & c.setMask)
	}
	return int(la & c.setMask)
}

// SetIndexOf returns the set index addr maps to for the given domain.
// Attackers use this to build eviction sets; with randomized mapping the
// result differs per domain, which is exactly the defense.
func (c *Cache) SetIndexOf(addr uint32, domain int) int {
	return c.setIndex(c.lineAddr(addr), domain)
}

// scramble is a cheap invertible mixing function (xorshift-multiply).
func scramble(v, key uint32) uint32 {
	v ^= key
	v *= 0x9e3779b1
	v ^= v >> 16
	v *= 0x85ebca6b
	v ^= v >> 13
	return v
}

func (c *Cache) wayMask(domain int) uint64 {
	if uint(domain) < uint(len(c.parts)) {
		if m := c.parts[domain]; m != 0 {
			return m
		}
	}
	return ^uint64(0)
}

// set returns the contiguous line slice of set idx.
func (c *Cache) set(idx int) []line {
	base := idx * c.ways
	return c.lines[base : base+c.ways]
}

// Lookup reports whether addr is cached, from domain's view, without
// changing any state (no fill, no LRU update).
func (c *Cache) Lookup(addr uint32, domain int) bool {
	tag := c.lineAddr(addr)
	set := c.set(c.setIndex(tag, domain))
	mask := c.wayMask(domain)
	for w := range set {
		if mask&(1<<uint(w)) == 0 {
			continue
		}
		if set[w].valid && set[w].tag == tag {
			return true
		}
	}
	return false
}

// Access performs a load or store to addr on behalf of domain. It returns
// whether the access hit; on a miss the line is filled (evicting per
// policy within the domain's way mask).
func (c *Cache) Access(addr uint32, write bool, domain int) bool {
	c.tick++
	tag := c.lineAddr(addr)
	idx := c.setIndex(tag, domain)
	set := c.set(idx)
	mask := c.wayMask(domain)
	for w := range set {
		if mask&(1<<uint(w)) == 0 {
			continue
		}
		if set[w].valid && set[w].tag == tag {
			set[w].lastUse = c.tick
			if write {
				set[w].dirty = true
			}
			c.touchPLRU(idx, w)
			c.Stats.Hits++
			return true
		}
	}
	c.Stats.Misses++
	c.fill(idx, tag, write, domain, mask)
	return false
}

func (c *Cache) fill(idx int, tag uint32, write bool, domain int, mask uint64) {
	set := c.set(idx)
	victim := -1
	// Prefer an invalid way inside the mask.
	for w := range set {
		if mask&(1<<uint(w)) == 0 {
			continue
		}
		if !set[w].valid {
			victim = w
			break
		}
	}
	if victim < 0 {
		victim = c.chooseVictim(idx, mask)
		c.Stats.Evictions++
		if c.OnEvict != nil && set[victim].valid {
			c.OnEvict(set[victim].tag << c.lineShift)
		}
	}
	set[victim] = line{valid: true, tag: tag, domain: domain, lastUse: c.tick, dirty: write}
	c.touchPLRU(idx, victim)
	if !c.filled[idx] {
		c.filled[idx] = true
		c.filledSets = append(c.filledSets, int32(idx))
	}
}

func (c *Cache) chooseVictim(idx int, mask uint64) int {
	set := c.set(idx)
	switch c.cfg.Policy {
	case PolicyRandom:
		for {
			w := c.rng.Intn(c.ways)
			if mask&(1<<uint(w)) != 0 {
				return w
			}
		}
	case PolicyTreePLRU:
		// Walk the not-recently-used bits; fall back to masked scan.
		used := c.plru[idx]
		for w := 0; w < c.ways; w++ {
			if mask&(1<<uint(w)) != 0 && used&(1<<uint(w)) == 0 {
				return w
			}
		}
		// All marked recently used: reset and take the first allowed way.
		c.plru[idx] = 0
		for w := 0; w < c.ways; w++ {
			if mask&(1<<uint(w)) != 0 {
				return w
			}
		}
	}
	// LRU (default).
	victim, oldest := -1, ^uint64(0)
	for w := range set {
		if mask&(1<<uint(w)) == 0 {
			continue
		}
		if set[w].lastUse < oldest {
			oldest = set[w].lastUse
			victim = w
		}
	}
	if victim < 0 {
		panic(fmt.Sprintf("cache %q: empty way mask %#x", c.cfg.Name, mask))
	}
	return victim
}

// fullWays returns the bitmask with one bit per configured way.
func (c *Cache) fullWays() uint64 {
	if c.ways == 64 {
		return ^uint64(0)
	}
	return 1<<uint(c.ways) - 1
}

func (c *Cache) touchPLRU(idx, way int) {
	used := c.plru[idx] | 1<<uint(way)
	if used == c.fullWays() {
		used = 1 << uint(way)
	}
	c.plru[idx] = used
}

// FlushLine removes addr's line from every way of every possible index
// (covering all domain mappings). It returns whether a line was present —
// the signal Flush+Reload keys on.
func (c *Cache) FlushLine(addr uint32) bool {
	tag := c.lineAddr(addr)
	found := false
	// The line may live under the identity index or any randomized index;
	// scan candidate sets for correctness. Candidates dedupe through the
	// reused scratch buffer (order does not matter: clearing a set is
	// idempotent and sets do not interact).
	cand := append(c.flushCand[:0], int(tag&c.setMask))
	for _, d := range c.randDomains {
		idx := int(scramble(tag, c.randKeys[d]) & c.setMask)
		dup := false
		for _, s := range cand {
			if s == idx {
				dup = true
				break
			}
		}
		if !dup {
			cand = append(cand, idx)
		}
	}
	c.flushCand = cand
	for _, idx := range cand {
		set := c.set(idx)
		for w := range set {
			if set[w].valid && set[w].tag == tag {
				set[w] = line{}
				found = true
				c.Stats.Flushes++
			}
		}
	}
	return found
}

// FlushAll invalidates the entire cache. PLRU state is left as it is.
func (c *Cache) FlushAll() {
	c.clearFilled()
	c.Stats.Flushes++
}

// clearFilled zeroes every set filled since the last FlushAll or Reset
// and empties the list: afterwards every line in the cache is zero.
func (c *Cache) clearFilled() {
	for _, idx := range c.filledSets {
		clear(c.set(int(idx)))
		c.filled[idx] = false
	}
	c.filledSets = c.filledSets[:0]
}

// FlushDomain invalidates every line filled by the given domain (enclave
// exit hygiene in Sanctum and Sanctuary).
func (c *Cache) FlushDomain(domain int) {
	for i := range c.lines {
		if c.lines[i].valid && c.lines[i].domain == domain {
			c.lines[i] = line{}
		}
	}
	c.Stats.Flushes++
}

// OccupancyOf counts valid lines owned by domain, a probe used in tests
// and in the partition-isolation experiments.
func (c *Cache) OccupancyOf(domain int) int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid && c.lines[i].domain == domain {
			n++
		}
	}
	return n
}

// WaysIn returns how many ways of set idx are currently valid — the
// Prime+Probe primitive for counting victim-induced evictions.
func (c *Cache) WaysIn(idx int) int {
	n := 0
	for _, l := range c.set(idx) {
		if l.valid {
			n++
		}
	}
	return n
}
