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
// defenses were themselves evaluated on: lines are a struct of arrays (one
// tag, last-use and owner column each) indexed by precomputed shift/mask
// geometry, every set keeps its valid ways and its PLRU state as two
// bitmask words, and the per-domain partition/key tables are dense slices.
// A lookup walks only the set bits of valid&wayMask and compares 4-byte
// tags — no maps, no per-access pointer chasing, no allocation anywhere on
// the access or flush paths (see docs/PERFORMANCE.md).
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

// setState is one set's per-way bookkeeping: bit w of valid is set while
// way w holds a line, bit w of plru while the way is marked recently used
// by tree-PLRU. Only bits below Ways are ever set.
type setState struct {
	valid uint64
	plru  uint64
}

// Cache is one set-associative cache level.
//
// Lines are tagged with the full line address, so set-index geometry can be
// changed per domain (randomized mapping) without aliasing errors. Each
// line remembers the security domain that filled it; domain-selective
// flushes model enclave context-switch hygiene.
//
// All state lives in flat arrays. The line columns tags, lastUse and
// domains hold way w of set i at index i*Ways+w; a way's columns mean
// something only while its valid bit is set, so invalidating a line is
// clearing one bit and never touches the columns. The per-domain way
// partitions and index-scrambling keys are dense slices indexed by domain.
// Set indexing is a shift and a mask — Sets and LineSize are validated
// powers of two.
type Cache struct {
	cfg Config

	ways      int
	full      uint64 // one bit per configured way
	lineShift uint   // log2(LineSize): addr >> lineShift is the line address
	setMask   uint32 // Sets-1: lineAddr & setMask is the identity set index

	tags    []uint32 // line address of each way (addr >> lineShift)
	lastUse []uint64 // tick of each way's last fill or hit (LRU order)
	domains []int32  // security domain that filled each way
	sets    []setState

	// filled marks the sets that have had a fill since the last FlushAll
	// or Reset, and filledSets lists them in first-fill order. fill is the
	// only place a way becomes valid, so every set outside the list has no
	// valid way: FlushAll clears just the listed sets' valid words, and
	// FlushDomain and OccupancyOf visit only them. filledSets is allocated
	// at its Sets capacity, so fills never grow it.
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
	n := cfg.Sets * cfg.Ways
	c := &Cache{
		cfg:        cfg,
		ways:       cfg.Ways,
		full:       ^uint64(0) >> uint(64-cfg.Ways),
		lineShift:  uint(bits.TrailingZeros(uint(cfg.LineSize))),
		setMask:    uint32(cfg.Sets - 1),
		tags:       make([]uint32, n),
		lastUse:    make([]uint64, n),
		domains:    make([]int32, n),
		sets:       make([]setState, cfg.Sets),
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
	clear(c.sets)
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

// Lookup reports whether addr is cached, from domain's view, without
// changing any state (no fill, no LRU update).
func (c *Cache) Lookup(addr uint32, domain int) bool {
	tag := c.lineAddr(addr)
	idx := c.setIndex(tag, domain)
	_, ok := c.find(idx, tag, c.sets[idx].valid&c.wayMask(domain))
	return ok
}

// find returns the lowest way in ways (a subset of set idx's valid ways)
// that holds tag.
func (c *Cache) find(idx int, tag uint32, ways uint64) (int, bool) {
	base := idx * c.ways
	for ; ways != 0; ways &= ways - 1 {
		w := bits.TrailingZeros64(ways)
		if c.tags[base+w] == tag {
			return w, true
		}
	}
	return 0, false
}

// Access performs a load or store to addr on behalf of domain. It returns
// whether the access hit; on a miss the line is filled (evicting per
// policy within the domain's way mask). Loads and stores behave alike:
// the model keeps no dirty state, since nothing observes a write-back.
func (c *Cache) Access(addr uint32, write bool, domain int) bool {
	c.tick++
	tag := c.lineAddr(addr)
	idx := c.setIndex(tag, domain)
	mask := c.wayMask(domain)
	if w, ok := c.find(idx, tag, c.sets[idx].valid&mask); ok {
		c.lastUse[idx*c.ways+w] = c.tick
		c.touchPLRU(idx, w)
		c.Stats.Hits++
		return true
	}
	c.Stats.Misses++
	c.fill(idx, tag, domain, mask)
	return false
}

func (c *Cache) fill(idx int, tag uint32, domain int, mask uint64) {
	d := int32(domain)
	if int(d) != domain {
		panic(fmt.Sprintf("cache %q: security domain %d out of range", c.cfg.Name, domain))
	}
	st := &c.sets[idx]
	var victim int
	// Prefer the lowest invalid way inside the mask.
	if free := ^st.valid & mask & c.full; free != 0 {
		victim = bits.TrailingZeros64(free)
	} else {
		victim = c.chooseVictim(idx, mask)
		c.Stats.Evictions++
		if c.OnEvict != nil {
			c.OnEvict(c.tags[idx*c.ways+victim] << c.lineShift)
		}
	}
	i := idx*c.ways + victim
	c.tags[i], c.lastUse[i], c.domains[i] = tag, c.tick, d
	st.valid |= 1 << uint(victim)
	c.touchPLRU(idx, victim)
	if !c.filled[idx] {
		c.filled[idx] = true
		c.filledSets = append(c.filledSets, int32(idx))
	}
}

// chooseVictim picks the way to evict from set idx. fill calls it only
// when every way of mask inside the geometry is valid, so the LRU scan
// reads no stale last-use stamp.
func (c *Cache) chooseVictim(idx int, mask uint64) int {
	allowed := mask & c.full
	if allowed == 0 {
		panic(fmt.Sprintf("cache %q: empty way mask %#x", c.cfg.Name, mask))
	}
	switch c.cfg.Policy {
	case PolicyRandom:
		for {
			w := c.rng.Intn(c.ways)
			if mask&(1<<uint(w)) != 0 {
				return w
			}
		}
	case PolicyTreePLRU:
		// The lowest allowed way not marked recently used; if all are
		// marked, reset the set's bits and take the lowest allowed way.
		if nru := allowed &^ c.sets[idx].plru; nru != 0 {
			return bits.TrailingZeros64(nru)
		}
		c.sets[idx].plru = 0
		return bits.TrailingZeros64(allowed)
	}
	// LRU (default): the lowest way with the oldest stamp.
	base := idx * c.ways
	victim, oldest := 0, ^uint64(0)
	for m := allowed; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		if t := c.lastUse[base+w]; t < oldest {
			oldest, victim = t, w
		}
	}
	return victim
}

func (c *Cache) touchPLRU(idx, way int) {
	used := c.sets[idx].plru | 1<<uint(way)
	if used == c.full {
		used = 1 << uint(way)
	}
	c.sets[idx].plru = used
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
		base := idx * c.ways
		for v := c.sets[idx].valid; v != 0; v &= v - 1 {
			w := bits.TrailingZeros64(v)
			if c.tags[base+w] == tag {
				c.sets[idx].valid &^= 1 << uint(w)
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

// clearFilled invalidates every set filled since the last FlushAll or
// Reset and empties the list: afterwards no way in the cache is valid.
func (c *Cache) clearFilled() {
	for _, idx := range c.filledSets {
		c.sets[idx].valid = 0
		c.filled[idx] = false
	}
	c.filledSets = c.filledSets[:0]
}

// FlushDomain invalidates every line filled by the given domain (enclave
// exit hygiene in Sanctum and Sanctuary).
func (c *Cache) FlushDomain(domain int) {
	c.eachOwned(domain, func(idx, w int) { c.sets[idx].valid &^= 1 << uint(w) })
	c.Stats.Flushes++
}

// OccupancyOf counts valid lines owned by domain, a probe used in tests
// and in the partition-isolation experiments.
func (c *Cache) OccupancyOf(domain int) int {
	n := 0
	c.eachOwned(domain, func(int, int) { n++ })
	return n
}

// eachOwned calls fn(set, way) for every valid way filled by domain. Only
// listed sets can hold a valid way.
func (c *Cache) eachOwned(domain int, fn func(idx, w int)) {
	if int(int32(domain)) != domain {
		return // fill rejects such a domain, so it owns nothing
	}
	d := int32(domain)
	for _, idx := range c.filledSets {
		base := int(idx) * c.ways
		for v := c.sets[idx].valid; v != 0; v &= v - 1 {
			w := bits.TrailingZeros64(v)
			if c.domains[base+w] == d {
				fn(int(idx), w)
			}
		}
	}
}

// WaysIn returns how many ways of set idx are currently valid — the
// Prime+Probe primitive for counting victim-induced evictions.
func (c *Cache) WaysIn(idx int) int {
	return bits.OnesCount64(c.sets[idx].valid)
}
