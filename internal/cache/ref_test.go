package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// refCache is the array-of-structs cache the struct-of-arrays Cache
// replaced, kept as the reference model for TestMatchesReference: every
// set is a slice of whole lines and every decision is an ascending scan
// over the ways, exactly as the layout's first version made it. It shares
// New's geometry, RNG seeding and scramble function with Cache.
type refCache struct {
	cfg         Config
	lines       []refLine
	plru        []uint64
	tick        uint64
	rng         *rand.Rand
	rngSeed     int64
	Stats       Stats
	parts       map[int]uint64
	randKeys    map[int]uint32
	randDomains []int
	OnEvict     func(lineBase uint32)
}

type refLine struct {
	valid   bool
	tag     uint32
	domain  int
	lastUse uint64
}

func newRef(cfg Config) *refCache {
	r := &refCache{
		cfg:     cfg,
		lines:   make([]refLine, cfg.Sets*cfg.Ways),
		plru:    make([]uint64, cfg.Sets),
		rngSeed: int64(cfg.Sets)*31 + int64(cfg.Ways),
	}
	r.Reset()
	return r
}

func (r *refCache) Reset() {
	clear(r.lines)
	clear(r.plru)
	r.tick = 0
	r.Stats = Stats{}
	r.rng = rand.New(rand.NewSource(r.rngSeed))
	r.parts = map[int]uint64{}
	r.randKeys = map[int]uint32{}
	r.randDomains = nil
}

func (r *refCache) SetPartition(domain int, mask uint64) {
	if mask == 0 {
		delete(r.parts, domain)
		return
	}
	r.parts[domain] = mask
}

func (r *refCache) SetRandomizedIndex(domain int, key uint32) {
	if key == 0 {
		if _, ok := r.randKeys[domain]; ok {
			delete(r.randKeys, domain)
			for i, d := range r.randDomains {
				if d == domain {
					r.randDomains = append(r.randDomains[:i], r.randDomains[i+1:]...)
					break
				}
			}
		}
		return
	}
	if _, ok := r.randKeys[domain]; !ok {
		r.randDomains = append(r.randDomains, domain)
	}
	r.randKeys[domain] = key
}

func (r *refCache) lineAddr(addr uint32) uint32 { return addr / uint32(r.cfg.LineSize) }

func (r *refCache) setIndex(la uint32, domain int) int {
	if key, ok := r.randKeys[domain]; ok {
		return int(scramble(la, key) % uint32(r.cfg.Sets))
	}
	return int(la % uint32(r.cfg.Sets))
}

func (r *refCache) wayMask(domain int) uint64 {
	if m, ok := r.parts[domain]; ok {
		return m
	}
	return ^uint64(0)
}

func (r *refCache) set(idx int) []refLine {
	return r.lines[idx*r.cfg.Ways : (idx+1)*r.cfg.Ways]
}

func (r *refCache) Lookup(addr uint32, domain int) bool {
	tag := r.lineAddr(addr)
	set := r.set(r.setIndex(tag, domain))
	mask := r.wayMask(domain)
	for w := range set {
		if mask&(1<<uint(w)) != 0 && set[w].valid && set[w].tag == tag {
			return true
		}
	}
	return false
}

func (r *refCache) Access(addr uint32, domain int) bool {
	r.tick++
	tag := r.lineAddr(addr)
	idx := r.setIndex(tag, domain)
	set := r.set(idx)
	mask := r.wayMask(domain)
	for w := range set {
		if mask&(1<<uint(w)) != 0 && set[w].valid && set[w].tag == tag {
			set[w].lastUse = r.tick
			r.touchPLRU(idx, w)
			r.Stats.Hits++
			return true
		}
	}
	r.Stats.Misses++
	victim := -1
	for w := range set {
		if mask&(1<<uint(w)) != 0 && !set[w].valid {
			victim = w
			break
		}
	}
	if victim < 0 {
		victim = r.chooseVictim(idx, mask)
		r.Stats.Evictions++
		if r.OnEvict != nil && set[victim].valid {
			r.OnEvict(set[victim].tag * uint32(r.cfg.LineSize))
		}
	}
	set[victim] = refLine{valid: true, tag: tag, domain: domain, lastUse: r.tick}
	r.touchPLRU(idx, victim)
	return false
}

func (r *refCache) chooseVictim(idx int, mask uint64) int {
	set := r.set(idx)
	switch r.cfg.Policy {
	case PolicyRandom:
		for {
			w := r.rng.Intn(r.cfg.Ways)
			if mask&(1<<uint(w)) != 0 {
				return w
			}
		}
	case PolicyTreePLRU:
		used := r.plru[idx]
		for w := 0; w < r.cfg.Ways; w++ {
			if mask&(1<<uint(w)) != 0 && used&(1<<uint(w)) == 0 {
				return w
			}
		}
		r.plru[idx] = 0
		for w := 0; w < r.cfg.Ways; w++ {
			if mask&(1<<uint(w)) != 0 {
				return w
			}
		}
	}
	victim, oldest := -1, ^uint64(0)
	for w := range set {
		if mask&(1<<uint(w)) != 0 && set[w].lastUse < oldest {
			oldest = set[w].lastUse
			victim = w
		}
	}
	return victim
}

func (r *refCache) touchPLRU(idx, way int) {
	full := uint64(1)<<uint(r.cfg.Ways) - 1
	if r.cfg.Ways == 64 {
		full = ^uint64(0)
	}
	used := r.plru[idx] | 1<<uint(way)
	if used == full {
		used = 1 << uint(way)
	}
	r.plru[idx] = used
}

func (r *refCache) FlushLine(addr uint32) bool {
	tag := r.lineAddr(addr)
	cand := map[int]bool{int(tag % uint32(r.cfg.Sets)): true}
	for _, d := range r.randDomains {
		cand[int(scramble(tag, r.randKeys[d])%uint32(r.cfg.Sets))] = true
	}
	found := false
	for idx := range cand {
		set := r.set(idx)
		for w := range set {
			if set[w].valid && set[w].tag == tag {
				set[w] = refLine{}
				found = true
				r.Stats.Flushes++
			}
		}
	}
	return found
}

func (r *refCache) FlushAll() {
	clear(r.lines)
	r.Stats.Flushes++
}

func (r *refCache) FlushDomain(domain int) {
	for i := range r.lines {
		if r.lines[i].valid && r.lines[i].domain == domain {
			r.lines[i] = refLine{}
		}
	}
	r.Stats.Flushes++
}

func (r *refCache) OccupancyOf(domain int) int {
	n := 0
	for _, l := range r.lines {
		if l.valid && l.domain == domain {
			n++
		}
	}
	return n
}

func (r *refCache) WaysIn(idx int) int {
	n := 0
	for _, l := range r.set(idx) {
		if l.valid {
			n++
		}
	}
	return n
}

// refDomains is how many security domains the differential sequences use.
const refDomains = 4

// runAgainstReference drives one random operation sequence through a
// Cache and a refCache of the same geometry and returns the first
// observable difference, or "" if there is none. Observables: every hit
// or miss, every FlushLine result, the OnEvict address sequence, Stats,
// and after every operation Lookup of the touched address from every
// domain; every few operations WaysIn of every set and OccupancyOf of
// every domain.
func runAgainstReference(cfg Config, rng *rand.Rand, ops int) string {
	c, r := New(cfg), newRef(cfg)
	var cEv, rEv []uint32
	c.OnEvict = func(a uint32) { cEv = append(cEv, a) }
	r.OnEvict = func(a uint32) { rEv = append(rEv, a) }
	full := uint64(1)<<uint(cfg.Ways) - 1
	// A small address pool keeps sets contended, so duplicates, evictions
	// and flush hits all happen often.
	pool := 4 * cfg.Sets * cfg.Ways
	for i := 0; i < ops; i++ {
		addr := uint32(rng.Intn(pool)) * uint32(cfg.LineSize) / 2
		d := rng.Intn(refDomains)
		var op string
		switch k := rng.Intn(100); {
		case k < 70:
			op = fmt.Sprintf("access(%#x, d%d)", addr, d)
			write := rng.Intn(2) == 0
			if got, want := c.Access(addr, write, d), r.Access(addr, d); got != want {
				return fmt.Sprintf("op %d %s: hit %v, reference %v", i, op, got, want)
			}
		case k < 80:
			op = fmt.Sprintf("flushLine(%#x)", addr)
			if got, want := c.FlushLine(addr), r.FlushLine(addr); got != want {
				return fmt.Sprintf("op %d %s: found %v, reference %v", i, op, got, want)
			}
		case k < 86:
			// Partitions are drawn inside the geometry and never empty, so
			// overlapping partitions leave duplicate tags in one set.
			mask := rng.Uint64() & full
			if rng.Intn(4) == 0 {
				mask = 0
			} else {
				mask |= 1 << uint(rng.Intn(cfg.Ways))
			}
			op = fmt.Sprintf("partition(d%d, %#x)", d, mask)
			c.SetPartition(d, mask)
			r.SetPartition(d, mask)
		case k < 91:
			key := rng.Uint32()
			if rng.Intn(3) == 0 {
				key = 0
			}
			op = fmt.Sprintf("randomize(d%d, %#x)", d, key)
			c.SetRandomizedIndex(d, key)
			r.SetRandomizedIndex(d, key)
		case k < 95:
			op = fmt.Sprintf("flushDomain(d%d)", d)
			c.FlushDomain(d)
			r.FlushDomain(d)
		case k < 98:
			op = "flushAll"
			c.FlushAll()
			r.FlushAll()
		default:
			op = "reset"
			c.Reset()
			r.Reset()
		}
		if c.Stats != r.Stats {
			return fmt.Sprintf("op %d %s: stats %+v, reference %+v", i, op, c.Stats, r.Stats)
		}
		if len(cEv) != len(rEv) {
			return fmt.Sprintf("op %d %s: %d evictions observed, reference %d", i, op, len(cEv), len(rEv))
		}
		for j := range cEv {
			if cEv[j] != rEv[j] {
				return fmt.Sprintf("op %d %s: eviction %d of %#x, reference %#x", i, op, j, cEv[j], rEv[j])
			}
		}
		for dd := 0; dd < refDomains; dd++ {
			if got, want := c.Lookup(addr, dd), r.Lookup(addr, dd); got != want {
				return fmt.Sprintf("op %d %s: Lookup(%#x, d%d) %v, reference %v", i, op, addr, dd, got, want)
			}
		}
		if i%16 == 0 {
			for s := 0; s < cfg.Sets; s++ {
				if got, want := c.WaysIn(s), r.WaysIn(s); got != want {
					return fmt.Sprintf("op %d %s: WaysIn(%d) %d, reference %d", i, op, s, got, want)
				}
			}
			for dd := 0; dd < refDomains; dd++ {
				if got, want := c.OccupancyOf(dd), r.OccupancyOf(dd); got != want {
					return fmt.Sprintf("op %d %s: OccupancyOf(d%d) %d, reference %d", i, op, dd, got, want)
				}
			}
		}
	}
	return ""
}

// TestMatchesReference requires the struct-of-arrays Cache to make every
// decision the array-of-structs reference makes: the same hits, the same
// victims (seen through the OnEvict address sequence and later hits), the
// same Stats, Lookup, WaysIn and OccupancyOf — over random sequences of
// reads, writes, partitions, randomized-index keys, FlushLine, FlushAll,
// FlushDomain and Reset, under all three replacement policies.
func TestMatchesReference(t *testing.T) {
	geoms := []struct{ sets, ways, line int }{
		{1, 1, 4}, {1, 8, 32}, {4, 2, 16}, {8, 4, 64}, {16, 16, 64}, {2, 64, 8},
	}
	seqs := 40
	if testing.Short() {
		seqs = 8
	}
	rng := rand.New(rand.NewSource(29))
	for _, g := range geoms {
		for _, pol := range []Policy{PolicyLRU, PolicyRandom, PolicyTreePLRU} {
			cfg := Config{Name: "ref", Sets: g.sets, Ways: g.ways, LineSize: g.line, HitLatency: 1, Policy: pol}
			for s := 0; s < seqs; s++ {
				seed := rng.Int63()
				if diff := runAgainstReference(cfg, rand.New(rand.NewSource(seed)), 400); diff != "" {
					t.Fatalf("%d sets × %d ways, %v, seed %d: %s", g.sets, g.ways, pol, seed, diff)
				}
			}
		}
	}
}

// FuzzMatchesReference widens TestMatchesReference to fuzzer-chosen
// geometries and sequences.
func FuzzMatchesReference(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(0), int64(1))
	f.Add(uint8(0), uint8(63), uint8(2), int64(7))
	f.Fuzz(func(t *testing.T, setsExp, waysRaw, polRaw uint8, seed int64) {
		cfg := Config{
			Name:       "ref",
			Sets:       1 << (setsExp % 6),
			Ways:       int(waysRaw%64) + 1,
			LineSize:   1 << (setsExp%4 + 2),
			HitLatency: 1,
			Policy:     Policy(polRaw % 3),
		}
		if diff := runAgainstReference(cfg, rand.New(rand.NewSource(seed)), 300); diff != "" {
			t.Fatalf("%+v, seed %d: %s", cfg, seed, diff)
		}
	})
}
