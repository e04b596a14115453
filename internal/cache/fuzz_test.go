package cache

import "testing"

// FuzzCacheAccess drives random geometry and random
// access/flush/partition/randomize sequences through the flattened cache
// and asserts the structural invariants the attacks depend on: no panics
// on any well-formed input, a just-accessed address is always visible to
// the same domain's Lookup, and a flushed address is visible to no one.
func FuzzCacheAccess(f *testing.F) {
	f.Add(uint8(4), uint8(3), uint8(2), []byte{0x00, 0x10, 0x21, 0x32, 0x43})
	f.Add(uint8(0), uint8(0), uint8(0), []byte{0x10, 0x10, 0x20})
	f.Add(uint8(7), uint8(7), uint8(4), []byte{0x55, 0xaa, 0x31, 0x42, 0x53, 0x64})
	f.Fuzz(func(t *testing.T, setsExp, waysRaw, lineExp uint8, ops []byte) {
		cfg := Config{
			Name:       "fuzz",
			Sets:       1 << (setsExp % 8),   // 1..128
			Ways:       int(waysRaw%8) + 1,   // 1..8
			LineSize:   1 << (lineExp%5 + 2), // 4..64
			HitLatency: 1,
			Policy:     Policy(waysRaw % 3),
		}
		c := New(cfg)
		// Consume ops in (op, a, b) triples: op selects the operation,
		// a/b parameterize address, domain, mask or key.
		for len(ops) >= 3 {
			op, a, b := ops[0], ops[1], ops[2]
			ops = ops[3:]
			addr := (uint32(a)<<6 | uint32(b)) * 4
			domain := int(a % 8)
			switch op % 8 {
			case 0, 1, 2: // accesses dominate, like the real workload
				c.Access(addr, op%2 == 0, domain)
				if !c.Lookup(addr, domain) {
					t.Fatalf("addr %#x invisible to domain %d right after its own access", addr, domain)
				}
			case 3:
				c.FlushLine(addr)
				for d := 0; d < 8; d++ {
					if c.Lookup(addr, d) {
						t.Fatalf("addr %#x still visible to domain %d after FlushLine", addr, d)
					}
				}
			case 4:
				// A partition must keep at least one way inside the
				// configured geometry; an empty effective mask is a
				// documented configuration bug (chooseVictim panics).
				mask := uint64(b) & (1<<uint(cfg.Ways) - 1)
				if b%5 == 0 {
					mask = 0 // exercise clearing
				} else {
					mask |= 1 << uint(int(b)%cfg.Ways)
				}
				c.SetPartition(domain, mask)
			case 5:
				c.SetRandomizedIndex(domain, uint32(a)<<8|uint32(b))
			case 6:
				c.FlushDomain(domain)
			case 7:
				if b%7 == 0 {
					c.FlushAll()
				} else {
					c.Reset()
				}
				// Both clear only the sets filled since the last clear:
				// every line must now read as zero and no domain may
				// own a line.
				for i, l := range c.lines {
					if l != (line{}) {
						t.Fatalf("line %d (set %d) survived a full flush: %+v", i, i/cfg.Ways, l)
					}
				}
				for d := 0; d < 8; d++ {
					if n := c.OccupancyOf(d); n != 0 {
						t.Fatalf("domain %d owns %d lines after a full flush", d, n)
					}
				}
			}
			if n := c.OccupancyOf(-1); n != 0 {
				t.Fatalf("phantom lines owned by domain -1: %d", n)
			}
		}
	})
}
