package cache

import (
	"slices"
	"testing"
)

// The flattened substrate's headline property: nothing on the access or
// flush paths allocates. These tests pin it with the allocation counter
// so a regression (a reintroduced map, a scratch slice that stopped being
// reused) fails loudly instead of silently taxing every experiment.

// allocHierarchy assembles a server-like private hierarchy over a shared
// LLC, the shape every cache scenario drives.
func allocHierarchy() *Hierarchy {
	return &Hierarchy{
		L1I:        New(Config{Name: "l1i", Sets: 64, Ways: 8, LineSize: 64, HitLatency: 2}),
		L1D:        New(Config{Name: "l1d", Sets: 64, Ways: 8, LineSize: 64, HitLatency: 3}),
		L2:         New(Config{Name: "l2", Sets: 512, Ways: 8, LineSize: 64, HitLatency: 11}),
		LLC:        New(Config{Name: "llc", Sets: 1024, Ways: 16, LineSize: 64, HitLatency: 34}),
		MemLatency: 160,
	}
}

func TestHierarchyAccessHitAllocs(t *testing.T) {
	h := allocHierarchy()
	h.Data(0x4000, false, 1) // fill once; every measured access hits
	if avg := testing.AllocsPerRun(1000, func() {
		h.Data(0x4000, false, 1)
	}); avg != 0 {
		t.Errorf("hierarchy hit allocates %v objects per access, want 0", avg)
	}
}

func TestHierarchyAccessMissAllocs(t *testing.T) {
	h := allocHierarchy()
	addr := uint32(0)
	if avg := testing.AllocsPerRun(1000, func() {
		h.Data(addr, addr%512 == 0, 1)
		addr += 64 // a fresh line every run: misses, fills and evicts throughout
	}); avg != 0 {
		t.Errorf("hierarchy miss allocates %v objects per access, want 0", avg)
	}
}

func TestFlushLineAllocs(t *testing.T) {
	c := New(Config{Name: "flush", Sets: 64, Ways: 8, LineSize: 64, HitLatency: 1})
	// Randomized mappings widen the candidate-set scan — the worst case
	// the Flush+Reload inner loop hits.
	c.SetRandomizedIndex(1, 0xdecafbad)
	c.SetRandomizedIndex(2, 0x5eed5eed)
	addr := uint32(0)
	if avg := testing.AllocsPerRun(1000, func() {
		c.Access(addr, false, 1)
		c.FlushLine(addr)
		addr += 64
	}); avg != 0 {
		t.Errorf("FlushLine allocates %v objects per call, want 0", avg)
	}
}

// serverHierarchy is the server platform's private hierarchy over its
// 8192-set shared LLC.
func serverHierarchy() *Hierarchy {
	h := allocHierarchy()
	h.LLC = New(Config{Name: "llc", Sets: 8192, Ways: 16, LineSize: 64, HitLatency: 34})
	return h
}

// fillVictim touches an Evict+Time-sized working set: the AES victim's
// four 1 KiB T-tables plus the S-box, one access per 64-byte line.
func fillVictim(h *Hierarchy) {
	for a := uint32(0x10000); a < 0x10000+5*0x400; a += 64 {
		h.Data(a, false, 1)
	}
}

func TestFlushAllAllocs(t *testing.T) {
	h := serverHierarchy()
	if avg := testing.AllocsPerRun(100, func() {
		fillVictim(h)
		h.FlushAll()
	}); avg != 0 {
		t.Errorf("fill+FlushAll allocates %v objects per round, want 0", avg)
	}
}

// BenchmarkHierarchyFlushAll times the flush-on-switch defense's
// context-switch hygiene on the server geometry after an Evict+Time-sized
// working set.
func BenchmarkHierarchyFlushAll(b *testing.B) {
	h := serverHierarchy()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fillVictim(h)
		b.StartTimer()
		h.FlushAll()
	}
}

func TestTLBAllocs(t *testing.T) {
	tlb := NewTLB(64, 4)
	tlb.SetPartition(1, 0b0011)
	vpn := uint32(0)
	if avg := testing.AllocsPerRun(1000, func() {
		tlb.Insert(vpn, 1, vpn+1)
		tlb.Lookup(vpn, 1)
		vpn++
	}); avg != 0 {
		t.Errorf("TLB insert+lookup allocates %v objects, want 0", avg)
	}
}

// TestResetEquivalentToFresh drives an identical workload on a reset
// cache and a newly built one and requires identical observable behavior,
// filled-set tracking included — the property platform reuse's
// bit-identical-replay contract rests on.
func TestResetEquivalentToFresh(t *testing.T) {
	cfg := Config{Name: "reset", Sets: 16, Ways: 4, LineSize: 32, HitLatency: 1, Policy: PolicyRandom}
	dirty := New(cfg)
	dirty.SetPartition(1, 0b0011)
	dirty.SetRandomizedIndex(2, 0xabad1dea)
	for a := uint32(0); a < 4096; a += 32 {
		dirty.Access(a, a%64 == 0, int(a/32)%3)
	}
	dirty.Reset()
	if len(dirty.filledSets) != 0 {
		t.Fatalf("reset left %d sets listed as filled", len(dirty.filledSets))
	}
	for i, f := range dirty.filled {
		if f {
			t.Fatalf("reset left set %d marked filled", i)
		}
	}
	for i, st := range dirty.sets {
		if st != (setState{}) {
			t.Fatalf("reset left set %d with valid %#x, plru %#x", i, st.valid, st.plru)
		}
	}
	for d := 0; d < 3; d++ {
		if n := dirty.OccupancyOf(d); n != 0 {
			t.Fatalf("reset left domain %d owning %d lines", d, n)
		}
	}

	fresh := New(cfg)
	for a := uint32(0); a < 8192; a += 32 {
		d := int(a/32) % 3
		if got, want := dirty.Access(a, false, d), fresh.Access(a, false, d); got != want {
			t.Fatalf("access %#x domain %d: reset=%v fresh=%v", a, d, got, want)
		}
	}
	if dirty.Stats != fresh.Stats {
		t.Errorf("stats diverged after reset: %+v vs %+v", dirty.Stats, fresh.Stats)
	}
	for s := 0; s < cfg.Sets; s++ {
		if dirty.WaysIn(s) != fresh.WaysIn(s) {
			t.Errorf("set %d occupancy diverged: %d vs %d", s, dirty.WaysIn(s), fresh.WaysIn(s))
		}
		if dirty.sets[s] != fresh.sets[s] {
			t.Errorf("set %d valid/PLRU words diverged: %+v vs %+v", s, dirty.sets[s], fresh.sets[s])
		}
		if dirty.filled[s] != fresh.filled[s] {
			t.Errorf("set %d filled mark diverged: %v vs %v", s, dirty.filled[s], fresh.filled[s])
		}
	}
	if !slices.Equal(dirty.filledSets, fresh.filledSets) {
		t.Errorf("filled-set list diverged after reset: %v vs %v", dirty.filledSets, fresh.filledSets)
	}
}
