package cachesca

import (
	"math/rand"
	"testing"

	"github.com/intrust-sim/intrust/internal/cache"
)

// serverHier is the server platform's core-0 view: private 64-set L1s and
// a 512-set L2 over its 8192-set, 16-way shared LLC, with the inclusive
// back-invalidation the platform wires through OnEvict.
func serverHier() (*cache.Hierarchy, *cache.Cache) {
	llc := cache.New(cache.Config{Name: "llc", Sets: 8192, Ways: 16, LineSize: 64, HitLatency: 34})
	h := &cache.Hierarchy{
		L1I:        cache.New(cache.Config{Name: "l1i", Sets: 64, Ways: 8, LineSize: 64, HitLatency: 2}),
		L1D:        cache.New(cache.Config{Name: "l1d", Sets: 64, Ways: 8, LineSize: 64, HitLatency: 3}),
		L2:         cache.New(cache.Config{Name: "l2", Sets: 512, Ways: 8, LineSize: 64, HitLatency: 11}),
		LLC:        llc,
		MemLatency: 160,
	}
	llc.OnEvict = func(lineBase uint32) {
		h.L1I.FlushLine(lineBase)
		h.L1D.FlushLine(lineBase)
		h.L2.FlushLine(lineBase)
	}
	return h, llc
}

func benchVictim(b *testing.B, h *cache.Hierarchy) *Victim {
	v, err := NewVictim(h, []byte("bench victim k16"), 5, 0x40000)
	if err != nil {
		b.Fatal(err)
	}
	return v
}

// BenchmarkPrimeProbeExtend times one Prime+Probe sample on the server
// geometry: 64 eviction sets of 16 lines primed, one encryption, 64 sets
// probed — the cache model's hottest loop in the prime+probe cells.
func BenchmarkPrimeProbeExtend(b *testing.B) {
	h, llc := serverHier()
	run := NewPrimeProbeRun(benchVictim(b, h), llc, 9)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	run.Extend(b.N, rng)
}

// BenchmarkEvictTimeExtend times one Evict+Time sample on the server
// geometry, undefended and under flush-on-switch (the whole hierarchy
// flushed after every encryption, as the defense wires it).
func BenchmarkEvictTimeExtend(b *testing.B) {
	for _, flush := range []bool{false, true} {
		name := "none"
		if flush {
			name = "flush-on-switch"
		}
		b.Run(name, func(b *testing.B) {
			h, _ := serverHier()
			v := benchVictim(b, h)
			if flush {
				v.OnSwitch = h.FlushAll
			}
			run := NewEvictTimeRun(v)
			rng := rand.New(rand.NewSource(2))
			b.ReportAllocs()
			b.ResetTimer()
			run.Extend(b.N, rng)
		})
	}
}
