// Package perf holds AllocsPerAccess, the allocation probe of the
// cache hot path: the flattened hierarchy allocates nothing per access,
// and perfbench reports the measured figure as its
// cache.allocs_per_access layer number so a regression shows as a
// number rather than as slower sweeps.
//
// Throughput is measured elsewhere: BenchmarkSweepDefenseAxis times the
// canonical none+stock grid, internal/core's exact-count test pins that
// grid's cell and sample counts, and perfbench times every layer (see
// docs/PERFORMANCE.md).
package perf

import (
	"runtime"

	"github.com/intrust-sim/intrust/internal/platform"
)

// AllocsPerAccess measures heap allocations per hierarchy access on the
// server platform over a mixed hit/miss/flush workload — the zero the
// flattened cache path is tracked against. Measured directly from the
// runtime allocation counters so it works outside the testing package.
func AllocsPerAccess() float64 {
	p := platform.NewServer()
	h := p.Core(0).Hier
	const rounds, lines = 64, 512
	access := func() {
		for i := 0; i < lines; i++ {
			h.Data(uint32(i)*64, i%8 == 0, i%3)
		}
		for i := 0; i < lines; i += 8 {
			h.FlushAddr(uint32(i) * 64)
		}
	}
	access() // warm up lazily grown scratch buffers
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for r := 0; r < rounds; r++ {
		access()
	}
	runtime.ReadMemStats(&m1)
	accesses := float64(rounds) * (lines + lines/8)
	return float64(m1.Mallocs-m0.Mallocs) / accesses
}
