package intrust

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"github.com/intrust-sim/intrust/internal/attack/cachesca"
	"github.com/intrust-sim/intrust/internal/attack/physical"
	"github.com/intrust-sim/intrust/internal/attack/transient"
	"github.com/intrust-sim/intrust/internal/attest"
	"github.com/intrust-sim/intrust/internal/cache"
	"github.com/intrust-sim/intrust/internal/core"
	"github.com/intrust-sim/intrust/internal/cpu"
	"github.com/intrust-sim/intrust/internal/engine"
	"github.com/intrust-sim/intrust/internal/platform"
	"github.com/intrust-sim/intrust/internal/power"
	"github.com/intrust-sim/intrust/internal/softcrypto"
	"github.com/intrust-sim/intrust/internal/stats"
)

// ---------------------------------------------------------------------
// Engine benchmarks: the same experiment cross-product at different
// worker-pool sizes. ns/op at parallel-1 over ns/op at parallel-8 is the
// realized wall-clock speedup — >= 2x expected on a multi-core machine,
// since the sweep jobs are independent and CPU-bound. The serial/wall
// metric (summed per-job durations over end-to-end wall clock) reports
// the same ratio per run; note that on a single-core machine ns/op stays
// flat and serial/wall only measures scheduling overlap, not speedup.
// ---------------------------------------------------------------------

// reportSweepMetrics attaches the cross-PR tracking metrics to a sweep
// benchmark: throughput in grid cells per second and the mean realized
// sample cost per cell (adaptive SamplesUsed where cells carry a
// sampling decision, the nominal budget otherwise; n/a and one-shot
// cells have no sample dimension and count zero samples but do count as
// cells).
func reportSweepMetrics(b *testing.B, results []engine.Result) {
	b.Helper()
	cells := len(results)
	b.ReportMetric(float64(cells), "grid-cells")
	b.ReportMetric(float64(cells)*float64(b.N)/b.Elapsed().Seconds(), "cells/sec")
	s := engine.Summarize(results, 0)
	b.ReportMetric(float64(s.TotalSamples)/float64(cells), "samples/cell")
}

// BenchmarkSweep runs the full scenario-registry × architecture grid
// (every registered scenario against all eight architectures) on the
// default pool under the default adaptive sampling policy — the CI smoke
// for the sweep, and the headline cells/sec + samples/cell metrics.
func BenchmarkSweep(b *testing.B) {
	exps, err := core.SweepExperimentsWith(nil, nil, nil, core.SweepOptions{Samples: 64, Adaptive: &stats.Policy{}})
	if err != nil {
		b.Fatal(err)
	}
	eng := engine.New(0)
	var results []engine.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err = eng.Run(context.Background(), exps)
		if err != nil {
			b.Fatal(err)
		}
		if len(results) < 100 {
			b.Fatalf("sweep covered %d cells, want >= 100", len(results))
		}
	}
	reportSweepMetrics(b, results)
}

// BenchmarkSweepDefenseAxis runs the full grid with the defense axis
// engaged (undefended baseline + the paper's stock wiring) in both
// sampling modes — the CI smoke for the 3-D sweep, and the benchmark
// that tracks the adaptive engine's sample saving: at the default
// confidence the adaptive run must burn at most half the fixed-budget
// samples on the same cells while reproducing every verdict.
func BenchmarkSweepDefenseAxis(b *testing.B) {
	for _, mode := range []struct {
		name string
		opt  core.SweepOptions
	}{
		{"fixed", core.SweepOptions{Samples: 64}},
		{"adaptive", core.SweepOptions{Samples: 64, Adaptive: &stats.Policy{}}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			exps, err := core.SweepExperimentsWith(nil, nil, []string{"none", "stock"}, mode.opt)
			if err != nil {
				b.Fatal(err)
			}
			eng := engine.New(0)
			var results []engine.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results, err = eng.Run(context.Background(), exps)
				if err != nil {
					b.Fatal(err)
				}
				if len(results) != len(exps) {
					b.Fatalf("sweep covered %d cells, want %d", len(results), len(exps))
				}
			}
			reportSweepMetrics(b, results)
			if mode.opt.Adaptive != nil {
				// The acceptance bar: >= 2x fewer samples than the same
				// cells cost under fixed budgets (one-shot cells, which
				// have no sample dimension, are excluded on both sides).
				s := engine.Summarize(results, 0)
				if s.TotalSamples == 0 || s.FixedSamples == 0 {
					b.Fatal("adaptive run carries no sampling decisions")
				}
				saving := float64(s.FixedSamples) / float64(s.TotalSamples)
				b.ReportMetric(saving, "sample-saving-x")
				if saving < 2 {
					b.Fatalf("adaptive sampling saved only %.2fx samples (%d vs %d fixed), want >= 2x",
						saving, s.TotalSamples, s.FixedSamples)
				}
			}
		})
	}
}

// BenchmarkEngineSweep runs the full attack×architecture cross-product
// through the engine at fixed pool sizes.
func BenchmarkEngineSweep(b *testing.B) {
	for _, par := range []int{1, 2, 8} {
		b.Run("parallel-"+itoa(par), func(b *testing.B) {
			exps, err := core.SweepExperiments(nil, nil, nil, 96)
			if err != nil {
				b.Fatal(err)
			}
			eng := engine.New(par)
			var serial, wall int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				results, err := eng.Run(context.Background(), exps)
				wall += time.Since(start).Nanoseconds()
				if err != nil {
					b.Fatal(err)
				}
				for j := range results {
					serial += results[j].DurationNS
				}
			}
			if wall > 0 {
				b.ReportMetric(float64(serial)/float64(wall), "serial/wall-speedup")
			}
		})
	}
}

// BenchmarkEngineCacheSCASweep fans the sweep's cachesca column (one
// Prime+Probe experiment per architecture) out at pool sizes 1 and 8 —
// a homogeneous-workload speedup comparison to complement the mixed
// full-sweep benchmark above.
func BenchmarkEngineCacheSCASweep(b *testing.B) {
	for _, par := range []int{1, 8} {
		b.Run("parallel-"+itoa(par), func(b *testing.B) {
			exps, err := core.SweepExperiments(nil, []string{"cachesca"}, nil, 200)
			if err != nil {
				b.Fatal(err)
			}
			eng := engine.New(par)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(context.Background(), exps); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// One benchmark per paper artifact: each regenerates the figure/table and
// reports the headline shape metrics alongside wall-clock cost.
// ---------------------------------------------------------------------

// BenchmarkFig1AdversaryMatrix regenerates Figure 1.
func BenchmarkFig1AdversaryMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := core.Figure1(true)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(f.PerfMIPS[0]/f.PerfMIPS[2], "server/embedded-perf-ratio")
		b.ReportMetric(f.BudgetW[0]/f.BudgetW[2], "server/embedded-budget-ratio")
	}
}

// BenchmarkTab2ArchitectureMatrix probes all eight architectures.
func BenchmarkTab2ArchitectureMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := core.Table2Architectures()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(t.Rows)), "architectures")
	}
}

// BenchmarkTab3CacheSCA regenerates the cache side-channel matrix.
func BenchmarkTab3CacheSCA(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := core.Table3CacheSCA(200)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(t.Rows)), "attack-defense-pairs")
	}
}

// BenchmarkTab4Transient regenerates the transient-execution matrix.
func BenchmarkTab4Transient(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := core.Table4Transient(6)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(t.Rows)), "attack-config-pairs")
	}
}

// BenchmarkTab5Physical regenerates the physical-attack matrix.
func BenchmarkTab5Physical(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := core.Table5Physical(true)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(t.Rows)), "attack-countermeasure-pairs")
	}
}

// ---------------------------------------------------------------------
// Ablation benches for the design choices called out in DESIGN.md §5.
// ---------------------------------------------------------------------

// BenchmarkAblationSpecWindow sweeps the transient window size and reports
// Spectre v1 extraction success — the speculation-depth/vulnerability
// trade-off.
func BenchmarkAblationSpecWindow(b *testing.B) {
	secret := []byte("WINDOWED")
	for _, w := range []int{0, 4, 16, 64} {
		b.Run(map[bool]string{true: "w", false: "w"}[true]+itoa(w), func(b *testing.B) {
			feat := cpu.HighEndFeatures()
			feat.SpecWindow = w
			if w == 0 {
				feat.Speculation = false
			}
			extracted := 0
			for i := 0; i < b.N; i++ {
				res, err := transient.SpectreV1(feat, secret, false)
				if err != nil {
					b.Fatal(err)
				}
				extracted = res.Correct
			}
			b.ReportMetric(float64(extracted), "bytes-extracted")
		})
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblationLLCDefense compares the three LLC defenses under the
// same Prime+Probe workload.
func BenchmarkAblationLLCDefense(b *testing.B) {
	key := []byte("ablation aes key")
	for _, cfg := range []struct {
		name  string
		setup func(p *platform.Platform)
	}{
		{"none", func(p *platform.Platform) {}},
		{"partition", func(p *platform.Platform) {
			p.LLC.SetPartition(5, 0x00ff)
			p.LLC.SetPartition(9, 0xff00)
		}},
		{"randomized", func(p *platform.Platform) { p.LLC.SetRandomizedIndex(5, 0xdecafbad) }},
		{"exclusion", func(p *platform.Platform) {
			p.Core(0).Hier.Cacheability = func(addr uint32) cache.Level {
				if addr >= 0x40000 && addr < 0x42000 {
					return cache.LevelL1
				}
				return cache.LevelAll
			}
		}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			nibbles := 0
			for i := 0; i < b.N; i++ {
				p := platform.NewServer()
				cfg.setup(p)
				v, err := cachesca.NewVictim(p.Core(0).Hier, key, 5, 0x40000)
				if err != nil {
					b.Fatal(err)
				}
				res := cachesca.PrimeProbe(v, p.LLC, 200, 9, rand.New(rand.NewSource(1)))
				nibbles = res.NibblesCorrect
			}
			b.ReportMetric(float64(nibbles), "key-nibbles-leaked")
		})
	}
}

// BenchmarkAblationMaskingNoise sweeps the noise floor and reports CPA
// key bytes for unmasked vs masked AES at a fixed trace budget.
func BenchmarkAblationMaskingNoise(b *testing.B) {
	key := []byte("masking noise ky")
	for _, sigma := range []float64{0.4, 0.8, 1.6} {
		for _, masked := range []bool{false, true} {
			name := "plain"
			if masked {
				name = "masked"
			}
			b.Run(name+"-sigma"+ftoa(sigma), func(b *testing.B) {
				bytesGot := 0
				for i := 0; i < b.N; i++ {
					var v physical.AESVictim
					var err error
					if masked {
						v, err = physical.NewMaskedAESVictim(key, 9)
					} else {
						v, err = physical.NewUnprotectedAES(key)
					}
					if err != nil {
						b.Fatal(err)
					}
					a := power.NewArena(16)
					physical.ExtendArena(a, v, power.PowerProbe(sigma, 5), 256, rand.New(rand.NewSource(2)))
					bytesGot = physical.CorrectBytes(physical.CPAKeyArena(a), key)
				}
				b.ReportMetric(float64(bytesGot), "key-bytes-recovered")
			})
		}
	}
}

func ftoa(f float64) string {
	return itoa(int(f)) + "p" + itoa(int(f*10)%10)
}

// BenchmarkAblationFlushCost measures the context-switch cost of the
// flush-on-switch policy (Sanctum/Sanctuary) vs leaving caches warm
// (TrustZone): the defense's performance price.
func BenchmarkAblationFlushCost(b *testing.B) {
	for _, flush := range []bool{false, true} {
		name := "no-flush"
		if flush {
			name = "flush-on-switch"
		}
		b.Run(name, func(b *testing.B) {
			p := platform.NewServer()
			h := p.Core(0).Hier
			// Working set of 64 lines re-touched after each "switch".
			var total uint64
			for i := 0; i < b.N; i++ {
				if flush {
					h.FlushL1()
				}
				for a := uint32(0); a < 64*64; a += 64 {
					r := h.Data(0x50000+a, false, 1)
					total += uint64(r.Latency)
				}
			}
			b.ReportMetric(float64(total)/float64(b.N), "cycles-per-switch")
		})
	}
}

// BenchmarkAblationMEECost measures the memory-latency price of SGX's
// memory encryption vs Sanctum's plaintext DRAM.
func BenchmarkAblationMEECost(b *testing.B) {
	build := func(withMEE bool) *platform.Platform {
		p := platform.NewServer()
		if withMEE {
			// Attach an MEE over the measured range.
			if _, err := NewSGX(p); err != nil {
				b.Fatal(err)
			}
		}
		return p
	}
	for _, mee := range []bool{false, true} {
		name := "plain-dram"
		addr := uint32(0x40000)
		if mee {
			name = "mee-protected"
			addr = 0x1000000 + 0x40000 // inside the EPC
		}
		b.Run(name, func(b *testing.B) {
			p := build(mee)
			h := p.Core(0).Hier
			var total uint64
			for i := 0; i < b.N; i++ {
				h.FlushAddr(addr)
				r := h.Data(addr, false, 1)
				total += uint64(r.Latency)
			}
			b.ReportMetric(float64(total)/float64(b.N), "cycles-per-cold-access")
		})
	}
}

// BenchmarkSpectreLeakRate reports the covert-channel bandwidth of the
// full in-ISA Spectre v1 pipeline (train, mistrain, transient leak, timed
// probe) in secret bytes per wall-clock second of simulation.
func BenchmarkSpectreLeakRate(b *testing.B) {
	secret := []byte("0123456789ABCDEF")
	total := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := transient.SpectreV1(cpu.HighEndFeatures(), secret, false)
		if err != nil {
			b.Fatal(err)
		}
		total += res.Correct
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "secret-bytes/s")
}

// BenchmarkForeshadowExtraction measures the per-byte cost of the SGX
// attestation-key extraction (EWB/ELD preload + terminal fault + probe).
// Like the foreshadow scenario, it releases each server's DRAM backing
// once the result is in hand, so the next iteration reuses it.
func BenchmarkForeshadowExtraction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := NewSGX(platform.NewServer())
		if err != nil {
			b.Fatal(err)
		}
		res, err := transient.ForeshadowSGX(s, 8, false)
		s.Platform().Mem.Release()
		if err != nil {
			b.Fatal(err)
		}
		if res.Correct != 8 {
			b.Fatalf("extraction degraded: %d/8", res.Correct)
		}
	}
}

// ---------------------------------------------------------------------
// Microbenchmarks of the substrates.
// ---------------------------------------------------------------------

func BenchmarkCacheAccess(b *testing.B) {
	c := cache.New(cache.Config{Name: "bench", Sets: 512, Ways: 8, LineSize: 64, HitLatency: 4})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint32(i*64), false, 0)
	}
}

func BenchmarkCPUSimulation(b *testing.B) {
	p := platform.NewServer()
	prog := MustAssemble(`
        li   t0, 0
        li   t1, 1000
loop:   addi t0, t0, 1
        bne  t0, t1, loop
        hlt
`)
	if err := p.Mem.LoadProgram(prog); err != nil {
		b.Fatal(err)
	}
	c := p.Core(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Reset(prog.Entry)
		if _, err := c.Run(10_000); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(c.Instret)/float64(b.N), "instructions-per-run")
}

func BenchmarkAESVariants(b *testing.B) {
	key := []byte("benchmark aes ky")
	pt := make([]byte, 16)
	rk := softcrypto.MustExpandKey(key)
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			softcrypto.Encrypt(&rk, pt, nil)
		}
	})
	b.Run("ttable", func(b *testing.B) {
		ta, _ := softcrypto.NewTableAES(key)
		for i := 0; i < b.N; i++ {
			ta.Encrypt(pt)
		}
	})
	b.Run("masked", func(b *testing.B) {
		ma, _ := softcrypto.NewMaskedAES(key, 1)
		for i := 0; i < b.N; i++ {
			ma.Encrypt(pt)
		}
	})
	b.Run("constant-time", func(b *testing.B) {
		ct, _ := softcrypto.NewCTAES(key)
		for i := 0; i < b.N; i++ {
			ct.Encrypt(pt)
		}
	})
}

// BenchmarkCPACorrelation times one key byte of the production CPA
// kernel (all 256 guesses through the arena) at 128 traces.
func BenchmarkCPACorrelation(b *testing.B) {
	key := []byte("correlation key!")
	v, _ := physical.NewUnprotectedAES(key)
	a := power.NewArena(16)
	physical.ExtendArena(a, v, power.PowerProbe(0.8, 1), 128, rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		physical.CPAByteArena(a, 0)
	}
}

func BenchmarkAttestationReport(b *testing.B) {
	keyBytes := []byte("attestation key material 32B....")
	m := attest.Measure([]byte("code"))
	b.Run("hmac-report", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := attest.NewReport(keyBytes, m, []byte("nonce"), nil)
			if !attest.VerifyReport(keyBytes, r) {
				b.Fatal("verify failed")
			}
		}
	})
	b.Run("quote", func(b *testing.B) {
		qk := attest.NewQuotingKey(attest.DeriveKey([32]byte{}, "bench/quoting"))
		r := attest.NewReport(keyBytes, m, []byte("nonce"), nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !attest.VerifyQuote(qk.Public(), qk.Sign(r)) {
				b.Fatal("verify failed")
			}
		}
	})
}

func BenchmarkEnclaveCall(b *testing.B) {
	p := platform.NewServer()
	s, err := NewSGX(p)
	if err != nil {
		b.Fatal(err)
	}
	e, err := s.CreateEnclave(EnclaveConfig{
		Name: "bench", Program: MustAssemble(".org 0\nhlt"), DataSize: 4096,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Call(); err != nil {
			b.Fatal(err)
		}
	}
}
