package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"github.com/intrust-sim/intrust/internal/attack/physical"
	"github.com/intrust-sim/intrust/internal/attack/transient"
	"github.com/intrust-sim/intrust/internal/core"
	"github.com/intrust-sim/intrust/internal/cpu"
	"github.com/intrust-sim/intrust/internal/diskcache"
	"github.com/intrust-sim/intrust/internal/perf"
	"github.com/intrust-sim/intrust/internal/platform"
	"github.com/intrust-sim/intrust/internal/power"
	"github.com/intrust-sim/intrust/internal/stats"
)

// probeLayers times standalone calls into the substrate layers, the
// same fixed calls in every traced run whatever the workload, so the
// kernel, cache, disk and key-resolution costs are on record next to
// each workload's own spans. Each call is one span.
func probeLayers(r *runCtx) error {
	root := r.tr.open(0, "perfbench", "layer probes", "")
	defer r.tr.close(root)
	if err := probePhysical(r, root); err != nil {
		return err
	}
	probeCache(r, root)
	if err := probeSpectre(r, root); err != nil {
		return err
	}
	if err := probeDiskcache(r, root); err != nil {
		return err
	}
	return probeResolve(r, root)
}

// timed runs f as one span and returns its duration.
func timed(r *runCtx, parent int32, layer, name, tag string, f func()) time.Duration {
	start := time.Now()
	f()
	d := time.Since(start)
	r.tr.record(parent, layer, name, tag, start, d)
	return d
}

// probePhysical times trace capture and the DPA and CPA kernels at the
// sweep's reference budget (96 traces) and at the adaptive escalation
// cap, on fresh captures so each kernel call also builds its class sums
// as a sweep checkpoint does.
func probePhysical(r *runCtx, parent int32) error {
	key := []byte("sixteen byte key")
	for _, c := range []struct {
		tag string
		n   int
	}{{"n96", sweepSamples}, {"cap", stats.DefaultEscalation * sweepSamples}} {
		v, err := physical.NewUnprotectedAES(key)
		if err != nil {
			return err
		}
		probe := power.PowerProbe(0.8, 7)
		rng := rand.New(rand.NewSource(5))
		a := power.NewArena(16)
		var capUS, dpaMS, cpaMS []float64
		for rep := 0; rep < 3; rep++ {
			d := timed(r, parent, "attack/physical", "ExtendArena", c.tag, func() {
				a.Reset()
				physical.ExtendArena(a, v, probe, c.n, rng)
			})
			capUS = append(capUS, float64(d)/1e3/float64(c.n))
			var dpaKey, cpaKey [16]byte
			d = timed(r, parent, "attack/physical", "DPAByteArena", c.tag, func() {
				for b := range dpaKey {
					dpaKey[b], _ = physical.DPAByteArena(a, b)
				}
			})
			dpaMS = append(dpaMS, durMS(d)/16)
			d = timed(r, parent, "attack/physical", "CPAByteArena", c.tag, func() {
				for b := range cpaKey {
					cpaKey[b], _ = physical.CPAByteArena(a, b)
				}
			})
			cpaMS = append(cpaMS, durMS(d)/16)
			if got := physical.CorrectBytes(cpaKey, key); got != 16 {
				r.problem("CPA probe recovered %d/16 key bytes at %d traces", got, c.n)
			}
		}
		r.Layers["physical.capture_us_per_trace."+c.tag] = median(capUS)
		r.Layers["physical.dpa_ms_per_byte."+c.tag] = median(dpaMS)
		r.Layers["physical.cpa_ms_per_byte."+c.tag] = median(cpaMS)
	}
	return nil
}

// probeCache times server-platform hierarchy accesses over a mixed
// hit/miss/write pattern, and records the allocation count per access.
func probeCache(r *runCtx, parent int32) {
	h := platform.NewServer().Core(0).Hier
	const lines, rounds = 512, 64
	access := func() {
		for i := 0; i < lines; i++ {
			h.Data(uint32(i)*64, i%8 == 0, i%3)
		}
		for i := 0; i < lines; i += 8 {
			h.FlushAddr(uint32(i) * 64)
		}
	}
	access()
	var ns []float64
	for i := 0; i < rounds; i++ {
		d := timed(r, parent, "cache", "Hierarchy.Data", "", access)
		ns = append(ns, float64(d)/float64(lines))
	}
	r.Layers["cache.access_ns"] = median(ns)
	r.Layers["cache.allocs_per_access"] = perf.AllocsPerAccess()
}

// probeSpectre times the Spectre-v1 gadget on the high-end core and
// checks that it extracts the whole secret.
func probeSpectre(r *runCtx, parent int32) error {
	secret := []byte("secret")
	var ms []float64
	for i := 0; i < 5; i++ {
		var res transient.Result
		var err error
		d := timed(r, parent, "attack/transient", "SpectreV1", "", func() {
			res, err = transient.SpectreV1(cpu.HighEndFeatures(), secret, false)
		})
		if err != nil {
			return err
		}
		if res.Correct != len(secret) {
			r.problem("Spectre-v1 probe extracted %d/%d bytes", res.Correct, len(secret))
		}
		ms = append(ms, durMS(d))
	}
	r.Layers["transient.spectre_v1_ms"] = median(ms)
	return nil
}

// probeDiskcache times Store.Put (one fsync'd envelope each) and
// Store.Get on a scratch store, checking every read returns its body.
func probeDiskcache(r *runCtx, parent int32) error {
	dir, err := os.MkdirTemp(tmpRoot(), "diskcache-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := diskcache.Open(dir, "perfbench")
	if err != nil {
		return err
	}
	const n = 32
	body := bytes.Repeat([]byte("x"), 1024)
	var putMS, getUS []float64
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("probe|%d", i)
		var perr error
		d := timed(r, parent, "diskcache", "Store.Put", "", func() { perr = st.Put(addr, body) })
		if perr != nil {
			return perr
		}
		putMS = append(putMS, durMS(d))
	}
	for rep := 0; rep < 8; rep++ {
		for i := 0; i < n; i++ {
			addr := fmt.Sprintf("probe|%d", i)
			var got []byte
			var ok bool
			d := timed(r, parent, "diskcache", "Store.Get", "", func() { got, ok = st.Get(addr) })
			if !ok || !bytes.Equal(got, body) {
				r.problem("diskcache probe: %s did not read back its body", addr)
			}
			getUS = append(getUS, float64(d)/1e3)
		}
	}
	r.Layers["diskcache.put_ms"] = median(putMS)
	r.Layers["diskcache.get_us"] = median(getUS)
	return nil
}

// probeResolve times core.ResolveCell — the key canonicalization every
// /cell request pays, hit or miss — over the warm grid's coordinates.
func probeResolve(r *runCtx, parent int32) error {
	coords, err := warmCoords()
	if err != nil {
		return err
	}
	var us []float64
	for rep := 0; rep < 10; rep++ {
		var rerr error
		d := timed(r, parent, "core", "ResolveCell", "", func() {
			for _, c := range coords {
				if _, err := core.ResolveCell(c.Scenario, c.Arch, c.Defense, cellOpts(0)); err != nil {
					rerr = err
				}
			}
		})
		if rerr != nil {
			return rerr
		}
		us = append(us, float64(d)/1e3/float64(len(coords)))
	}
	r.Layers["core.resolve_us"] = median(us)
	return nil
}

// tmpRoot is where the benchmark's scratch stores live: inside the
// build directory, never the system temp directory.
func tmpRoot() string {
	dir := filepath.Join(buildDir(), "tmp")
	_ = os.MkdirAll(dir, 0o755) // MkdirTemp reports a missing root
	return dir
}
