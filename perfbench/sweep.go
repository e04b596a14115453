package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/intrust-sim/intrust/internal/core"
	"github.com/intrust-sim/intrust/internal/engine"
	"github.com/intrust-sim/intrust/internal/scenario"
	"github.com/intrust-sim/intrust/internal/stats"
)

// goldenPath is the checked-in class table both sweep slices are
// subsets of; the benchmark only reads it.
const goldenPath = "internal/core/testdata/golden_grid.tsv"

// sweepSpec is one batch-sweep workload: a grid slice, a sampling mode
// and an engine width. Inputs are fixed (base seed 0), so every pass of
// every run measures the same cells.
type sweepSpec struct {
	attacks  []string // nil: every registered scenario
	defenses []string
	adaptive bool
	parallel int
	nominal  time.Duration // typical pass time on a 2-core machine
}

var (
	sweepAdaptive = sweepSpec{
		defenses: []string{"masked-aes", "way-partition", "spec-barrier", "quote-freshness"},
		adaptive: true,
		parallel: 2,
		nominal:  7 * time.Second,
	}
	sweepFixed = sweepSpec{
		attacks:  []string{"cachesca", "transient", "attestation"},
		defenses: []string{"ct-aes", "flush-on-switch", "btb-flush", "measurement-lock"},
		parallel: 1,
		nominal:  4500 * time.Millisecond,
	}
)

// sweepSamples is the requested per-cell budget, the golden grid's.
const sweepSamples = 96

func (spec sweepSpec) experiments() ([]engine.Experiment, error) {
	opt := core.SweepOptions{Samples: sweepSamples}
	if spec.adaptive {
		opt.Adaptive = &stats.Policy{}
	}
	return core.SweepExperimentsWith(nil, spec.attacks, spec.defenses, opt)
}

// loadGolden reads the golden grid as "scenario\tarch\tdefense" -> class.
func loadGolden() (map[string]string, error) {
	f, err := os.Open(goldenPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g := make(map[string]string, 2048)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		cell, class, ok := cutLast(sc.Text(), "\t")
		if !ok {
			return nil, fmt.Errorf("%s: malformed line %q", goldenPath, sc.Text())
		}
		g[cell] = class
	}
	return g, sc.Err()
}

func cutLast(s, sep string) (before, after string, ok bool) {
	if i := strings.LastIndex(s, sep); i >= 0 {
		return s[:i], s[i+len(sep):], true
	}
	return s, "", false
}

// cellCoords splits a sweep experiment name
// "sweep/<family>/<scenario>/<arch>/<defense>" into the golden grid's
// "scenario\tarch\tdefense" key and the scenario name.
func cellCoords(name string) (key, scen string) {
	p := strings.Split(name, "/")
	if len(p) != 5 {
		return name, name
	}
	return p[2] + "\t" + p[3] + "\t" + p[4], p[2]
}

// sweepCounts are the exact counts one pass must repeat bit-for-bit.
func sweepCounts(results []engine.Result) map[string]int64 {
	s := engine.Summarize(results, 0)
	c := map[string]int64{
		"cells":           int64(len(results)),
		"failed":          int64(s.Failed),
		"total_samples":   s.TotalSamples,
		"early_stopped":   int64(s.EarlyStopped),
		"escalated":       int64(s.Escalated),
		"na_cells":        0,
		"decided_cells":   0,
		"sampling_passes": 0,
	}
	for i := range results {
		if results[i].Verdict == "n/a" {
			c["na_cells"]++
		}
		if d := results[i].Sampling; d != nil {
			c["decided_cells"]++
			c["sampling_passes"] += int64(d.Passes)
		}
	}
	return c
}

func runSweep(r *runCtx, spec sweepSpec) error {
	var golden map[string]string
	var exps []engine.Experiment
	setup, err := repeatSetup(25, func() error {
		var err error
		if golden, err = loadGolden(); err != nil {
			return err
		}
		exps, err = spec.experiments()
		return err
	})
	if err != nil {
		return err
	}
	r.E2E["setup_s"] = setup

	// The traced run wraps every Run closure in a scenario span whose
	// parent is the pass's engine span. passSpan is written before each
	// Engine.Run starts its workers and only read by them.
	var passSpan int32
	if r.tr != nil {
		for i := range exps {
			run, fam := exps[i].Run, exps[i].Attack
			_, scen := cellCoords(exps[i].Name)
			exps[i].Run = func(ctx *engine.Ctx) (engine.Outcome, error) {
				start := time.Now()
				out, err := run(ctx)
				r.tr.record(passSpan, "scenario", scen, fam, start, time.Since(start))
				return out, err
			}
		}
	}

	eng := engine.New(spec.parallel)
	var ivs []interval
	var passes []float64
	var counts map[string]int64
	for n := r.passes(spec.nominal, 1); len(ivs) < n; {
		settle()
		passSpan = r.tr.open(0, "engine", "Engine.Run", "")
		a := snapshot()
		results, _ := eng.Run(context.Background(), exps) // failures are counted per cell below
		b := snapshot()
		r.tr.close(passSpan)
		iv := between(a, b, len(results))
		ivs = append(ivs, iv)
		passes = append(passes, durMS(iv.wall))

		r.Attempted += int64(len(results))
		for i := range results {
			res := &results[i]
			key, _ := cellCoords(res.Name)
			class := "error"
			if !res.Failed() {
				if class = scenario.VerdictClass(res.Verdict); class == "" {
					class = "unknown"
				}
			}
			if want, ok := golden[key]; !ok || want != class {
				r.failOp("cell %q: class %s, golden %q", key, class, want)
			}
		}
		c := sweepCounts(results)
		if counts == nil {
			counts = c
		} else if diff := diffCounts(counts, c); diff != "" {
			r.problem("pass %d counts differ from pass 0: %s", len(ivs)-1, diff)
		}
	}
	r.Counts = counts

	costMetrics(ivs, r.E2E)
	r.E2E["samples_per_cell"] = float64(counts["total_samples"]) / float64(counts["cells"])
	r.batchLatency(passes)

	cells := float64(counts["cells"])
	r.Layers["stats.early_stop_share"] = float64(counts["early_stopped"]) / cells
	r.Layers["stats.escalated_share"] = float64(counts["escalated"]) / cells
	if n := counts["decided_cells"]; n > 0 {
		r.Layers["stats.passes_per_cell"] = float64(counts["sampling_passes"]) / float64(n)
	}
	if r.tr != nil {
		sweepLayers(r.tr, spec.parallel, r.Layers)
	}
	return nil
}

// sweepLayers derives the engine and scenario metrics from the pass and
// job spans of a traced sweep.
func sweepLayers(tr *tracer, workers int, m map[string]float64) {
	var util, straggler []float64
	famMS, famN := map[string]float64{}, map[string]float64{}
	scenMS, scenN := map[string]float64{}, map[string]float64{}
	var allMS float64
	for _, pass := range tr.spans {
		if pass.Layer != "engine" {
			continue
		}
		var busy, lastStart int64
		for _, job := range tr.children(pass.ID) {
			busy += job.Dur
			lastStart = max(lastStart, job.Start)
			ms := float64(job.Dur) / 1e6
			famMS[job.Tag] += ms
			famN[job.Tag]++
			scenMS[job.Name] += ms
			scenN[job.Name]++
			allMS += ms
		}
		util = append(util, float64(busy)/(float64(pass.Dur)*float64(workers)))
		straggler = append(straggler, float64(pass.end()-lastStart)/1e6)
	}
	m["engine.util"] = median(util)
	m["engine.straggler_ms"] = median(straggler)
	for _, f := range scenario.FamilyOrder {
		if famN[f] > 0 {
			m["family."+f+".ms_per_cell"] = famMS[f] / famN[f]
			m["family."+f+".share"] = famMS[f] / allMS
		}
	}
	for _, s := range []string{"dpa", "cpa"} {
		if scenN[s] > 0 {
			m["scenario."+s+".ms_per_cell"] = scenMS[s] / scenN[s]
		}
	}
}

// diffCounts describes where two exact-count sets disagree ("" if none).
func diffCounts(want, got map[string]int64) string {
	var d []string
	for k, w := range want {
		if g, ok := got[k]; ok && g != w {
			d = append(d, fmt.Sprintf("%s %d != %d", k, g, w))
		}
	}
	sort.Strings(d)
	return strings.Join(d, ", ")
}
