package core

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"github.com/intrust-sim/intrust/internal/axis"
	"github.com/intrust-sim/intrust/internal/engine"
	"github.com/intrust-sim/intrust/internal/scenario"
	"github.com/intrust-sim/intrust/internal/stats"
)

func adaptiveResults(t *testing.T, parallel int, opt SweepOptions, axes ...[]string) []engine.Result {
	t.Helper()
	var archs, attacks, defenses []string
	if len(axes) > 0 {
		archs = axes[0]
	}
	if len(axes) > 1 {
		attacks = axes[1]
	}
	if len(axes) > 2 {
		defenses = axes[2]
	}
	exps, err := SweepExperimentsWith(archs, attacks, defenses, opt)
	if err != nil {
		t.Fatal(err)
	}
	results, err := engine.New(parallel).Run(context.Background(), exps)
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// TestAdaptiveDeterministicAcrossParallelism pins the seeding contract
// under adaptive sampling: stopping points, sample costs and
// measurements are functions of the per-job seed alone, so the adaptive
// grid is byte-identical at -parallel 1 and -parallel 8.
func TestAdaptiveDeterministicAcrossParallelism(t *testing.T) {
	opt := SweepOptions{Samples: 48, Adaptive: &stats.Policy{}}
	axes := [][]string{nil, {"cachesca", "kocher-timing", "dpa", "spectre-v1"}, {"none", "stock", "ct-aes"}}
	serial := adaptiveResults(t, 1, opt, axes...)
	parallel := adaptiveResults(t, 8, opt, axes...)
	if !reflect.DeepEqual(stripTiming(serial), stripTiming(parallel)) {
		t.Error("adaptive sweep results differ between -parallel 1 and -parallel 8")
	}
}

// TestAdaptiveMatchesFixedVerdicts replays a mixed slice of the grid —
// sequential, one-shot, floored and mitigated cells — in both sampling
// modes and checks per-cell class agreement plus the full-pass identity:
// a cell whose sequential pass drains the whole checkpoint ladder has
// measured exactly the fixed-budget statistic, bit for bit.
func TestAdaptiveMatchesFixedVerdicts(t *testing.T) {
	axes := [][]string{
		{"sgx", "sanctum", "trustzone", "sancus"},
		{"flush+reload", "prime+probe", "tlb-channel", "kocher-timing", "cpa", "spectre-v1", "bellcore"},
		{"none", "stock", "ct-aes", "masked-aes"},
	}
	fixed := adaptiveResults(t, 2, SweepOptions{Samples: 64}, axes...)
	adaptive := adaptiveResults(t, 2, SweepOptions{Samples: 64, Adaptive: &stats.Policy{}}, axes...)
	if len(fixed) != len(adaptive) {
		t.Fatalf("grid sizes differ: %d fixed vs %d adaptive", len(fixed), len(adaptive))
	}
	for i := range fixed {
		f, a := &fixed[i], &adaptive[i]
		if f.Name != a.Name {
			t.Fatalf("cell order diverged: %s vs %s", f.Name, a.Name)
		}
		if fc, ac := scenario.VerdictClass(f.Verdict), scenario.VerdictClass(a.Verdict); fc != ac {
			t.Errorf("%s: fixed class %q, adaptive class %q", f.Name, fc, ac)
		}
		if f.Verdict == "n/a" {
			if a.Sampling != nil {
				t.Errorf("%s: n/a cell carries a sampling decision", a.Name)
			}
			continue
		}
		if a.Sampling == nil {
			t.Errorf("%s: applicable adaptive cell carries no sampling decision", a.Name)
			continue
		}
		// Full-pass identity: an undefeated sequential cell that used its
		// whole reference budget in one pass measured what fixed measured.
		d := a.Sampling
		if d.Reference > 0 && d.SamplesUsed == d.Reference && d.Passes == 1 &&
			!reflect.DeepEqual(f.Rows, a.Rows) {
			t.Errorf("%s: full-budget adaptive pass measured %v, fixed measured %v", a.Name, a.Rows, f.Rows)
		}
		if d.Confidence < 0.5 || d.Confidence >= 1 {
			t.Errorf("%s: confidence %v out of range", a.Name, d.Confidence)
		}
		if d.SamplesUsed > stats.DefaultEscalation*d.Reference {
			t.Errorf("%s: burned %d samples past the %dx cap", a.Name, d.SamplesUsed, stats.DefaultEscalation)
		}
	}
}

// TestAdaptiveOneShotScenarios pins the one-shot path: budget-independent
// scenarios settle in one mount with no sample dimension, and their
// measurement matches the fixed engine exactly (same seed, same mount).
func TestAdaptiveOneShotScenarios(t *testing.T) {
	axes := [][]string{{"sgx"}, {"transient", "dfa-piret-quisquater", "bellcore"}, {"none"}}
	fixed := adaptiveResults(t, 1, SweepOptions{Samples: 32}, axes...)
	adaptive := adaptiveResults(t, 1, SweepOptions{Samples: 32, Adaptive: &stats.Policy{}}, axes...)
	for i := range adaptive {
		a := &adaptive[i]
		if a.Verdict == "n/a" {
			continue
		}
		d := a.Sampling
		if d == nil {
			t.Fatalf("%s: no sampling decision", a.Name)
		}
		if d.SamplesUsed != 0 || d.Reference != 0 || d.Passes != 1 || !d.Decided {
			t.Errorf("%s: one-shot decision %+v", a.Name, d)
		}
		if !reflect.DeepEqual(fixed[i].Rows, a.Rows) {
			t.Errorf("%s: one-shot adaptive mount measured %v, fixed measured %v", a.Name, a.Rows, fixed[i].Rows)
		}
	}
}

// TestAdaptiveRunOnlySpecMountsOnce pins the two-kind sampling model:
// a Spec with only Run set is one-shot, so the adaptive engine settles
// it in exactly one mount with no sample dimension, never re-mounting it
// in full-budget passes.
func TestAdaptiveRunOnlySpecMountsOnce(t *testing.T) {
	mounts := 0
	sc := &scenario.Spec{
		ID: "run-only", In: axis.FamilyPhysical,
		Run: func(env *scenario.Env) (scenario.Outcome, error) {
			mounts++
			return scenario.Outcome{Rows: scenario.Cell("run-only", env.Arch, "-", "blocked"), Verdict: "blocked"}, nil
		},
	}
	sels, err := expandDefenses([]string{"none"})
	if err != nil {
		t.Fatal(err)
	}
	exp := sweepExperiment(sc, "sgx", sels[0], SweepOptions{Samples: 64, Adaptive: &stats.Policy{Confidence: 0.99}})
	results, err := engine.New(1).Run(context.Background(), []engine.Experiment{exp})
	if err != nil {
		t.Fatal(err)
	}
	if mounts != 1 {
		t.Errorf("run-only Spec mounted %d times, want 1", mounts)
	}
	d := results[0].Sampling
	if d == nil || d.Passes != 1 || d.Reference != 0 {
		t.Errorf("run-only Spec decision %+v, want Passes 1, Reference 0", d)
	}
}

// TestAdaptiveSavesSamples pins the cost claim on a floored slice of the
// grid: the broken DPA/Kocher/CPA cells must settle for well under the
// fixed budget at the default confidence.
func TestAdaptiveSavesSamples(t *testing.T) {
	axes := [][]string{{"sgx", "trustzone"}, {"dpa", "kocher-timing", "cpa"}, {"none"}}
	results := adaptiveResults(t, 2, SweepOptions{Samples: 64, Adaptive: &stats.Policy{}}, axes...)
	s := engine.Summarize(results, 0)
	if s.TotalSamples == 0 || s.FixedSamples == 0 {
		t.Fatal("no sampling decisions")
	}
	if ratio := float64(s.FixedSamples) / float64(s.TotalSamples); ratio < 2 {
		t.Errorf("floored broken cells saved only %.2fx (%d vs %d fixed), want >= 2x",
			ratio, s.TotalSamples, s.FixedSamples)
	}
	if s.EarlyStopped != len(results) {
		t.Errorf("%d/%d broken cells stopped early", s.EarlyStopped, len(results))
	}
}

// TestAdaptiveSweepTableAndJSON checks the surfacing: sample costs and
// confidences reach the rendered table, the diff and the JSON report,
// and survive a round-trip.
func TestAdaptiveSweepTableAndJSON(t *testing.T) {
	axes := [][]string{{"sgx"}, {"flush+reload", "spectre-v1"}, {"none", "way-partition"}}
	results := adaptiveResults(t, 2, SweepOptions{Samples: 64, Adaptive: &stats.Policy{}}, axes...)

	rendered := SweepTable(results).String()
	for _, want := range []string{"samples", "conf", "/64", "1-shot", "adaptive sampling:", "cells early"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("sweep table missing %q:\n%s", want, rendered)
		}
	}

	dt, err := SweepDiff(results)
	if err != nil {
		t.Fatal(err)
	}
	drendered := dt.String()
	if !strings.Contains(drendered, "conf") || !strings.Contains(drendered, "adaptive sampling:") {
		t.Errorf("sweep diff missing confidence surfacing:\n%s", drendered)
	}

	var buf bytes.Buffer
	if err := engine.NewReport("intrust sweep", 2, results, 0).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.String()
	for _, want := range []string{`"sampling"`, `"confidence"`, `"samples_used"`, `"total_samples"`, `"fixed_samples"`, `"early_stopped"`} {
		if !strings.Contains(raw, want) {
			t.Errorf("JSON report missing %s", want)
		}
	}
	rep, err := engine.ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i := range rep.Results {
		if d := rep.Results[i].Sampling; d != nil && d.Reference == 64 {
			found = true
			if d.Class != stats.ClassBroken && d.Class != stats.ClassMitigated {
				t.Errorf("%s: round-tripped class %q", rep.Results[i].Name, d.Class)
			}
		}
	}
	if !found {
		t.Error("no sampling decision survived the JSON round-trip")
	}
	if rep.Summary.TotalSamples == 0 {
		t.Error("summary sample totals lost in round-trip")
	}
}

// TestAdaptiveFixedModeUnchanged guards the compatibility contract: the
// four-argument SweepExperiments stays the fixed-budget engine, byte-
// compatible with what PR 3 shipped — no sampling decisions, no cost
// columns beyond the nominal budget.
func TestAdaptiveFixedModeUnchanged(t *testing.T) {
	exps, err := SweepExperiments([]string{"sgx"}, []string{"flush+reload"}, []string{"none"}, 48)
	if err != nil {
		t.Fatal(err)
	}
	results, err := engine.New(1).Run(context.Background(), exps)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Sampling != nil {
		t.Error("fixed-budget sweep attached a sampling decision")
	}
	if !strings.Contains(results[0].Rows[0][2], "48 samples") {
		t.Errorf("fixed cell measured %v, want the nominal 48-sample budget", results[0].Rows[0])
	}
}
