package stats

import (
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// driveCell runs the Plan/Test loop against a synthetic cell whose
// per-checkpoint recovery behavior is given by recovered: a function
// from cumulative budget to whether the attack has its secret at that
// budget. It mirrors the sweep's adaptive driver, with the cell's
// "noise" drawn from rng so repeated passes can disagree.
func driveCell(p Policy, reference int, rng *rand.Rand, recovered func(budget int, rng *rand.Rand) bool) Decision {
	t := NewTest(p, reference)
	for t.NeedMore() {
		plan := NewPlan(t.Policy(), reference)
		broken := false
		plan.Walk(func(n int) bool {
			broken = recovered(n, rng)
			return broken
		})
		t.Observe(broken, plan.Used())
	}
	return t.Conclude()
}

func TestPlanLadder(t *testing.T) {
	for _, tc := range []struct {
		ref  int
		want []int
	}{
		{2048, []int{256, 512, 1024, 2048}},
		// 1496 would be the next doubling, but a rung within 7/8 of the
		// reference is skipped: regrading at 1496 and again at 1500
		// would run the analysis twice for four extra samples.
		{1500, []int{187, 374, 748, 1500}},
		{600, []int{75, 150, 300, 600}},
		{256, []int{32, 64, 128, 256}},
		{64, []int{32, 64}},
		{48, []int{32, 48}},
		{32, []int{32}},
		{8, []int{8}},
		{1, []int{1}},
	} {
		plan := NewPlan(Policy{}, tc.ref)
		var got []int
		for {
			n, ok := plan.Next()
			if !ok {
				break
			}
			got = append(got, n)
			plan.Grade(false)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ladder(%d) = %v, want %v", tc.ref, got, tc.want)
		}
		if plan.Used() != tc.ref {
			t.Errorf("ladder(%d): full pass used %d", tc.ref, plan.Used())
		}
		if plan.Broken() {
			t.Errorf("ladder(%d): all-failure pass reports broken", tc.ref)
		}
	}
}

// TestPlanWalk pins Walk's contract: each step sees the next
// checkpoint, its result is the grade, and a recovery ends the walk.
func TestPlanWalk(t *testing.T) {
	plan := NewPlan(Policy{}, 2048)
	var seen []int
	plan.Walk(func(n int) bool {
		seen = append(seen, n)
		return n == 512
	})
	if !reflect.DeepEqual(seen, []int{256, 512}) {
		t.Fatalf("walk visited %v, want [256 512]", seen)
	}
	if !plan.Broken() || plan.Used() != 512 || plan.Grades() != 2 {
		t.Errorf("walked pass: broken=%v used=%d grades=%d", plan.Broken(), plan.Used(), plan.Grades())
	}
}

func TestPlanStopsOnRecovery(t *testing.T) {
	plan := NewPlan(Policy{}, 2048)
	n, ok := plan.Next()
	if !ok || n != 256 {
		t.Fatalf("first checkpoint = %d, %v", n, ok)
	}
	plan.Grade(false)
	if n, _ = plan.Next(); n != 512 {
		t.Fatalf("second checkpoint = %d", n)
	}
	plan.Grade(true)
	if _, ok = plan.Next(); ok {
		t.Error("plan continued past a recovery")
	}
	if !plan.Broken() || plan.Used() != 512 || plan.Grades() != 2 {
		t.Errorf("stopped pass: broken=%v used=%d grades=%d", plan.Broken(), plan.Used(), plan.Grades())
	}
}

// TestClearCells pins the engine's bread-and-butter behavior: a cell
// that recovers at a quarter of the reference budget settles broken for
// a fraction of the fixed cost; a cell that never recovers settles
// mitigated at exactly the fixed cost (the full pass the fixed engine
// would have run) at the default confidence.
func TestClearCells(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := driveCell(Policy{}, 2048, rng, func(b int, _ *rand.Rand) bool { return b >= 512 })
	if d.Class != ClassBroken || !d.Decided || !d.StoppedEarly {
		t.Errorf("broken cell: %+v", d)
	}
	if d.SamplesUsed != 512 {
		t.Errorf("broken cell used %d samples, want 512", d.SamplesUsed)
	}
	if d.Confidence < 0.9 {
		t.Errorf("broken cell confidence %.3f < 0.9", d.Confidence)
	}

	d = driveCell(Policy{}, 2048, rng, func(int, *rand.Rand) bool { return false })
	if d.Class != ClassMitigated || !d.Decided || d.StoppedEarly || d.Escalated {
		t.Errorf("mitigated cell: %+v", d)
	}
	if d.SamplesUsed != 2048 {
		t.Errorf("mitigated cell used %d samples, want exactly the reference 2048", d.SamplesUsed)
	}
}

// TestHighConfidenceEscalates: at a 0.99 target a single full-budget
// failure is not enough evidence for mitigated — the test demands a
// second independent pass.
func TestHighConfidenceEscalates(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := driveCell(Policy{Confidence: 0.99}, 600, rng, func(int, *rand.Rand) bool { return false })
	if d.Class != ClassMitigated || !d.Decided {
		t.Fatalf("mitigated cell at 0.99: %+v", d)
	}
	if d.Passes < 2 || !d.Escalated || d.SamplesUsed != 2*600 {
		t.Errorf("0.99 mitigated cell should need two full passes: %+v", d)
	}
	if d.Confidence < 0.99 {
		t.Errorf("decided at 0.99 but confidence %.4f", d.Confidence)
	}
}

// TestSampleCap: a cell whose passes keep disagreeing stops at the
// sample cap with Decided=false and the last full-budget class.
func TestSampleCap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	flip := false
	d := driveCell(Policy{Confidence: 0.9999, FalsePositive: 0.3, FalseNegative: 0.3, MaxSamples: 4 * 64}, 64, rng,
		func(b int, _ *rand.Rand) bool {
			if b == 64 {
				flip = !flip
				return flip
			}
			return false
		})
	if d.Decided {
		t.Fatalf("oscillating cell decided: %+v", d)
	}
	if d.SamplesUsed < 4*64 || !d.Escalated {
		t.Errorf("oscillating cell should exhaust the cap: %+v", d)
	}
	if d.Class != ClassBroken && d.Class != ClassMitigated {
		t.Errorf("capped cell has no class: %+v", d)
	}
	if d.Confidence >= 0.9999 {
		t.Errorf("capped cell reports target confidence %.5f despite indecision", d.Confidence)
	}
}

// TestErrorBounds measures realized error rates on synthetic Bernoulli
// cells near the policy's own error model: broken cells that fail a
// full-budget pass with probability FalseNegative, mitigated cells that
// fake a recovery with probability FalsePositive. The realized
// wrong-verdict rate over many independent cells must stay within the
// 1-Confidence bound (with slack for simulation noise).
func TestErrorBounds(t *testing.T) {
	const cells = 2000
	pol := Policy{Confidence: 0.9}
	norm := pol.Norm()
	rng := rand.New(rand.NewSource(42))

	wrongBroken := 0
	for i := 0; i < cells; i++ {
		// A genuinely broken cell: recovery appears at half the
		// reference budget, except a FalseNegative fraction of passes
		// where noise starves the whole pass.
		starved := rng.Float64() < norm.FalseNegative
		d := driveCell(pol, 256, rng, func(b int, r *rand.Rand) bool {
			return b >= 128 && !starved
		})
		if d.Decided && d.Class != ClassBroken {
			wrongBroken++
		}
	}
	// Decided-wrong rate must respect the confidence bound.
	if limit := int(float64(cells) * (1 - norm.Confidence) * 1.5); wrongBroken > limit {
		t.Errorf("broken cells misclassified %d/%d times, want <= %d", wrongBroken, cells, limit)
	}

	wrongMitigated := 0
	for i := 0; i < cells; i++ {
		// A genuinely mitigated cell: each checkpoint has an (unrealistically
		// high, for stress) FalsePositive chance of faking a recovery.
		d := driveCell(pol, 256, rng, func(b int, r *rand.Rand) bool {
			return r.Float64() < norm.FalsePositive
		})
		if d.Decided && d.Class != ClassMitigated {
			wrongMitigated++
		}
	}
	if limit := int(float64(cells)*(1-norm.Confidence)*1.5) + 1; wrongMitigated > limit {
		t.Errorf("mitigated cells misclassified %d/%d times, want <= %d", wrongMitigated, cells, limit)
	}
}

// TestSeedStableStopping pins determinism: the same seed must produce
// the same stopping point and decision no matter how many times (or how
// concurrently) the cell is measured — the property that keeps sweep
// results independent of -parallel.
func TestSeedStableStopping(t *testing.T) {
	measure := func(seed int64) Decision {
		rng := rand.New(rand.NewSource(seed))
		return driveCell(Policy{}, 512, rng, func(b int, r *rand.Rand) bool {
			return r.Float64() < float64(b)/512*0.7
		})
	}
	for seed := int64(0); seed < 20; seed++ {
		want := measure(seed)
		for rep := 0; rep < 3; rep++ {
			if got := measure(seed); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: decision varies across reruns: %+v vs %+v", seed, got, want)
			}
		}
	}
}

// TestConcurrentCells runs many independent cells concurrently (the
// engine's worker-pool shape) and checks decisions match the serial
// outcome — combined with -race this is the data-race pass over the
// stats layer.
func TestConcurrentCells(t *testing.T) {
	const cells = 64
	serial := make([]Decision, cells)
	for i := range serial {
		serial[i] = cellDecision(int64(i))
	}
	conc := make([]Decision, cells)
	var wg sync.WaitGroup
	for i := 0; i < cells; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conc[i] = cellDecision(int64(i))
		}(i)
	}
	wg.Wait()
	for i := range serial {
		if !reflect.DeepEqual(serial[i], conc[i]) {
			t.Errorf("cell %d: concurrent decision %+v != serial %+v", i, conc[i], serial[i])
		}
	}
}

func cellDecision(seed int64) Decision {
	rng := rand.New(rand.NewSource(seed))
	return driveCell(Policy{Confidence: 0.95}, 256, rng, func(b int, r *rand.Rand) bool {
		return r.Float64() < float64(b)/256*float64(seed%3)/2
	})
}

func TestOneShot(t *testing.T) {
	d := OneShot(Policy{}, true)
	if d.Class != ClassBroken || !d.Decided || d.SamplesUsed != 0 || d.Reference != 0 || d.Passes != 1 {
		t.Errorf("one-shot broken: %+v", d)
	}
	if d.Confidence < 0.99 {
		t.Errorf("one-shot broken confidence %.3f: a full recovery is near-decisive", d.Confidence)
	}
	d = OneShot(Policy{}, false)
	if d.Class != ClassMitigated || d.Confidence < 0.9 {
		t.Errorf("one-shot mitigated: %+v", d)
	}
	if d.StoppedEarly || d.Escalated {
		t.Errorf("one-shot cells have no sample dimension to stop early or escalate on: %+v", d)
	}
}

func TestPolicyNorm(t *testing.T) {
	p := Policy{}.Norm()
	if p.Confidence != DefaultConfidence || p.MinBatch != DefaultMinBatch ||
		p.FalsePositive != DefaultFalsePositive || p.FalseNegative != DefaultFalseNegative {
		t.Errorf("zero policy normalized to %+v", p)
	}
	if p := (Policy{Confidence: 1.2}).Norm(); p.Confidence != DefaultConfidence {
		t.Errorf("out-of-range confidence normalized to %v", p.Confidence)
	}
	if p := (Policy{Confidence: 0.2}).Norm(); p.Confidence != 0.5 {
		t.Errorf("sub-even confidence clamped to %v, want 0.5", p.Confidence)
	}
	// The cap can never forbid the one full-budget pass a verdict needs.
	tt := NewTest(Policy{MaxSamples: 10}, 600)
	if !tt.NeedMore() {
		t.Fatal("fresh test needs no pass")
	}
	tt.Observe(false, 600)
	if d := tt.Conclude(); d.Class != ClassMitigated {
		t.Errorf("tiny-cap cell: %+v", d)
	}
}

// TestExplicitCapSemantics pins the MaxSamples contract: an explicit
// sub-reference cap is raised to the reference (never multiplied into
// the 4x default), and the cap is a hard ceiling — a pass that might
// overshoot it is never started.
func TestExplicitCapSemantics(t *testing.T) {
	if got := NewTest(Policy{MaxSamples: 100}, 600).Policy().MaxSamples; got != 600 {
		t.Errorf("explicit 100-sample cap normalized to %d, want the 600 reference", got)
	}
	if got := NewTest(Policy{}, 600).Policy().MaxSamples; got != DefaultEscalation*600 {
		t.Errorf("unset cap normalized to %d, want %d", got, DefaultEscalation*600)
	}
	tt := NewTest(Policy{Confidence: 0.9999, MaxSamples: 650}, 600)
	tt.Observe(false, 600) // one full pass: far from the 0.9999 threshold
	if tt.NeedMore() {
		t.Error("a second 600-sample pass would bust the 650-sample cap")
	}
	if d := tt.Conclude(); d.SamplesUsed > 650 {
		t.Errorf("burned %d samples past the 650 cap", d.SamplesUsed)
	}
}

func TestDecisionString(t *testing.T) {
	d := Decision{Class: ClassBroken, Confidence: 0.995, SamplesUsed: 512, Reference: 2048, Passes: 1, StoppedEarly: true, Decided: true}
	s := d.String()
	for _, want := range []string{"broken", "512/2048", "1 pass", "early"} {
		if !strings.Contains(s, want) {
			t.Errorf("Decision.String() = %q, missing %q", s, want)
		}
	}
}
