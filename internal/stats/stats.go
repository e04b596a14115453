// Package stats is the adaptive sequential-sampling verdict engine: it
// decides whether a sweep cell is broken or mitigated from sequential
// measurements instead of one fixed sample budget, and it states how much
// the decision cost and how confident it is.
//
// Two cooperating pieces:
//
//   - Plan schedules ONE cumulative measurement pass: a geometric ladder
//     of checkpoint budgets (reference/8, reference/4, ... reference) at
//     which the scenario regrades its cumulative statistic, stopping the
//     moment a checkpoint shows a full recovery. Because the pass extends
//     one sample set, no samples are wasted re-establishing a statistic a
//     smaller batch already built.
//
//   - Test folds pass outcomes into an asymmetric SPRT (Wald's sequential
//     probability ratio test) and decides when the cell may settle. The
//     asymmetry mirrors the measurement physics of the attack
//     simulations: a "broken" observation means the attack actually
//     recovered the secret — faking a 14/16-nibble key recovery from
//     noise is cryptographically negligible — so a single success at any
//     budget carries near-decisive evidence. A "mitigated" observation
//     is weaker: below the reference budget the attack may simply be
//     sample-starved (Evict+Time needs ~2048 timings before a genuinely
//     broken cell stops looking mitigated), so failures are discounted in
//     proportion to their budget and a cell is only called mitigated once
//     failure evidence includes the full reference budget.
//
// Hard cells — those the first pass cannot settle to the requested
// confidence — escalate: the Test demands further independent full-budget
// passes (each under a fresh derived seed) until the likelihood ratio
// separates or the per-cell sample cap is reached. Everything is
// deterministic: schedules and stopping points are functions of the
// policy, the reference budget and the per-job seed alone, never of
// engine parallelism.
package stats

import (
	"context"
	"fmt"
	"math"
)

// Verdict classes, shared by convention with internal/scenario's
// broken/mitigated grading (stats stays dependency-free, so the strings
// are declared here rather than imported).
const (
	// ClassBroken marks cells where the attack recovers the secret.
	ClassBroken = "broken"
	// ClassMitigated marks cells where the configuration stops it.
	ClassMitigated = "mitigated"
)

// Defaults for the zero-value Policy fields.
const (
	// DefaultConfidence is the target probability that a decided cell's
	// class is correct under the test's error model.
	DefaultConfidence = 0.9
	// DefaultFalsePositive is the modeled per-pass probability that a
	// genuinely mitigated cell fakes a full secret recovery — set well
	// above the cryptographic reality so reported confidences stay
	// conservative.
	DefaultFalsePositive = 1e-3
	// DefaultFalseNegative is the modeled probability that a genuinely
	// broken cell fails a pass at the full reference budget (noise
	// starving the statistic despite enough samples).
	DefaultFalseNegative = 0.1
	// DefaultMinBatch is the smallest checkpoint budget a schedule
	// issues; below it the graded statistics (bit channels, key-nibble
	// votes) are too short to mean anything.
	DefaultMinBatch = 32
	// DefaultEscalation bounds a hard cell's cost: the per-cell sample
	// cap defaults to DefaultEscalation × the reference budget.
	DefaultEscalation = 4
)

// Policy configures the sequential test. The zero value selects the
// defaults above.
type Policy struct {
	// Confidence is the target P(decided class is correct), e.g. 0.9.
	// Higher confidence demands more corroborating passes before a cell
	// settles. Values outside (0,1) select DefaultConfidence.
	Confidence float64
	// FalsePositive is the per-pass probability of a spurious full
	// recovery on a mitigated cell (0 selects DefaultFalsePositive).
	FalsePositive float64
	// FalseNegative is the per-pass probability of a failure on a
	// broken cell at the full reference budget (0 selects
	// DefaultFalseNegative). Sub-reference checkpoints interpolate
	// toward certainty-of-failure, which is what discounts their
	// evidence.
	FalseNegative float64
	// MinBatch is the smallest checkpoint budget a schedule issues
	// (0 selects DefaultMinBatch).
	MinBatch int
	// MaxSamples caps the total samples one cell may burn before the
	// test settles on the best available answer. 0 selects
	// DefaultEscalation × the cell's reference budget; values below the
	// reference budget are raised to it, so every cell can always
	// afford at least one full-budget pass.
	MaxSamples int
}

// Norm returns the policy with zero fields replaced by the defaults and
// out-of-range fields clamped; all decision math runs on the normalized
// form.
func (p Policy) Norm() Policy {
	if p.Confidence <= 0 || p.Confidence >= 1 {
		p.Confidence = DefaultConfidence
	}
	if p.Confidence < 0.5 {
		p.Confidence = 0.5
	}
	if p.FalsePositive <= 0 || p.FalsePositive >= 1 {
		p.FalsePositive = DefaultFalsePositive
	}
	if p.FalseNegative <= 0 || p.FalseNegative >= 1 {
		p.FalseNegative = DefaultFalseNegative
	}
	if p.MinBatch <= 0 {
		p.MinBatch = DefaultMinBatch
	}
	return p
}

// threshold is the symmetric SPRT boundary ln(c/(1-c)): with equal
// priors, crossing it means the posterior probability of the leading
// hypothesis is at least c.
func (p Policy) threshold() float64 {
	return math.Log(p.Confidence / (1 - p.Confidence))
}

// Decision is the settled verdict of one cell's sequential test — the
// per-cell fields the sweep surfaces in tables, diffs and JSON reports.
type Decision struct {
	// Class is ClassBroken or ClassMitigated.
	Class string `json:"class"`
	// Confidence is the posterior probability of Class under the test's
	// error model and equal priors, in [0.5, 1).
	Confidence float64 `json:"confidence"`
	// SamplesUsed is the total sample budget the cell actually burned
	// across all passes (0 for one-shot cells, whose measurement has no
	// sample dimension).
	SamplesUsed int `json:"samples_used"`
	// Reference is what the cell costs under the fixed-budget engine —
	// the requested samples raised to the scenario's floor (0 for
	// one-shot cells). SamplesUsed versus Reference is the adaptive
	// engine's realized saving on this cell.
	Reference int `json:"reference,omitempty"`
	// Passes is the number of measurement passes mounted (one-shot
	// cells always report 1).
	Passes int `json:"passes"`
	// StoppedEarly reports that the cell settled for less than the
	// fixed-budget reference cost.
	StoppedEarly bool `json:"stopped_early,omitempty"`
	// Escalated reports that pass disagreement pushed the cell past the
	// reference cost (a hard cell).
	Escalated bool `json:"escalated,omitempty"`
	// Decided reports whether the likelihood ratio actually crossed the
	// confidence threshold; false means the cell hit MaxSamples and
	// Class is the best available answer (the last full-budget pass).
	Decided bool `json:"decided"`
}

// String renders the decision compactly for notes and logs, e.g.
// "broken p>=0.995 (512/2048 samples, 1 pass, early)".
func (d Decision) String() string {
	s := fmt.Sprintf("%s p>=%.3f (%d/%d samples, %d pass", d.Class, d.Confidence, d.SamplesUsed, d.Reference, d.Passes)
	if d.Passes != 1 {
		s += "es"
	}
	switch {
	case d.StoppedEarly:
		s += ", early"
	case d.Escalated:
		s += ", escalated"
	}
	return s + ")"
}

// Plan schedules one cumulative measurement pass: a ladder of checkpoint
// budgets ending exactly at the reference budget. The measuring scenario
// drives it through Walk:
//
//	plan.Walk(func(n int) bool {
//		// extend the cumulative sample set to n samples
//		return fullRecovery
//	})
//
// A step reporting true stops the pass — the attack has its secret; more samples
// cannot un-recover it. Sub-reference checkpoints must grade
// conservatively (only a full recovery counts), because a weak partial
// signal at a starved budget is expected even on cells a defense holds.
type Plan struct {
	targets   []int
	i         int
	used      int
	graded    int
	broken    bool
	stopped   bool
	ctx       context.Context
	cancelled bool
}

// NewPlan builds the checkpoint ladder for one pass: geometric doubling
// from max(MinBatch, reference/8) to exactly reference.
func NewPlan(p Policy, reference int) *Plan {
	if reference < 1 {
		reference = 1
	}
	p = p.Norm()
	var targets []int
	for b := reference / 8; b < reference; b *= 2 {
		if b < p.MinBatch {
			b = p.MinBatch
		}
		// Stop the ramp once a rung lands within 7/8 of the reference:
		// regrading a near-full sample set and then the full one would
		// run the expensive analysis twice for a few extra samples.
		if 8*b >= 7*reference {
			break
		}
		if len(targets) > 0 && b <= targets[len(targets)-1] {
			continue
		}
		targets = append(targets, b)
	}
	return &Plan{targets: append(targets, reference)}
}

// Bind attaches a cancellation signal to the plan: once ctx is done,
// Next refuses to issue further checkpoints and the plan reports
// Cancelled. This is the SPRT ladder's cooperative-cancellation seam —
// a scenario driving a bound plan stops extending its sample set
// within one checkpoint of the context dying (a disconnected HTTP
// client, a compute deadline), without the scenario knowing anything
// about contexts. Bind returns the plan for call chaining; a nil ctx
// leaves the plan unbound.
func (pl *Plan) Bind(ctx context.Context) *Plan {
	pl.ctx = ctx
	return pl
}

// Cancelled reports whether the bound context died before the pass
// finished — the caller must discard the pass's outcome (it measured a
// truncated sample set) and surface the context's error instead.
func (pl *Plan) Cancelled() bool { return pl.cancelled }

// Next returns the next cumulative sample count to grade at, or false
// when the pass is over (stopped on a recovery, the ladder is done, or
// the bound context was cancelled).
func (pl *Plan) Next() (int, bool) {
	if pl.ctx != nil && pl.ctx.Err() != nil {
		pl.cancelled = true
		return 0, false
	}
	if pl.stopped || pl.i >= len(pl.targets) {
		return 0, false
	}
	return pl.targets[pl.i], true
}

// Grade records the verdict at the checkpoint Next last issued: broken
// means the cumulative statistic showed a full recovery, which stops the
// pass.
func (pl *Plan) Grade(broken bool) {
	if pl.stopped || pl.i >= len(pl.targets) {
		return
	}
	pl.used = pl.targets[pl.i]
	pl.i++
	pl.graded++
	if broken {
		pl.broken = true
		pl.stopped = true
	}
}

// Walk drives the pass: step extends the cumulative sample set to n
// samples and reports whether the statistic shows a full recovery, and
// Walk grades that checkpoint, until the plan stops (recovery, ladder
// done, or a cancelled bound context).
func (pl *Plan) Walk(step func(n int) (broken bool)) {
	for {
		n, ok := pl.Next()
		if !ok {
			return
		}
		pl.Grade(step(n))
	}
}

// Used returns the samples the pass consumed (the largest checkpoint
// graded so far).
func (pl *Plan) Used() int { return pl.used }

// Broken reports whether the pass stopped on a full recovery.
func (pl *Plan) Broken() bool { return pl.broken }

// Grades returns the number of checkpoints graded.
func (pl *Plan) Grades() int { return pl.graded }

// Reference returns the pass's full budget (the ladder's last rung).
func (pl *Plan) Reference() int { return pl.targets[len(pl.targets)-1] }

// Test folds pass observations into the sequential probability ratio and
// decides when a cell may settle. Drive it one pass at a time:
//
//	t := stats.NewTest(policy, reference)
//	for t.NeedMore() {
//		broken, used := mountPass(t.Passes()) // Plan-driven or re-mount
//		t.Observe(broken, used)
//	}
//	dec := t.Conclude()
//
// A Test is not safe for concurrent use; every cell owns its own.
type Test struct {
	policy   Policy
	ref      int
	llr      float64
	used     int
	passes   int
	lastFull string // class of the last pass graded at the full budget
	last     string
	decided  bool
	class    string
}

// NewTest builds the test for one cell. reference is the cell's
// fixed-budget cost (the requested samples raised to the scenario's
// floor) — the budget at which a single pass is fully informative.
func NewTest(p Policy, reference int) *Test {
	if reference < 1 {
		reference = 1
	}
	p = p.Norm()
	if p.MinBatch > reference {
		p.MinBatch = reference
	}
	if p.MaxSamples <= 0 {
		p.MaxSamples = DefaultEscalation * reference
	} else if p.MaxSamples < reference {
		// An explicit cap below the reference budget is raised to it —
		// never silently multiplied — so a verdict can still rest on one
		// full-budget pass.
		p.MaxSamples = reference
	}
	return &Test{policy: p, ref: reference}
}

// Policy returns the normalized policy the test runs under.
func (t *Test) Policy() Policy { return t.policy }

// Reference returns the cell's fixed-budget reference cost.
func (t *Test) Reference() int { return t.ref }

// Passes returns how many passes have been observed (the next pass's
// batch index for seed derivation).
func (t *Test) Passes() int { return t.passes }

// SamplesUsed returns the total budget burned so far.
func (t *Test) SamplesUsed() int { return t.used }

// NeedMore reports whether the cell needs another measurement pass:
// true until the likelihood ratio crosses the confidence threshold or
// another full-budget pass would exceed the sample cap — the cap is a
// hard ceiling, so a pass that might not fit is never started.
func (t *Test) NeedMore() bool {
	return !t.decided && t.used+t.ref <= t.policy.MaxSamples
}

// Observe folds one pass into the likelihood ratio: broken reports the
// pass's graded class, used the samples it consumed (its stopping
// checkpoint; clamped to the reference budget).
func (t *Test) Observe(broken bool, used int) {
	if t.decided {
		return
	}
	if used < 1 {
		used = 1
	}
	if used > t.ref {
		used = t.ref
	}
	t.passes++
	t.used += used
	// A sub-reference pass fails on a broken cell far more often than a
	// full-budget one: interpolate the false-negative rate linearly in
	// the budget fraction, from near-certain failure at zero budget to
	// the policy's FalseNegative at the reference budget.
	frac := float64(used) / float64(t.ref)
	fn := 1 - (1-t.policy.FalseNegative)*frac
	fp := t.policy.FalsePositive
	if broken {
		t.last = ClassBroken
		t.llr += math.Log((1 - fn) / fp)
	} else {
		t.last = ClassMitigated
		t.llr += math.Log(fn / (1 - fp))
	}
	if used == t.ref {
		t.lastFull = t.last
	}
	thr := t.policy.threshold()
	switch {
	case t.llr >= thr:
		t.decided, t.class = true, ClassBroken
	case t.llr <= -thr && t.lastFull == ClassMitigated:
		// A mitigated verdict additionally requires full-budget
		// evidence: sub-reference failures alone may only mean sample
		// starvation, however many accumulate.
		t.decided, t.class = true, ClassMitigated
	}
}

// Conclude settles the test and returns the Decision. If the likelihood
// ratio never crossed the threshold before the sample cap, the class is
// the last full-budget pass's verdict (the same measurement the fixed
// engine would have trusted outright) with the sub-threshold confidence
// the evidence actually supports.
func (t *Test) Conclude() Decision {
	d := Decision{
		SamplesUsed: t.used,
		Reference:   t.ref,
		Passes:      t.passes,
		Decided:     t.decided,
	}
	switch {
	case t.decided:
		d.Class = t.class
	case t.lastFull != "":
		d.Class = t.lastFull
	default:
		d.Class = t.last
	}
	d.Confidence = llrConfidence(t.llr, d.Class)
	d.StoppedEarly = t.used < t.ref
	d.Escalated = t.used > t.ref
	return d
}

// OneShot builds the Decision for a cell whose scenario does not consume
// the sample budget at all (fault attacks, transient extraction): one
// mount settles it, with the confidence a single fully-informative pass
// supports under the policy's error model, and no sample cost on either
// side of the adaptive/fixed comparison.
func OneShot(p Policy, broken bool) Decision {
	p = p.Norm()
	llr := math.Log((1 - p.FalseNegative) / p.FalsePositive)
	class := ClassBroken
	if !broken {
		class = ClassMitigated
		llr = -math.Log((1 - p.FalsePositive) / p.FalseNegative)
	}
	return Decision{
		Class:      class,
		Confidence: llrConfidence(llr, class),
		Passes:     1,
		Decided:    true,
	}
}

// llrConfidence converts a signed log-likelihood ratio (positive favors
// broken) into the posterior probability of class under equal priors,
// floored at 0.5 — a class the evidence leans against is never reported
// with above-even confidence.
func llrConfidence(llr float64, class string) float64 {
	if class == ClassMitigated {
		llr = -llr
	}
	c := 1 / (1 + math.Exp(-llr))
	if c < 0.5 {
		c = 0.5
	}
	return c
}
