// Package scenario is the attack axis of the efficacy grid: every attack
// variant the simulator can mount — the Section 4.1 cache side channels,
// the Section 4.2 transient-execution attacks, the Section 5 classical
// physical attacks and the §3 attestation-lifecycle attacks — is one
// Spec record in a process-wide catalog.
//
// A Spec mounts from a uniform typed Env (architecture, platform class,
// CPU features, victim constructors, per-job RNG, sample budget),
// declares which architectures it applies to — with the paper's reason
// when it does not — and self-registers at init time, so internal/core's
// sweep enumerates the full registry × architecture grid without knowing
// any attack by name.
//
// The catalog files (cachesca.go, transient.go, physical.go,
// attestation.go) wrap the attack implementations in internal/attack/*;
// adding a new attack is one Spec literal in one of them.
package scenario

import (
	"errors"
	"fmt"

	"github.com/intrust-sim/intrust/internal/axis"
	"github.com/intrust-sim/intrust/internal/engine"
	"github.com/intrust-sim/intrust/internal/platform"
	"github.com/intrust-sim/intrust/internal/stats"
)

// FamilyOrder lists the scenario families in the paper's section order;
// the sweep's family axis and registry enumeration both follow it.
var FamilyOrder = axis.FamilyOrder

// Outcome is what a mounted scenario measured. It is the engine's outcome
// type: scenarios feed the experiment scheduler directly, so the table
// rows, metrics, verdict and detail carry through to the text tables and
// the JSON report unchanged.
type Outcome = engine.Outcome

// Spec is one attack variant as a schedulable record, wrapping exactly
// one mount function: Run for a one-shot scenario, RunSeq for a
// sequential one. Every catalog entry is a Spec.
type Spec struct {
	// ID is the unique scenario name (e.g. "flush+reload", "clkscrew").
	ID string
	// In is the scenario's family (one of the axis.Family* keys).
	In string
	// Section is the paper section reproduced (e.g. "4.1").
	Section string
	// Summary is a one-line description for the catalog listing.
	Summary string
	// Floor is the minimum meaningful sample budget (0 = any); the sweep
	// raises a cell's budget to it, so the reported Samples field states
	// what the job actually ran. Adaptive sampling treats it as the
	// reference budget: mitigated verdicts from batches below it are
	// discounted as possible sample starvation.
	Floor int
	// Applies decides per-architecture applicability, with the paper's
	// reason when the scenario cannot be mounted (e.g. "no shared caches
	// on the embedded platform"); nil means every known architecture.
	Applies func(arch string) (bool, string)
	// Run mounts a one-shot attack, whose measurement does not consume
	// the sample budget at all — fault attacks needing a handful of
	// faulty ciphertexts, transient extraction running to completion
	// regardless of Samples — so the adaptive engine settles it with a
	// single mount. Set Run or RunSeq, never both.
	Run func(env *Env) (Outcome, error)
	// RunSeq runs ONE cumulative sequential-sampling pass: it extends a
	// single sample set to each checkpoint the plan issues and grades
	// the statistic there. Sub-reference checkpoints must grade
	// conservatively — only a full secret recovery counts, never a
	// partial signal — because a starved budget is expected to look
	// mitigated even on broken cells. A pass that drains the plan
	// without a recovery has measured exactly what the fixed-budget
	// engine measures (same seed, same sample count, same statistic:
	// the fixed budget is a one-rung plan); one that stops early has
	// already recovered the secret, which more samples cannot undo.
	//
	// Both mount functions must draw all randomness from env.RNG /
	// env.Seed so results are deterministic under any engine
	// parallelism.
	RunSeq func(env *Env, plan *stats.Plan) (Outcome, error)
}

// Name returns the scenario's registry name.
func (s *Spec) Name() string { return s.ID }

// Family returns the scenario's family.
func (s *Spec) Family() string { return s.In }

// Applicable reports whether the scenario can be meaningfully mounted
// against the given architecture, and why not when it cannot. Unknown
// architectures are never applicable.
func (s *Spec) Applicable(arch string) (bool, string) {
	if _, ok := platform.ArchClass(arch); !ok {
		return false, fmt.Sprintf("unknown architecture %q", arch)
	}
	if s.Applies == nil {
		return true, ""
	}
	return s.Applies(arch)
}

// Mount runs the attack at the fixed budget env.Samples. A sequential
// Spec measures as one pass under a one-rung plan: the ladder's only
// checkpoint is env.Samples.
func (s *Spec) Mount(env *Env) (Outcome, error) {
	switch {
	case s.RunSeq != nil:
		return s.RunSeq(env, stats.NewPlan(stats.Policy{MinBatch: env.Samples}, env.Samples))
	case s.Run != nil:
		return s.Run(env)
	}
	return Outcome{}, fmt.Errorf("scenario %s has no mount function", s.ID)
}

// NewRegistry returns an empty scenario registry. Besides the shared
// registry rules, a Spec must set exactly one of Run (one-shot) and
// RunSeq (sequential).
func NewRegistry() *axis.Registry[*Spec] {
	return axis.New("scenario", func(s *Spec) error {
		if (s.Run == nil) == (s.RunSeq == nil) {
			return errors.New("set exactly one of Run (one-shot) and RunSeq (sequential)")
		}
		return nil
	})
}

// Default is the process-wide registry the catalog files self-register
// into and the sweep enumerates.
var Default = NewRegistry()

// Verdict classes of the 3-D sweep: every cell's scenario-specific
// verdict string normalizes to broken (the attack still recovers the
// secret), mitigated (it no longer does) or n/a (the attack or the
// defense has no substrate on the architecture, with the paper's reason).
const (
	// ClassBroken marks cells where the attack succeeds despite the
	// cell's defense configuration.
	ClassBroken = "broken"
	// ClassMitigated marks cells where the configuration stops the
	// attack.
	ClassMitigated = "mitigated"
	// ClassNA marks cells with no substrate for the attack or defense.
	ClassNA = "n/a"
)

// VerdictClass normalizes a scenario verdict to the sweep's three-valued
// broken/mitigated/n-a grading. A partial leak counts as broken: the
// paper's bar for a mitigation is stopping key recovery, not slowing it.
// Unknown verdicts (engine ERROR rows) normalize to "".
func VerdictClass(verdict string) string {
	switch verdict {
	case "ATTACK SUCCEEDS", "LEAKS", "KEY RECOVERED", "partial leak":
		return ClassBroken
	case "defense holds", "blocked":
		return ClassMitigated
	case "n/a":
		return ClassNA
	}
	return ""
}

// Cell renders the sweep's canonical single table row for a scenario
// outcome: scenario name, architecture, measurement, verdict.
func Cell(name, arch, measurement, verdict string) [][]string {
	return [][]string{{name, arch, measurement, verdict}}
}
