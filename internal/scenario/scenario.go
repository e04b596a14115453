// Package scenario is the unified attack-scenario API: every attack
// variant the simulator can mount — the Section 4.1 cache side channels,
// the Section 4.2 transient-execution attacks and the Section 5 classical
// physical attacks — is a first-class, enumerable, engine-schedulable
// Scenario registered in a process-wide catalog.
//
// Before this layer existed, each attack was a bespoke free function with
// its own signature (victim here, RNG there, sample budget somewhere
// else) and the sweep could only drive three hand-picked "representative"
// families through a hardcoded switch. A Scenario instead mounts from a
// uniform typed Env (architecture, platform class, CPU features, victim
// constructors, per-job RNG, sample budget), declares which architectures
// it applies to — with the paper's reason when it does not — and
// self-registers at init time, so internal/core's sweep enumerates the
// full registry × architecture grid without knowing any attack by name.
//
// The catalog files (cachesca.go, transient.go, physical.go) wrap the
// attack implementations in internal/attack/*; adding a new attack is one
// Spec literal plus a Register call.
package scenario

import (
	"fmt"

	"github.com/intrust-sim/intrust/internal/engine"
	"github.com/intrust-sim/intrust/internal/stats"
)

// Family names, in the paper's section order. Registry ordering and the
// sweep's family axis both follow this ranking.
const (
	// FamilyCacheSCA is the Section 4.1 software cache side channels.
	FamilyCacheSCA = "cachesca"
	// FamilyTransient is the Section 4.2 transient-execution attacks.
	FamilyTransient = "transient"
	// FamilyPhysical is the Section 5 classical physical attacks.
	FamilyPhysical = "physical"
	// FamilyAttestation is the attacks on the §3 remote-attestation
	// protocol flow (quote replay, measure/use TOCTOU, stale-TCB
	// acceptance).
	FamilyAttestation = "attestation"
)

// FamilyOrder lists the scenario families in the paper's section order
// (§4.1, §4.2, §5, then the §3 attestation lifecycle, which the survey
// introduces first but this codebase grew last) — the deterministic
// ordering used by Registry.All.
var FamilyOrder = []string{FamilyCacheSCA, FamilyTransient, FamilyPhysical, FamilyAttestation}

// Outcome is what a mounted scenario measured. It is the engine's outcome
// type: scenarios feed the experiment scheduler directly, so the table
// rows, metrics, verdict and detail carry through to the text tables and
// the JSON report unchanged.
type Outcome = engine.Outcome

// Scenario is one attack variant as a schedulable unit.
type Scenario interface {
	// Name uniquely identifies the scenario in the registry
	// (e.g. "flush+reload", "spectre-v1", "clkscrew").
	Name() string
	// Family is the attack family the scenario belongs to (one of
	// FamilyCacheSCA, FamilyTransient, FamilyPhysical).
	Family() string
	// Applicable reports whether the scenario can be meaningfully
	// mounted against the given architecture; when it cannot, reason
	// states why in the paper's terms (e.g. "no shared caches on the
	// embedded platform").
	Applicable(arch string) (ok bool, reason string)
	// Mount runs the attack from the typed environment and reports what
	// it measured. Implementations must draw all randomness from
	// env.RNG / env.Seed so results are deterministic under any
	// engine parallelism.
	Mount(env *Env) (Outcome, error)
}

// Sampler is an optional Scenario extension declaring a minimum sample
// budget; the sweep raises a cell's budget to this floor so the reported
// Samples field states what the job actually ran. Under adaptive
// sampling the floor doubles as the cell's reference budget: the batch
// budget at which one measurement is considered fully informative.
type Sampler interface {
	MinSamples() int
}

// SequentialSampler is an optional Scenario extension for cumulative
// sequential sampling: MountSeq runs ONE measurement pass that extends a
// single cumulative sample set to each checkpoint the plan issues and
// grades the statistic there. Sub-reference checkpoints must grade
// conservatively — only a full secret recovery counts, never a partial
// signal — because a starved budget is expected to look mitigated even
// on broken cells. A pass that drains the plan without a recovery has
// measured exactly what the fixed-budget engine measures (same seed,
// same sample count, same statistic: the fixed budget is a one-rung
// plan); one that stops early has already recovered the secret, which
// more samples cannot undo.
//
// Scenarios without it are one-shot: their measurement does not consume
// the sample budget at all — fault attacks needing a handful of faulty
// ciphertexts, transient extraction running to completion regardless of
// Samples — and the adaptive engine settles them with a single mount.
type SequentialSampler interface {
	MountSeq(env *Env, plan *stats.Plan) (Outcome, error)
}

// Describer is an optional Scenario extension providing catalog metadata
// for `intrust attacks` and the generated EXPERIMENTS.md.
type Describer interface {
	// Describe returns the paper section the scenario reproduces
	// (e.g. "4.1") and a one-line summary of what it mounts.
	Describe() (section, summary string)
}

// Spec is the standard Scenario implementation: a declarative record
// wrapping exactly one mount function — Run for a one-shot scenario,
// RunSeq for a sequential one. All catalog scenarios are Specs, and
// downstream users can register their own.
type Spec struct {
	// ID is the unique scenario name.
	ID string
	// In is the scenario's family.
	In string
	// Section is the paper section reproduced (e.g. "4.1").
	Section string
	// Summary is a one-line description for the catalog listing.
	Summary string
	// Floor is the minimum meaningful sample budget (0 = any). Adaptive
	// sampling treats it as the reference budget: mitigated verdicts
	// from batches below it are discounted as possible sample
	// starvation.
	Floor int
	// Applies decides per-architecture applicability; nil means the
	// scenario applies to every known architecture.
	Applies func(arch string) (bool, string)
	// Run mounts a one-shot attack, whose measurement does not depend
	// on the sample budget. Set Run or RunSeq, never both.
	Run func(env *Env) (Outcome, error)
	// RunSeq mounts one cumulative sequential-sampling pass (see
	// SequentialSampler). Mount runs it under a one-rung plan at
	// env.Samples, which is the fixed-budget measurement.
	RunSeq func(env *Env, plan *stats.Plan) (Outcome, error)
}

// Name implements Scenario.
func (s *Spec) Name() string { return s.ID }

// Family implements Scenario.
func (s *Spec) Family() string { return s.In }

// Applicable implements Scenario. Unknown architectures are never
// applicable.
func (s *Spec) Applicable(arch string) (bool, string) {
	if !KnownArchitecture(arch) {
		return false, fmt.Sprintf("unknown architecture %q", arch)
	}
	if s.Applies == nil {
		return true, ""
	}
	return s.Applies(arch)
}

// Mount implements Scenario. A sequential Spec measures at the fixed
// budget as one pass under a one-rung plan: the ladder's only checkpoint
// is env.Samples.
func (s *Spec) Mount(env *Env) (Outcome, error) {
	switch {
	case s.RunSeq != nil:
		return s.RunSeq(env, stats.NewPlan(stats.Policy{MinBatch: env.Samples}, env.Samples))
	case s.Run != nil:
		return s.Run(env)
	}
	return Outcome{}, fmt.Errorf("scenario %s has no mount function", s.ID)
}

// MinSamples implements Sampler.
func (s *Spec) MinSamples() int { return s.Floor }

// MountSeq implements SequentialSampler; check CanMountSeq before
// calling.
func (s *Spec) MountSeq(env *Env, plan *stats.Plan) (Outcome, error) {
	if s.RunSeq == nil {
		return Outcome{}, fmt.Errorf("scenario %s has no sequential mount", s.ID)
	}
	return s.RunSeq(env, plan)
}

// Describe implements Describer.
func (s *Spec) Describe() (string, string) { return s.Section, s.Summary }

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

// MinSamplesOf returns the scenario's declared sample floor, or 0 when it
// declares none.
func MinSamplesOf(s Scenario) int {
	if ms, ok := s.(Sampler); ok {
		return ms.MinSamples()
	}
	return 0
}

// IsOneShot reports whether the scenario's measurement is
// budget-independent: every scenario that cannot mount sequentially is
// settled by a single mount (see SequentialSampler).
func IsOneShot(s Scenario) bool { return !CanMountSeq(s) }

// CanMountSeq reports whether the scenario supports cumulative
// sequential sampling. A *Spec qualifies only when its RunSeq is wired —
// the Spec type always carries the method, but a nil RunSeq would error.
func CanMountSeq(s Scenario) bool {
	if sp, ok := s.(*Spec); ok {
		return sp.RunSeq != nil
	}
	_, ok := s.(SequentialSampler)
	return ok
}

// MountSeq runs one cumulative sequential-sampling pass on a scenario
// that supports it (check CanMountSeq first).
func MountSeq(s Scenario, env *Env, plan *stats.Plan) (Outcome, error) {
	seq, ok := s.(SequentialSampler)
	if !ok {
		return Outcome{}, fmt.Errorf("scenario %s does not support sequential sampling", s.Name())
	}
	return seq.MountSeq(env, plan)
}

// DescriptionOf returns the scenario's paper section and summary, or
// empty strings when it provides none.
func DescriptionOf(s Scenario) (section, summary string) {
	if d, ok := s.(Describer); ok {
		return d.Describe()
	}
	return "", ""
}
