package scenario

import (
	"fmt"
	"runtime"

	"github.com/intrust-sim/intrust/internal/attack/transient"
	"github.com/intrust-sim/intrust/internal/axis"
)

// The five Section 4.2 transient-execution variants. Spectre v1 is
// mounted on every architecture — including the in-order embedded cores,
// where its expected failure demonstrates the paper's point that simple
// cores have no speculation window to exploit. The predictor-structure
// variants (BTB, RSB) and the MMU-dependent attacks (Meltdown) are n/a
// where the hardware structure they poison does not exist, and Foreshadow
// is SGX-specific by construction.

// sweepSecret is the fixed secret the transient scenarios try to
// extract; extraction is graded byte-for-byte against it.
var sweepSecret = []byte("SWEEPSEC")

func init() {
	for _, s := range transientScenarios() {
		Default.MustRegister(s)
	}
}

// sgxOnly gates Foreshadow, an L1 terminal fault against SGX's EPC.
func sgxOnly(arch string) (bool, string) {
	if arch != "sgx" {
		return false, "Foreshadow is an L1 terminal fault against SGX's EPC; " + arch + " has no equivalent surface"
	}
	return true, ""
}

// transientVerdict grades one extraction result: LEAKS when more than
// half the target bytes came out.
func transientVerdict(r transient.Result) string {
	if r.Correct > len(r.Target)/2 {
		return "LEAKS"
	}
	return "blocked"
}

func transientOutcome(name string, env *Env, r transient.Result, detail string) Outcome {
	v := transientVerdict(r)
	return Outcome{
		Rows:    Cell(name, env.Arch, fmt.Sprintf("%d/%d bytes", r.Correct, len(r.Target)), v),
		Metrics: map[string]float64{"bytes_extracted": float64(r.Correct)},
		Verdict: v,
		Detail:  detail,
	}
}

func transientScenarios() []*Spec {
	return []*Spec{
		{
			ID: "spectre-v1", In: axis.FamilyTransient, Section: "4.2",
			Summary: "Spectre-PHT bounds-check bypass; expected blocked on in-order cores (no speculation window)",
			Run: func(env *Env) (Outcome, error) {
				// The spec-barrier defense (§4.2) compiles an lfence-style
				// barrier after the bounds check.
				r, err := transient.SpectreV1(env.Features(), sweepSecret, env.DefenseConfig().SpecBarrier)
				if err != nil {
					return Outcome{}, err
				}
				return transientOutcome("spectre-v1", env,
					r, fmt.Sprintf("Spectre v1 on the %s-class core vs %s", env.Class.Key(), env.DefenseLabel())), nil
			},
		},
		{
			ID: "spectre-btb", In: axis.FamilyTransient, Section: "4.2",
			Summary: "Spectre-BTB: cross-training an indirect branch to a disclosure gadget the victim never calls",
			Applies: axis.NotOnEmbedded("no branch-target buffer on the in-order embedded core: nothing to poison"),
			Run: func(env *Env) (Outcome, error) {
				// The btb-flush defense (§4.2) flushes predictor state on
				// context switches (IBPB), untraining the attacker's BTB
				// entries before the victim runs.
				r, err := transient.SpectreBTB(env.Features(), sweepSecret, env.DefenseConfig().PredictorFlush)
				if err != nil {
					return Outcome{}, err
				}
				return transientOutcome("spectre-btb", env,
					r, fmt.Sprintf("BTB cross-training on the %s-class core vs %s", env.Class.Key(), env.DefenseLabel())), nil
			},
		},
		{
			ID: "ret2spec", In: axis.FamilyTransient, Section: "4.2",
			Summary: "ret2spec: return stack buffer poisoning redirects a victim return to the gadget",
			Applies: axis.NotOnEmbedded("no return stack buffer on the in-order embedded core: nothing to poison"),
			Run: func(env *Env) (Outcome, error) {
				r, err := transient.Ret2spec(env.Features(), sweepSecret)
				if err != nil {
					return Outcome{}, err
				}
				return transientOutcome("ret2spec", env,
					r, fmt.Sprintf("RSB poisoning on the %s-class core", env.Class.Key())), nil
			},
		},
		{
			ID: "meltdown", In: axis.FamilyTransient, Section: "4.2",
			Summary: "Meltdown: fault-deferred forwarding of supervisor data to a user-space probe",
			Applies: axis.NotOnEmbedded("no MMU on the MPU-based embedded core: no supervisor address space to breach"),
			Run: func(env *Env) (Outcome, error) {
				r, err := transient.Meltdown(env.Features(), sweepSecret)
				if err != nil {
					return Outcome{}, err
				}
				return transientOutcome("meltdown", env,
					r, fmt.Sprintf("fault-forwarding probe on the %s-class core", env.Class.Key())), nil
			},
		},
		{
			ID: "foreshadow", In: axis.FamilyTransient, Section: "4.2",
			Summary: "Foreshadow (L1TF): extract the SGX quoting enclave's attestation key through the EPC",
			Applies: sgxOnly,
			// Each mount assembles a server and MEE-initializes its
			// 2 MiB EPC: about 7 MiB that dies with the cell, several
			// times any other cell's. A collection cycle that runs while
			// two of them are live marks them all, and at the engine's
			// GOGC=300 the heap may then grow by four times that before
			// the next cycle, long after they are gone. Collecting once
			// the mount returns sizes the next heap goal on what is
			// live without them.
			Run: func(env *Env) (Outcome, error) {
				out, err := foreshadow(env)
				runtime.GC()
				return out, err
			},
		},
	}
}

func foreshadow(env *Env) (Outcome, error) {
	s, err := env.SGX()
	if err != nil {
		return Outcome{}, err
	}
	// The SGX instance is rebuilt per pass. Pooling the server would not
	// skip MEE.Init: every key derives from the cell-seeded fuse, so the
	// 2 MiB EPC must be encrypted and MACed under a per-cell key either
	// way, in one AES pass over its pages.
	// The l1tf-flush defense (§4.2) turns on SGX's microcode L1 flush on
	// enclave exits.
	s.MitigateL1TF = env.DefenseConfig().L1TFFlush
	r, err := transient.ForeshadowSGX(s, len(sweepSecret), s.MitigateL1TF)
	if err != nil {
		return Outcome{}, err
	}
	return transientOutcome("foreshadow", env,
		r, "Foreshadow against the EPC (quoting-enclave key)"), nil
}
