package scenario

import (
	"fmt"
	"math/big"
	"math/bits"
	"math/rand"

	"github.com/intrust-sim/intrust/internal/attack/physical"
	"github.com/intrust-sim/intrust/internal/axis"
	"github.com/intrust-sim/intrust/internal/platform"
	"github.com/intrust-sim/intrust/internal/power"
	"github.com/intrust-sim/intrust/internal/softcrypto"
	"github.com/intrust-sim/intrust/internal/stats"
)

// The Section 5 classical physical suite. Physical attacks assume an
// adversary with (at least) proximity to the device, which the paper
// grants on every platform class — with the exception of CLKSCREW, whose
// attack surface is the software-exposed DVFS regulator of mobile SoCs.

func init() {
	for _, s := range physicalScenarios() {
		Default.MustRegister(s)
	}
}

// mobileOnlyDVFS gates CLKSCREW on the architectures whose platform
// exposes a software-reachable DVFS regulator.
func mobileOnlyDVFS(arch string) (bool, string) {
	if c, _ := platform.ArchClass(arch); c != platform.ClassMobile {
		return false, "no software-exposed DVFS regulator on the " + c.Key() +
			" platform: CLKSCREW's attack surface is the mobile SoC's frequency/voltage interface"
	}
	return true, ""
}

// LeakIf is the physical suite's verdict convention, shared with TAB5.
func LeakIf(b bool) string {
	if b {
		return "KEY RECOVERED"
	}
	return "blocked"
}

// kocherTarget returns the shared 61-bit modexp victim parameters every
// Kocher-timing measurement (TAB5 and the sweep) attacks.
func kocherTarget() (mod, exp uint64) {
	return 1<<61 - 1, 0xB6D5
}

// KocherRecovers mounts the Kocher timing attack with the given sample
// collector (square-and-multiply vs Montgomery ladder) on the shared
// 61-bit modexp victim and reports whether the exponent was recovered
// from n timings. TAB5 and the sweep's kocher-timing scenario measure
// exactly this, from this one definition, so their victims cannot drift
// apart.
func KocherRecovers(collect func(exp, mod uint64, n int, rng *rand.Rand) []physical.TimingSample, n int, rng *rand.Rand) bool {
	mod, exp := kocherTarget()
	return physical.KocherTiming(collect(exp, mod, n, rng), mod, bits.Len64(exp)) == exp
}

// aesTracePoints is the per-trace sample count of the AES victims (160
// S-box leaks), used to pre-reserve arena capacity; jitter can push a
// trace past it, which only costs one backing growth.
const aesTracePoints = 160

// keyThreshold is the recovered-byte count (of 16) at which a
// power-analysis cell counts as a key recovery.
const keyThreshold = 14

// seqTraces drives a cumulative power-trace attack (DPA, CPA) through
// the plan's checkpoint ladder: extend one trace arena, regrade the
// recovered key bytes, stop on a full (>= 14/16) recovery. A pass that
// drains the plan has collected exactly the fixed-budget trace set. The
// arena is worker-pooled scratch, so escalation passes extend and
// regrade without allocating. masked-aes and clock-jitter (§5) act
// here: the victim may be first-order masked, and the probe may carry
// hiding jitter.
//
// A sub-reference rung only has to decide "stop or go on", so it grades
// bytes until a third one misses: such a rung is below the threshold
// whatever the rest score, and the next rung overwrites its count. A
// rung that stops the pass missed at most two bytes, so it was graded in
// full, and the reference rung always grades all 16. The reported count
// is therefore exact, and a fixed-budget (one-rung) pass does the same
// work as before.
func seqTraces(env *Env, plan *stats.Plan, sigma float64, byteFn func(*power.Arena, int) (byte, float64)) (got, traces int, err error) {
	v, err := env.PowerAESVictim()
	if err != nil {
		return 0, 0, err
	}
	probe := env.PowerProbe(sigma, 1)
	a := env.TraceArena()
	done := 0
	plan.Walk(func(n int) bool {
		a.Grow(n-done, aesTracePoints)
		physical.ExtendArena(a, v, probe, n-done, env.RNG)
		done = n
		maxMiss := 16 - keyThreshold
		if n == plan.Reference() {
			maxMiss = 16
		}
		got = physical.GradeKeyArena(a, byteFn, VictimKey(), maxMiss)
		return got >= keyThreshold
	})
	return got, done, nil
}

func physicalScenarios() []*Spec {
	return []*Spec{
		{
			ID: "kocher-timing", In: axis.FamilyPhysical, Section: "5",
			Summary: "Kocher timing attack on square-and-multiply RSA; needs >= 600 timings to vote exponent bits",
			// The bit-voting needs a floor of timings to be reliable;
			// the sweep raises the cell's budget to it.
			Floor: 600,
			RunSeq: func(env *Env, plan *stats.Plan) (Outcome, error) {
				mod, exp := kocherTarget()
				var samples []physical.TimingSample
				ok, done := false, 0
				plan.Walk(func(n int) bool {
					samples = physical.ExtendTimingSamples(samples, exp, mod, n-done, env.RNG)
					done = n
					ok = physical.KocherTiming(samples, mod, bits.Len64(exp)) == exp
					return ok
				})
				return Outcome{
					Rows:    Cell("kocher-timing", env.Arch, fmt.Sprintf("%d timings", done), LeakIf(ok)),
					Verdict: LeakIf(ok),
					Detail:  "Kocher timing attack on square-and-multiply RSA",
				}, nil
			},
		},
		{
			ID: "dpa", In: axis.FamilyPhysical, Section: "5",
			Summary: "Differential power analysis (difference of means) on unprotected AES traces",
			// The difference-of-means statistic needs far more traces
			// than CPA's correlation to separate the key hypotheses.
			Floor: 1500,
			RunSeq: func(env *Env, plan *stats.Plan) (Outcome, error) {
				got, traces, err := seqTraces(env, plan, 0.5, physical.DPAByteArena)
				if err != nil {
					return Outcome{}, err
				}
				return Outcome{
					Rows:    Cell("dpa", env.Arch, fmt.Sprintf("%d/16 key bytes @ %d traces", got, traces), LeakIf(got >= keyThreshold)),
					Metrics: map[string]float64{"key_bytes": float64(got)},
					Verdict: LeakIf(got >= keyThreshold),
					Detail:  "difference-of-means DPA vs " + env.DefenseLabel(),
				}, nil
			},
		},
		{
			ID: "cpa", In: axis.FamilyPhysical, Section: "5",
			Summary: "Correlation power analysis (Pearson, Hamming-weight model) on unprotected AES traces",
			RunSeq: func(env *Env, plan *stats.Plan) (Outcome, error) {
				got, traces, err := seqTraces(env, plan, 0.8, physical.CPAByteArena)
				if err != nil {
					return Outcome{}, err
				}
				return Outcome{
					Rows:    Cell("cpa", env.Arch, fmt.Sprintf("%d/16 key bytes @ %d traces", got, traces), LeakIf(got >= keyThreshold)),
					Metrics: map[string]float64{"key_bytes": float64(got)},
					Verdict: LeakIf(got >= keyThreshold),
					Detail:  "close-proximity CPA vs " + env.DefenseLabel(),
				}, nil
			},
		},
		{
			ID: "dfa-piret-quisquater", In: axis.FamilyPhysical, Section: "5",
			Summary: "Piret-Quisquater differential fault attack: full AES key from a handful of faulty ciphertexts",
			Run: func(env *Env) (Outcome, error) {
				oracle, err := physical.NewFaultOracle(VictimKey())
				if err != nil {
					return Outcome{}, err
				}
				got, faults, err := physical.PiretQuisquater(oracle, 2)
				if err != nil {
					return Outcome{}, err
				}
				ok := physical.CorrectBytes(got, VictimKey()) == 16
				return Outcome{
					Rows:    Cell("dfa-piret-quisquater", env.Arch, fmt.Sprintf("%d faulty ciphertexts", faults), LeakIf(ok)),
					Metrics: map[string]float64{"faulty_ciphertexts": float64(faults)},
					Verdict: LeakIf(ok),
					Detail:  "round-9 fault injection and differential analysis on the device's AES",
				}, nil
			},
		},
		{
			ID: "bellcore", In: axis.FamilyPhysical, Section: "5",
			Summary: "Bellcore RSA-CRT fault attack: one faulty half-exponentiation factors the modulus",
			Run: func(env *Env) (Outcome, error) {
				// Deterministic keygen from the job RNG — crypto/rsa's
				// generator defeats reproducibility on purpose.
				rsaKey, err := softcrypto.GenerateRSAFrom(env.RNG, 512)
				if err != nil {
					return Outcome{}, err
				}
				msg := big.NewInt(0xFEEDC0FFEE)
				fault := &softcrypto.CRTFault{Half: 0, XORMask: 2}
				if env.DefenseConfig().CRTCheck {
					// crt-check (§5): verify-before-release suppresses the
					// faulty signature the attack needs. Should the check
					// ever release it (a fault model the verification does
					// not catch), the attack is actually mounted on the
					// released signature rather than asserted.
					good, _ := rsaKey.SignCRTChecked(msg, nil)
					bad, released := rsaKey.SignCRTChecked(msg, fault)
					if released && good != nil {
						_, _, ok := physical.Bellcore(rsaKey.N, good, bad)
						return Outcome{
							Rows:    Cell("bellcore", env.Arch, "faulty signature released past the check", LeakIf(ok)),
							Verdict: LeakIf(ok),
							Detail:  "RSA-CRT check failed to suppress the faulty signature",
						}, nil
					}
					return Outcome{
						Rows:    Cell("bellcore", env.Arch, "faulty signature suppressed", LeakIf(false)),
						Verdict: LeakIf(false),
						Detail:  "RSA-CRT verify-before-release withheld the faulty signature",
					}, nil
				}
				good := rsaKey.SignCRT(msg, nil)
				bad := rsaKey.SignCRT(msg, fault)
				_, _, ok := physical.Bellcore(rsaKey.N, good, bad)
				return Outcome{
					Rows:    Cell("bellcore", env.Arch, "1 faulty signature", LeakIf(ok)),
					Verdict: LeakIf(ok),
					Detail:  "gcd of (good - bad) signatures with the modulus factors it",
				}, nil
			},
		},
		{
			ID: "clkscrew", In: axis.FamilyPhysical, Section: "5",
			Summary: "CLKSCREW: overclock via the kernel-reachable DVFS regulator to fault the TrustZone secure world",
			Applies: mobileOnlyDVFS,
			Run: func(env *Env) (Outcome, error) {
				jitter := env.DefenseConfig().ClockJitter
				// An unlucky fault batch can leave the campaign's DFA
				// ambiguous; like a real attacker, collect a fresh batch
				// (deterministically derived from the job seed) and retry.
				// Under clock-jitter every campaign is expected to starve —
				// that is the mitigation, so one campaign settles the cell
				// instead of burning 8 full fault budgets.
				attempts := int64(8)
				if jitter {
					attempts = 1
				}
				var ck *physical.CLKSCREWResult
				var err error
				for attempt := int64(0); attempt < attempts; attempt++ {
					ck, err = physical.CLKSCREWDefended(env.Seed+attempt*0x9E3779B9, jitter)
					if err == nil {
						break
					}
				}
				if err != nil {
					if jitter && ck != nil {
						// clock-jitter (§5): displaced faults fail the DFA's
						// fault model and the campaign starves — that IS the
						// mitigation, not an experiment error.
						return Outcome{
							Rows: Cell("clkscrew", env.Arch,
								fmt.Sprintf("0 usable faults in %d invocations", ck.Invocations), LeakIf(false)),
							Metrics: map[string]float64{"overclock_mhz": float64(ck.OverclockMHz), "invocations": float64(ck.Invocations)},
							Verdict: LeakIf(false),
							Detail:  "CLKSCREW vs clock-jitter: injected faults miss the targeted round",
						}, nil
					}
					return Outcome{}, err
				}
				return Outcome{
					Rows: Cell("clkscrew", env.Arch,
						fmt.Sprintf("OC to %d MHz, %d invocations", ck.OverclockMHz, ck.Invocations), LeakIf(ck.Success)),
					Metrics: map[string]float64{"overclock_mhz": float64(ck.OverclockMHz), "invocations": float64(ck.Invocations)},
					Verdict: LeakIf(ck.Success),
					Detail:  "CLKSCREW fault injection via the DVFS regulator",
				}, nil
			},
		},
	}
}
