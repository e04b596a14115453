package scenario

import (
	"fmt"

	"github.com/intrust-sim/intrust/internal/attest"
	"github.com/intrust-sim/intrust/internal/attestsvc"
	"github.com/intrust-sim/intrust/internal/axis"
	"github.com/intrust-sim/intrust/internal/platform"
)

// The §3 attestation-lifecycle attacks. Unlike the microarchitectural
// families these target the remote-attestation *protocol flow* — quote
// replay, the measure→use TOCTOU window, and stale-TCB acceptance — so
// they apply to every surveyed architecture (all eight implement remote
// attestation) and their mitigations are verifier/protocol policies
// (quote-freshness, measurement-lock, tcb-refresh) rather than hardware
// knobs. Each mounts a full measurement→quote→verify exchange with the
// cell device's quoting key, burned from the cell seed the way Env.SGX
// burns its fuse.

func init() {
	for _, s := range attestationScenarios() {
		Default.MustRegister(s)
	}
}

// attestParties builds the cell's one quoting key — the key of the
// device platform.FuseFromSeed(env.Seed) names, so every cell gets
// distinct keys but identical ones on replay, and no RNG draw shifts —
// and a verifier under policy that trusts it.
func attestParties(env *Env, policy attest.Policy) (*attest.QuotingKey, *attest.Verifier) {
	qk := attest.QuotingKeyFor(platform.FuseFromSeed(env.Seed), env.Arch)
	v := attest.NewVerifier(policy)
	v.Trust(env.Arch, qk.Public())
	return qk, v
}

// challenge draws one nonce from the job RNG and registers it with the
// verifier as issued.
func challenge(env *Env, v *attest.Verifier) []byte {
	n := make([]byte, 16)
	env.RNG.Read(n)
	v.Register(n)
	return n
}

// signWire signs the quote and encodes it for the wire.
func signWire(qk *attest.QuotingKey, q *attest.Quote) ([]byte, error) {
	if err := qk.Sign(q); err != nil {
		return nil, err
	}
	return q.Encode()
}

// brokenEvidenceFor names a representative broken undefended sweep cell
// for the architecture's platform class — the evidence a real sweep would
// produce to revoke its baseline TCB (prime+probe breaks the undefended
// shared-cache platforms; differential fault injection breaks the
// undefended embedded ones).
func brokenEvidenceFor(class platform.Class) string {
	if class == platform.ClassEmbedded {
		return "dfa-piret-quisquater"
	}
	return "prime+probe"
}

func attestationScenarios() []*Spec {
	return []*Spec{
		{
			ID: "quote-replay", In: axis.FamilyAttestation, Section: "3",
			Summary: "captured quotes replayed into later verification sessions against a verifier " +
				"that does not enforce nonce single-use",
			Run: func(env *Env) (Outcome, error) {
				policy := attestsvc.CanonicalPolicy(nil)
				policy.Freshness = env.DefenseConfig().QuoteFreshness
				qk, verifier := attestParties(env, policy)
				im, err := attestsvc.BuildImage(env.Arch, attestsvc.ConfigNone, attestsvc.TCBBaseline)
				if err != nil {
					return Outcome{}, err
				}
				const sessions = 8
				replayed := 0
				for i := 0; i < sessions; i++ {
					nonce := challenge(env, verifier)
					wire, err := signWire(qk, im.Quote(nonce, nil))
					if err != nil {
						return Outcome{}, err
					}
					if vd := verifier.Verify(wire, nonce); !vd.OK {
						return Outcome{}, fmt.Errorf("quote-replay: legitimate session %d rejected: %s", i, vd.Reason)
					}
					// The attacker captured the wire quote in transit and
					// later presents it to a verifier that does not bind a
					// fresh challenge; only nonce-freshness tracking can
					// tell it from a live exchange.
					if vd := verifier.Verify(wire, nil); vd.OK {
						replayed++
					} else if vd.Code != attest.VerdictNonceReplayed {
						return Outcome{}, fmt.Errorf("quote-replay: unexpected rejection %s: %s", vd.Code, vd.Reason)
					}
				}
				v := LeakIf(replayed > 0)
				return Outcome{
					Rows:    Cell("quote-replay", env.Arch, fmt.Sprintf("%d/%d replays accepted", replayed, sessions), v),
					Metrics: map[string]float64{"replays_accepted": float64(replayed)},
					Verdict: v,
					Detail:  "captured-quote replay vs " + defenseName(env),
				}, nil
			},
		},
		{
			ID: "measure-toctou", In: axis.FamilyAttestation, Section: "3",
			Summary: "time-of-measure/time-of-quote gap: the enclave image is tampered after the load-time " +
				"measurement is ledgered, and the quote attests the stale digest",
			Applies: func(arch string) (bool, string) {
				if arch == "smart" {
					return false, "SMART's ROM attestation routine measures and invokes the region atomically: " +
						"there is no measure→use window to race"
				}
				return true, ""
			},
			Run: func(env *Env) (Outcome, error) {
				qk, verifier := attestParties(env, attestsvc.CanonicalPolicy(nil))
				im, err := attestsvc.BuildImage(env.Arch, attestsvc.ConfigNone, attestsvc.TCBBaseline)
				if err != nil {
					return Outcome{}, err
				}
				ledger := im.Measurement() // recorded at enclave load
				// Between measurement and quote the attacker patches one
				// byte of one page of the live image.
				page := env.RNG.Intn(len(im.Pages))
				off := env.RNG.Intn(len(im.Pages[page]))
				im.Pages[page][off] ^= byte(1 + env.RNG.Intn(255))
				nonce := challenge(env, verifier)
				// measurement-lock: the quoting path re-measures the live
				// image, so the tampering lands in the quote.
				q := im.Quote(nonce, nil)
				if !env.DefenseConfig().MeasurementLock {
					// Undefended flow: the quote signs the ledger entry.
					q.Measurement = ledger
				}
				wire, err := signWire(qk, q)
				if err != nil {
					return Outcome{}, err
				}
				vd := verifier.Verify(wire, nonce)
				if !vd.OK && vd.Code != attest.VerdictUnknownMeasurement {
					return Outcome{}, fmt.Errorf("measure-toctou: unexpected rejection %s: %s", vd.Code, vd.Reason)
				}
				// Acceptance means the verifier trusted a measurement that
				// no longer describes the running image.
				v := LeakIf(vd.OK)
				meas := "tampered image rejected"
				if vd.OK {
					meas = "tampered image attested as good"
				}
				return Outcome{
					Rows:    Cell("measure-toctou", env.Arch, meas, v),
					Metrics: map[string]float64{"stale_accepted": boolMetric(vd.OK)},
					Verdict: v,
					Detail:  "page patched between measure and quote vs " + defenseName(env),
				}, nil
			},
		},
		{
			ID: "stale-tcb", In: axis.FamilyAttestation, Section: "3",
			Summary: "quotes claiming a sweep-revoked baseline TCB presented to a verifier that never " +
				"refreshes its revocation state",
			Run: func(env *Env) (Outcome, error) {
				// The sweep found a broken undefended cell for this arch:
				// its baseline TCB is revoked, minimum version = stock.
				rev := attestsvc.Revoke([]attestsvc.Cell{{
					Scenario: brokenEvidenceFor(env.Class),
					Arch:     env.Arch,
					Defense:  attestsvc.ConfigNone,
					Class:    attestsvc.ClassBroken,
				}})
				policy := attestsvc.CanonicalPolicy(rev)
				// tcb-refresh is the defense: without it the verifier
				// never pulls revocation state and MinTCB goes unenforced.
				policy.EnforceTCB = env.DefenseConfig().TCBRefresh
				qk, verifier := attestParties(env, policy)

				im, err := attestsvc.BuildImage(env.Arch, attestsvc.ConfigNone, attestsvc.TCBBaseline)
				if err != nil {
					return Outcome{}, err
				}
				nonce := challenge(env, verifier)
				wire, err := signWire(qk, im.Quote(nonce, nil))
				if err != nil {
					return Outcome{}, err
				}
				vd := verifier.Verify(wire, nonce)
				if !vd.OK && vd.Code != attest.VerdictTCBRevoked {
					return Outcome{}, fmt.Errorf("stale-tcb: unexpected rejection %s: %s", vd.Code, vd.Reason)
				}
				// Recovery sanity: a quote claiming the stock defense
				// configuration must verify under the same (enforcing)
				// policy — revocation is a ratchet, not a lockout.
				if env.DefenseConfig().TCBRefresh {
					stock, err := attestsvc.BuildImage(env.Arch, attestsvc.ConfigStock, attestsvc.TCBStock)
					if err != nil {
						return Outcome{}, err
					}
					nonce2 := challenge(env, verifier)
					wire2, err := signWire(qk, stock.Quote(nonce2, nil))
					if err != nil {
						return Outcome{}, err
					}
					if vd2 := verifier.Verify(wire2, nonce2); !vd2.OK {
						return Outcome{}, fmt.Errorf("stale-tcb: stock-claiming quote rejected after revocation: %s", vd2.Reason)
					}
				}
				v := LeakIf(vd.OK)
				meas := "revoked-TCB quote rejected"
				if vd.OK {
					meas = "revoked-TCB quote accepted"
				}
				return Outcome{
					Rows:    Cell("stale-tcb", env.Arch, meas, v),
					Metrics: map[string]float64{"stale_accepted": boolMetric(vd.OK)},
					Verdict: v,
					Detail:  "sweep-revoked baseline TCB vs " + defenseName(env),
				}, nil
			},
		},
	}
}

// boolMetric renders a bool as a 0/1 metric value.
func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
