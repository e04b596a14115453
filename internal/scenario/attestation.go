package scenario

import (
	"fmt"

	"github.com/intrust-sim/intrust/internal/attestsvc"
	"github.com/intrust-sim/intrust/internal/axis"
)

// The §3 attestation-lifecycle attacks. Unlike the microarchitectural
// families these target the remote-attestation *protocol flow* — quote
// replay, the measure→use TOCTOU window, and stale-TCB acceptance — so
// they apply to every surveyed architecture (all eight implement remote
// attestation) and their mitigations are verifier/protocol policies
// (quote-freshness, measurement-lock, tcb-refresh) rather than hardware
// knobs. Each mounts a full measurement→quote→verify exchange against a
// deterministic per-cell authority derived from the job RNG.

func init() {
	for _, s := range attestationScenarios() {
		Default.MustRegister(s)
	}
}

// attestAuthority derives the cell's quoting authority from the job RNG,
// so every cell gets distinct keys but identical ones on replay.
func attestAuthority(env *Env) *attestsvc.Authority {
	root := make([]byte, 32)
	env.RNG.Read(root)
	return attestsvc.NewAuthority(root)
}

// attestNonce draws one challenge nonce from the job RNG.
func attestNonce(env *Env) []byte {
	n := make([]byte, 16)
	env.RNG.Read(n)
	return n
}

// brokenEvidenceFor names a representative broken undefended sweep cell
// for the architecture's platform class — the evidence a real sweep would
// produce to revoke its baseline TCB (prime+probe breaks the undefended
// shared-cache platforms; differential fault injection breaks the
// undefended embedded ones).
func brokenEvidenceFor(arch string) string {
	if ClassOf(arch) == ClassEmbedded {
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
				auth := attestAuthority(env)
				policy := attestsvc.CanonicalPolicy(nil)
				policy.Freshness = env.DefenseConfig().QuoteFreshness
				verifier := attestsvc.NewVerifier(auth, policy)
				im, err := attestsvc.BuildImage(env.Arch, attestsvc.ConfigNone, attestsvc.TCBBaseline)
				if err != nil {
					return Outcome{}, err
				}
				const sessions = 8
				replayed := 0
				for i := 0; i < sessions; i++ {
					nonce := attestNonce(env)
					q, err := auth.QuoteImage(im, nonce, nil)
					if err != nil {
						return Outcome{}, err
					}
					wire, err := q.Encode()
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
					} else if vd.Code != attestsvc.VerdictNonceReplayed {
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
				auth := attestAuthority(env)
				verifier := attestsvc.NewVerifier(auth, attestsvc.CanonicalPolicy(nil))
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
				nonce := attestNonce(env)
				var q *attestsvc.Quote
				if env.DefenseConfig().MeasurementLock {
					// measurement-lock: the quoting path re-measures the
					// live image, so the tampering lands in the quote.
					q, err = auth.QuoteImage(im, nonce, nil)
				} else {
					// Undefended flow: the quote signs the ledger entry.
					q, err = auth.QuoteMeasurement(env.Arch, ledger, im.Config, im.TCBVersion, nonce, nil)
				}
				if err != nil {
					return Outcome{}, err
				}
				wire, err := q.Encode()
				if err != nil {
					return Outcome{}, err
				}
				vd := verifier.Verify(wire, nonce)
				if !vd.OK && vd.Code != attestsvc.VerdictUnknownMeasurement {
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
				auth := attestAuthority(env)
				// The sweep found a broken undefended cell for this arch:
				// its baseline TCB is revoked, minimum version = stock.
				rev := attestsvc.Revoke([]attestsvc.Cell{{
					Scenario: brokenEvidenceFor(env.Arch),
					Arch:     env.Arch,
					Defense:  attestsvc.ConfigNone,
					Class:    attestsvc.ClassBroken,
				}})
				policy := attestsvc.CanonicalPolicy(rev)
				// tcb-refresh is the defense: without it the verifier
				// never pulls revocation state and MinTCB goes unenforced.
				policy.EnforceTCB = env.DefenseConfig().TCBRefresh
				verifier := attestsvc.NewVerifier(auth, policy)

				im, err := attestsvc.BuildImage(env.Arch, attestsvc.ConfigNone, attestsvc.TCBBaseline)
				if err != nil {
					return Outcome{}, err
				}
				nonce := attestNonce(env)
				q, err := auth.QuoteImage(im, nonce, nil)
				if err != nil {
					return Outcome{}, err
				}
				wire, err := q.Encode()
				if err != nil {
					return Outcome{}, err
				}
				vd := verifier.Verify(wire, nonce)
				if !vd.OK && vd.Code != attestsvc.VerdictTCBRevoked {
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
					nonce2 := attestNonce(env)
					q2, err := auth.QuoteImage(stock, nonce2, nil)
					if err != nil {
						return Outcome{}, err
					}
					wire2, err := q2.Encode()
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
