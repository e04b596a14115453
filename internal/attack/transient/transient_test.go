package transient

import (
	"bytes"
	"testing"

	"github.com/intrust-sim/intrust/internal/attest"
	"github.com/intrust-sim/intrust/internal/attestsvc"
	"github.com/intrust-sim/intrust/internal/cpu"
	"github.com/intrust-sim/intrust/internal/platform"
	"github.com/intrust-sim/intrust/internal/tee/sgx"
)

var testSecret = []byte("TOP-SECRET-DATA!")

func TestSpectreV1Extraction(t *testing.T) {
	res, err := SpectreV1(cpu.HighEndFeatures(), testSecret, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct != len(testSecret) {
		t.Fatalf("recovered %d/%d bytes: %q", res.Correct, len(testSecret), res.Recovered)
	}
}

func TestSpectreV1MitigatedByFence(t *testing.T) {
	res, err := SpectreV1(cpu.HighEndFeatures(), testSecret, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct > len(testSecret)/4 {
		t.Fatalf("fence left %d/%d bytes extractable", res.Correct, len(testSecret))
	}
}

func TestSpectreV1ImmuneOnInOrderCore(t *testing.T) {
	res, err := SpectreV1(cpu.EmbeddedFeatures(), testSecret, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct > len(testSecret)/4 {
		t.Fatalf("in-order core leaked %d/%d bytes", res.Correct, len(testSecret))
	}
}

func TestSpectreBTBExtraction(t *testing.T) {
	res, err := SpectreBTB(cpu.HighEndFeatures(), testSecret, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct != len(testSecret) {
		t.Fatalf("recovered %d/%d bytes", res.Correct, len(testSecret))
	}
}

func TestSpectreBTBMitigatedByPredictorFlush(t *testing.T) {
	res, err := SpectreBTB(cpu.HighEndFeatures(), testSecret, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct > len(testSecret)/4 {
		t.Fatalf("IBPB left %d/%d bytes extractable", res.Correct, len(testSecret))
	}
}

func TestRet2specExtraction(t *testing.T) {
	res, err := Ret2spec(cpu.HighEndFeatures(), testSecret)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct != len(testSecret) {
		t.Fatalf("recovered %d/%d bytes", res.Correct, len(testSecret))
	}
}

func TestMeltdownExtraction(t *testing.T) {
	res, err := Meltdown(cpu.HighEndFeatures(), testSecret)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct != len(testSecret) {
		t.Fatalf("recovered %d/%d bytes: %q", res.Correct, len(testSecret), res.Recovered)
	}
}

func TestMeltdownMitigatedInHardware(t *testing.T) {
	feat := cpu.HighEndFeatures()
	feat.FaultForwarding = false
	res, err := Meltdown(feat, testSecret)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct > len(testSecret)/4 {
		t.Fatalf("fixed silicon leaked %d/%d bytes", res.Correct, len(testSecret))
	}
}

func TestForeshadowExtractsQuotingKey(t *testing.T) {
	p := platform.NewServer()
	s, err := sgx.New(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ForeshadowSGX(s, 16, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct != 16 {
		t.Fatalf("Foreshadow recovered %d/16 key bytes", res.Correct)
	}
}

// TestForeshadowForgesAttestation runs the paper's attestation chain end
// to end (§3, §4.2): Foreshadow steals the quoting seed of an SGX platform
// whose fuse a seed names, the stolen key forges a quote that the
// attestation service on the same seed accepts, revocation by the broken
// foreshadow cell rejects it, and under l1tf-flush the recovered bytes
// forge nothing.
func TestForeshadowForgesAttestation(t *testing.T) {
	const seed = 7
	steal := func(mitigated bool) (*attest.QuotingKey, Result) {
		t.Helper()
		p := platform.NewServer()
		p.Fuse = platform.FuseFromSeed(seed)
		s, err := sgx.New(p)
		if err != nil {
			t.Fatal(err)
		}
		s.MitigateL1TF = mitigated
		res, err := ForeshadowSGX(s, len(s.QuotingPublic().PrivateBytes()), mitigated)
		if err != nil {
			t.Fatal(err)
		}
		return attest.NewQuotingKey([32]byte(res.Recovered)), res
	}
	// The forged statement: a baseline sgx/none@1 quote under the
	// verifier's nonce.
	forge := func(k *attest.QuotingKey) []byte {
		t.Helper()
		im, err := attestsvc.BuildImage("sgx", attestsvc.ConfigNone, attestsvc.TCBBaseline)
		if err != nil {
			t.Fatal(err)
		}
		q := im.Quote([]byte("verifier-nonce"), []byte("forged"))
		if err := k.Sign(q); err != nil {
			t.Fatal(err)
		}
		wire, err := q.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return wire
	}
	svc := attestsvc.NewService(platform.FuseFromSeed(seed))

	stolen, res := steal(false)
	if res.Correct != len(res.Target) {
		t.Fatalf("extracted %d/%d key bytes", res.Correct, len(res.Target))
	}
	// The stolen bytes are the Ed25519 seed of the platform's quoting
	// key: the key the service on the same fuse verifies with.
	if !stolen.Public().Equal(attest.QuotingKeyFor(platform.FuseFromSeed(seed), "sgx").Public()) {
		t.Fatal("stolen key is not the fuse's sgx quoting key")
	}
	wire := forge(stolen)
	if vd := svc.Verify(wire, []byte("verifier-nonce")); !vd.OK {
		t.Fatalf("forged quote rejected before revocation: %+v", vd)
	}
	// The attack that stole the key is the sweep's broken foreshadow cell
	// on undefended sgx; revocation raises sgx's minimum TCB past the
	// forged quote's claim.
	svc.SetRevocations(attestsvc.Revoke([]attestsvc.Cell{{
		Scenario: "foreshadow", Arch: "sgx", Defense: attestsvc.ConfigNone, Class: attestsvc.ClassBroken,
	}}))
	if vd := svc.Verify(wire, []byte("verifier-nonce")); vd.Code != attest.VerdictTCBRevoked {
		t.Fatalf("forged quote after revocation = %+v, want %s", vd, attest.VerdictTCBRevoked)
	}

	// Under l1tf-flush the recovered bytes are not the key: their quote
	// fails the signature check even with nothing revoked.
	flushed, res := steal(true)
	if res.Correct == len(res.Target) {
		t.Fatal("mitigated platform leaked the whole quoting seed")
	}
	svc.SetRevocations(nil)
	if vd := svc.Verify(forge(flushed), []byte("verifier-nonce")); vd.Code != attest.VerdictBadSignature {
		t.Fatalf("quote under mitigated-platform bytes = %+v, want %s", vd, attest.VerdictBadSignature)
	}
}

func TestForeshadowMitigatedByL1Flush(t *testing.T) {
	p := platform.NewServer()
	s, err := sgx.New(p)
	if err != nil {
		t.Fatal(err)
	}
	s.MitigateL1TF = true
	res, err := ForeshadowSGX(s, 16, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct > 4 {
		t.Fatalf("mitigated platform leaked %d/16 key bytes", res.Correct)
	}
}

func TestForeshadowNeedsL1TFHardwareBug(t *testing.T) {
	p := platform.NewServer()
	for _, c := range p.Cores {
		f := c.Feat
		f.L1TFForwarding = false // fixed silicon
		c.Feat = f
	}
	s, err := sgx.New(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ForeshadowSGX(s, 16, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct > 4 {
		t.Fatalf("fixed silicon leaked %d/16 key bytes", res.Correct)
	}
}

func TestResultString(t *testing.T) {
	r := Result{Attack: "x", Target: []byte{1, 2}, Recovered: []byte{1, 3}}
	r.grade()
	if r.Correct != 1 {
		t.Fatalf("grade = %d", r.Correct)
	}
	if r.String() == "" {
		t.Fatal("empty string")
	}
	if bytes.Equal(r.Recovered, r.Target) {
		t.Fatal("test data degenerate")
	}
}
