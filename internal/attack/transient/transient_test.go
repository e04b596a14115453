package transient

import (
	"bytes"
	"testing"

	"github.com/intrust-sim/intrust/internal/attest"
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

func TestForeshadowForgesAttestation(t *testing.T) {
	// The consequence the paper highlights: with the extracted key, the
	// attacker signs quotes for arbitrary (malicious) enclaves that any
	// remote verifier accepts.
	p := platform.NewServer()
	s, err := sgx.New(p)
	if err != nil {
		t.Fatal(err)
	}
	full := len(s.QuotingPublic().PrivateBytes())
	res, err := ForeshadowSGX(s, full, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct != full {
		t.Fatalf("extracted %d/%d key bytes", res.Correct, full)
	}
	// The stolen bytes are the Ed25519 seed: they rebuild the platform's
	// attestation key outright.
	stolen := attest.NewQuotingKey([32]byte(res.Recovered))
	if !stolen.Public().Equal(s.QuotingPublic().Public()) {
		t.Fatal("stolen key does not match platform public key")
	}
	// Forge a quote for "malware" with a fresh nonce: the verifier that
	// trusts the platform public key accepts it.
	verifier := attest.NewVerifier()
	malware := attest.Measure([]byte("malware enclave"))
	verifier.AllowMeasurement("genuine-app", malware) // verifier is told it's genuine
	nonce, _ := verifier.Challenge()
	forged := stolen.Sign(attest.NewReport(nil, malware, nonce, nil))
	if err := verifier.CheckQuote(s.QuotingPublic().Public(), forged); err != nil {
		t.Fatalf("forged quote rejected: %v", err)
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
