package intrust

import (
	"strings"
	"testing"
)

// The facade tests exercise the public API exactly as the examples and a
// downstream user would.

func TestFacadeEnclaveWorkflow(t *testing.T) {
	plat := NewServerPlatform()
	s, err := NewSGX(plat)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Assemble(".org 0\nmv a0, a1\nhlt")
	if err != nil {
		t.Fatal(err)
	}
	e, err := s.CreateEnclave(EnclaveConfig{Name: "facade", Program: prog, DataSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	ret, err := e.Call(0, 1234)
	if err != nil {
		t.Fatal(err)
	}
	if ret[0] != 1234 {
		t.Fatalf("enclave echo = %d", ret[0])
	}
	v := NewVerifier(VerifierPolicy{Freshness: true})
	v.AllowMeasurement("facade", e.Measurement())
	nonce, _ := v.Challenge()
	r, err := e.Attest(nonce)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.CheckReport(s.ReportKey(), r); err != nil {
		t.Fatal(err)
	}
	blob, err := e.Seal([]byte("facade state"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Unseal(blob)
	if err != nil || string(out) != "facade state" {
		t.Fatalf("unseal: %q %v", out, err)
	}
}

func TestFacadeAllArchitecturesConstruct(t *testing.T) {
	if _, err := NewSGX(NewServerPlatform()); err != nil {
		t.Errorf("SGX: %v", err)
	}
	if _, err := NewSanctum(NewServerPlatform()); err != nil {
		t.Errorf("Sanctum: %v", err)
	}
	tz, err := NewTrustZone(NewMobilePlatform())
	if err != nil {
		t.Fatalf("TrustZone: %v", err)
	}
	if _, err := NewSanctuary(tz); err != nil {
		t.Errorf("Sanctuary: %v", err)
	}
	if _, err := NewSMART(NewEmbeddedPlatform()); err != nil {
		t.Errorf("SMART: %v", err)
	}
	if _, err := NewSancus(NewEmbeddedPlatform()); err != nil {
		t.Errorf("Sancus: %v", err)
	}
	if _, err := NewTrustLite(NewEmbeddedPlatform()); err != nil {
		t.Errorf("TrustLite: %v", err)
	}
	if _, err := NewTyTAN(NewEmbeddedPlatform()); err != nil {
		t.Errorf("TyTAN: %v", err)
	}
}

func TestFacadeSpectreQuick(t *testing.T) {
	secret := []byte("FACADE")
	res, err := SpectreV1(HighEndFeatures(), secret, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct != len(secret) {
		t.Fatalf("spectre via facade: %d/%d", res.Correct, len(secret))
	}
}

func TestFacadeFigure1Renders(t *testing.T) {
	f, err := Figure1(true)
	if err != nil {
		t.Fatal(err)
	}
	out := f.Render()
	for _, want := range []string{"remote attacks", "microarchitectural", "energy budget"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 1 render missing %q", want)
		}
	}
}

func TestFacadeAttestLifecycle(t *testing.T) {
	svc := NewAttestService(FuseFromSeed(0))
	q, err := svc.Quote("sgx", "none", 1, []byte{0xaa}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeAttestQuote(wire); err != nil {
		t.Fatalf("decode canonical quote: %v", err)
	}
	if vd := svc.Verify(wire, []byte{0xaa}); !vd.OK {
		t.Fatalf("clean verify: %+v", vd)
	}
	// A broken none-defense cell revokes the baseline TCB.
	svc.SetRevocations(AttestRevoke([]AttestCell{
		{Scenario: "flush+reload", Arch: "sgx", Defense: "none", Class: "broken"}}))
	if vd := svc.Verify(wire, []byte{0xaa}); vd.OK || vd.Code != "tcb-revoked" {
		t.Fatalf("post-revocation verify = %+v, want tcb-revoked", vd)
	}
}
