package tytan

import (
	"bytes"
	"testing"

	"github.com/intrust-sim/intrust/internal/attest"
	"github.com/intrust-sim/intrust/internal/isa"
	"github.com/intrust-sim/intrust/internal/platform"
	"github.com/intrust-sim/intrust/internal/tee"
)

func newTyTAN(t *testing.T) *TyTAN {
	t.Helper()
	ty, err := New(platform.NewEmbedded())
	if err != nil {
		t.Fatal(err)
	}
	return ty
}

const appProg = ".org 0\nmv a0, a1\nhlt"

func signedLoad(t *testing.T, ty *TyTAN, name string) *Trustlet {
	t.Helper()
	prog := isa.MustAssemble(appProg)
	sig := ty.SignImage(prog.Segments[0].Data)
	tr, err := ty.LoadSignedTrustlet(tee.EnclaveConfig{Name: name, Program: prog, DataSize: 256}, sig)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestSecureBootAcceptsSignedRejectsUnsigned(t *testing.T) {
	ty := newTyTAN(t)
	tr := signedLoad(t, ty, "signed")
	if tr == nil {
		t.Fatal("signed trustlet rejected")
	}
	// Unsigned / tampered images refused.
	prog := isa.MustAssemble(appProg)
	if _, err := ty.LoadSignedTrustlet(tee.EnclaveConfig{Name: "bad", Program: prog}, []byte("junk")); err == nil {
		t.Fatal("junk signature accepted")
	}
	if _, err := ty.CreateEnclave(tee.EnclaveConfig{Name: "nosig", Program: prog}); err == nil {
		t.Fatal("unsigned load path accepted")
	}
	// Signature for different code refused.
	other := isa.MustAssemble(".org 0\nnop\nhlt")
	sig := ty.SignImage(prog.Segments[0].Data)
	if _, err := ty.LoadSignedTrustlet(tee.EnclaveConfig{Name: "swap", Program: other}, sig); err == nil {
		t.Fatal("signature/image mismatch accepted")
	}
}

func TestSecureStorage(t *testing.T) {
	ty := newTyTAN(t)
	a := signedLoad(t, ty, "storer")
	b := signedLoad(t, ty, "other")
	blob, err := a.Seal([]byte("calibration data"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := a.Unseal(blob)
	if err != nil || !bytes.Equal(out, []byte("calibration data")) {
		t.Fatalf("unseal: %q %v", out, err)
	}
	if _, err := b.Unseal(blob); err == nil {
		t.Fatal("foreign trustlet unsealed")
	}
}

func TestAuthenticatedIPC(t *testing.T) {
	ty := newTyTAN(t)
	a := signedLoad(t, ty, "producer")
	b := signedLoad(t, ty, "consumer")
	msg := ty.SendIPC(a, b, []byte("reading=42"))
	if !ty.VerifyIPC(msg) {
		t.Fatal("genuine IPC rejected")
	}
	// Tampered payload detected.
	evil := *msg
	evil.Payload = []byte("reading=43")
	if ty.VerifyIPC(&evil) {
		t.Fatal("tampered IPC accepted")
	}
	// Spoofed sender detected.
	spoof := *msg
	spoof.From = 99
	if ty.VerifyIPC(&spoof) {
		t.Fatal("spoofed sender accepted")
	}
}

func TestRTAttestationBoundedLatency(t *testing.T) {
	ty := newTyTAN(t)
	tr := signedLoad(t, ty, "rt")
	ty.AttestChunk = 128
	res, err := ty.AttestRT(tr, tr.CodeBase(), 1024, []byte("nonce"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Chunks != 8 {
		t.Fatalf("chunks = %d, want 8", res.Chunks)
	}
	if res.WorstCaseLatencyBytes != 128 {
		t.Fatalf("worst-case latency = %d bytes", res.WorstCaseLatencyBytes)
	}
	if !attest.VerifyReport(ty.TrustLite().PlatformKey(), res.Report) {
		t.Fatal("RT attestation report invalid")
	}
	// The uninterruptible span is a fraction of the region — unlike
	// SMART, which holds interrupts for the whole attestation.
	if res.WorstCaseLatencyBytes >= 1024 {
		t.Fatal("no latency improvement over SMART")
	}
}

func TestCapabilitiesExtendTrustLite(t *testing.T) {
	ty := newTyTAN(t)
	caps := ty.Capabilities()
	base := ty.TrustLite().Capabilities()
	if !caps.SealedStorage || !caps.RealTime {
		t.Fatalf("TyTAN capabilities missing extensions: %+v", caps)
	}
	if base.SealedStorage || base.RealTime {
		t.Fatalf("TrustLite base capabilities polluted: %+v", base)
	}
	if !caps.CodeIsolation || !caps.MultipleEnclaves {
		t.Fatalf("inherited capabilities lost: %+v", caps)
	}
}

func TestTrustletsStillIsolatedViaTrustLite(t *testing.T) {
	ty := newTyTAN(t)
	tr := signedLoad(t, ty, "iso")
	tr.WriteData(0, []byte{0x61})
	ty.TrustLite().Boot()
	ret, err := tr.Call(0, tr.DataBase())
	if err != nil {
		t.Fatal(err)
	}
	if ret[0] != tr.DataBase() {
		t.Fatalf("call result = %#x", ret[0])
	}
}
