package smart

import (
	"testing"

	"github.com/intrust-sim/intrust/internal/attest"
	"github.com/intrust-sim/intrust/internal/isa"
	"github.com/intrust-sim/intrust/internal/platform"
	"github.com/intrust-sim/intrust/internal/tee"
)

func newSMART(t *testing.T) (*SMART, *platform.Platform) {
	t.Helper()
	p := platform.NewEmbedded()
	s, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	return s, p
}

// installTarget loads attested application code at 0x8000: it re-enables
// interrupts and halts — the post-attestation destination.
func installTarget(t *testing.T, p *platform.Platform) (base, size uint32) {
	t.Helper()
	prog := isa.MustAssemble(`
        .org 0x8000
target: li   t0, 1
        csrw status, t0     ; re-enable interrupts, as SMART prescribes
        hlt
`)
	if err := p.Mem.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	return 0x8000, uint32(prog.Size())
}

func nonce16(b byte) []byte {
	n := make([]byte, 16)
	for i := range n {
		n[i] = b
	}
	return n
}

func TestAttestationEndToEnd(t *testing.T) {
	s, p := newSMART(t)
	base, size := installTarget(t, p)
	v := attest.NewVerifier()
	nonce, err := v.Challenge()
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Attest(base, size, nonce, base)
	if err != nil {
		t.Fatal(err)
	}
	// The report verifies against the device key.
	if !attest.VerifyReport(s.Key(), res.Report) {
		t.Fatal("attestation report MAC invalid")
	}
	// And through a full verifier with nonce freshness.
	v.AllowMeasurement("target", res.Report.Measurement)
	if err := v.CheckReport(s.Key(), res.Report); err != nil {
		t.Fatal(err)
	}
	// The flow ended in the attested destination (which halted).
	if !p.Core(0).Halted {
		t.Fatal("control did not reach the destination")
	}
}

func TestModifiedCodeChangesMeasurement(t *testing.T) {
	s, p := newSMART(t)
	base, size := installTarget(t, p)
	res1, err := s.Attest(base, size, nonce16(2), base)
	if err != nil {
		t.Fatal(err)
	}
	// Malware patches one byte of the attested region.
	if err := p.Mem.WriteRaw(base+8, []byte{0x90}); err != nil {
		t.Fatal(err)
	}
	res2, err := s.Attest(base, size, nonce16(3), base)
	if err == nil {
		if res1.Report.Measurement == res2.Report.Measurement {
			t.Fatal("tampered region produced identical measurement")
		}
	}
	// A verifier expecting the clean measurement rejects the new report.
	v := attest.NewVerifier()
	v.AllowMeasurement("clean", res1.Report.Measurement)
	if res2 != nil {
		if err := v.CheckReport(s.Key(), res2.Report); err == nil {
			t.Fatal("verifier accepted tampered code")
		}
	}
}

func TestKeyGateBlocksNonROMCallers(t *testing.T) {
	s, p := newSMART(t)
	// Malicious code outside ROM programs the engine directly and fires
	// it: the PC gate must refuse.
	prog := isa.MustAssemble(`
        .org 0x8000
        li   t0, 0x50000
        li   a0, 0x8000
        sw   a0, 0(t0)
        li   a1, 64
        sw   a1, 4(t0)
        li   t1, 1
        sw   t1, 16(t0)     ; GO from outside ROM
        lw   a0, 20(t0)     ; read status
        hlt
`)
	if err := p.Mem.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	c := p.Core(0)
	c.Reset(0x8000)
	if _, err := c.Run(100); err != nil {
		t.Fatal(err)
	}
	if c.Regs[isa.RegA0] != 2 {
		t.Fatalf("engine status = %d, want 2 (gate violation)", c.Regs[isa.RegA0])
	}
	if s.GateViolations() == 0 {
		t.Fatal("gate violation not counted")
	}
}

func TestInterruptsDelayedDuringAttestation(t *testing.T) {
	s, p := newSMART(t)
	base, size := installTarget(t, p)
	// Raise an interrupt before attestation: it must stay pending until
	// the attested destination re-enables interrupts.
	p.Core(0).RaiseIRQ()
	p.Core(0).SetCSR(isa.CSRTvec, 0x9000)
	isr := isa.MustAssemble(".org 0x9000\nhlt")
	if err := p.Mem.LoadProgram(isr); err != nil {
		t.Fatal(err)
	}
	res, err := s.Attest(base, size, nonce16(4), base)
	if err != nil {
		t.Fatal(err)
	}
	if res.InstructionsWithIRQPending == 0 {
		t.Fatal("IRQ was not delayed during attestation — SMART's RT cost missing")
	}
}

func TestNonceFreshnessBound(t *testing.T) {
	s, p := newSMART(t)
	base, size := installTarget(t, p)
	r1, err := s.Attest(base, size, nonce16(7), base)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Attest(base, size, nonce16(8), base)
	if err != nil {
		t.Fatal(err)
	}
	if string(r1.Report.MAC) == string(r2.Report.MAC) {
		t.Fatal("different nonces produced identical MACs")
	}
}

func TestNoEnclavesAndCapabilities(t *testing.T) {
	s, _ := newSMART(t)
	if _, err := s.CreateEnclave(tee.EnclaveConfig{}); err == nil {
		t.Fatal("SMART created an enclave")
	}
	caps := s.Capabilities()
	if caps.CodeIsolation || caps.DMAProtection || caps.RealTime || !caps.RemoteAttestation {
		t.Fatalf("capabilities wrong: %+v", caps)
	}
}

func TestBadNonceLength(t *testing.T) {
	s, p := newSMART(t)
	base, size := installTarget(t, p)
	if _, err := s.Attest(base, size, []byte("short"), base); err == nil {
		t.Fatal("short nonce accepted")
	}
}
