package sgx

import (
	"bytes"
	"testing"

	"github.com/intrust-sim/intrust/internal/attest"
	"github.com/intrust-sim/intrust/internal/isa"
	"github.com/intrust-sim/intrust/internal/platform"
	"github.com/intrust-sim/intrust/internal/tee"
)

func newSGX(t *testing.T) (*SGX, *platform.Platform) {
	t.Helper()
	p := platform.NewServer()
	s, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	return s, p
}

// counterEnclave increments a counter in its data page and returns it.
// a0 = data base address.
const counterEnclave = `
        .org 0
entry:  lw   t0, 0(a0)
        addi t0, t0, 1
        sw   t0, 0(a0)
        mv   a0, t0
        hlt
`

func TestEnclaveLifecycleAndCall(t *testing.T) {
	s, _ := newSGX(t)
	e, err := s.CreateEnclave(tee.EnclaveConfig{
		Name:     "counter",
		Program:  isa.MustAssemble(counterEnclave),
		DataSize: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	enc := e.(*Enclave)
	for want := uint32(1); want <= 3; want++ {
		ret, err := enc.Call(enc.DataBase())
		if err != nil {
			t.Fatal(err)
		}
		if ret[0] != want {
			t.Fatalf("counter = %d, want %d", ret[0], want)
		}
	}
}

func TestEnclaveMemoryProtectedFromOS(t *testing.T) {
	s, p := newSGX(t)
	e, err := s.CreateEnclave(tee.EnclaveConfig{
		Name: "secret", Program: isa.MustAssemble(".org 0\nhlt"), DataSize: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	enc := e.(*Enclave)
	secret := []byte("enclave secret!!")
	if err := enc.WriteData(0, secret); err != nil {
		t.Fatal(err)
	}
	// OS-privilege read: abort value, not the secret, and NO fault.
	r := tee.ProbeOSAccess(s, e, enc.DataBase()-enc.Base(), secret[0])
	if !r.Secure {
		t.Fatalf("OS access probe: %s", r.Detail)
	}
	// DMA attack: abort values.
	r = tee.ProbeDMA(s, e, enc.DataBase()-enc.Base(), secret[0])
	if !r.Secure {
		t.Fatalf("DMA probe: %s", r.Detail)
	}
	// Physical bus snoop: ciphertext only (the MEE at work).
	r = tee.ProbeBusSnoop(s, e, enc.DataBase()-enc.Base(), secret[0])
	if !r.Secure {
		t.Fatalf("bus snoop probe: %s", r.Detail)
	}
	// The enclave itself reads its plaintext fine.
	got := make([]byte, len(secret))
	if err := enc.ReadData(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Fatalf("enclave read = %q", got)
	}
	_ = p
}

func TestCrossEnclaveIsolation(t *testing.T) {
	s, _ := newSGX(t)
	// Enclave A holds a secret; enclave B tries to read it.
	a, err := s.CreateEnclave(tee.EnclaveConfig{
		Name: "a", Program: isa.MustAssemble(".org 0\nhlt"), DataSize: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	encA := a.(*Enclave)
	if err := encA.WriteData(0, []byte{0x5e, 0xc2}); err != nil {
		t.Fatal(err)
	}
	// B's program loads from an address passed in a0 (A's data page).
	b, err := s.CreateEnclave(tee.EnclaveConfig{
		Name: "b", Program: isa.MustAssemble(".org 0\nlbu a0, 0(a0)\nhlt"), DataSize: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	ret, err := b.(*Enclave).Call(encA.DataBase())
	if err != nil {
		t.Fatal(err)
	}
	if byte(ret[0]) == 0x5e {
		t.Fatal("enclave B read enclave A's plaintext")
	}
	if ret[0] != 0xff {
		t.Fatalf("cross-enclave read = %#x, want abort value 0xff", ret[0])
	}
}

func TestAttestAndQuote(t *testing.T) {
	s, _ := newSGX(t)
	e, err := s.CreateEnclave(tee.EnclaveConfig{
		Name: "attested", Program: isa.MustAssemble(".org 0\nhlt"), DataSize: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	v := attest.NewVerifier()
	v.AllowMeasurement("attested", e.Measurement())
	nonce, _ := v.Challenge()
	// Local attestation.
	r, err := e.Attest(nonce)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.CheckReport(s.ReportKey(), r); err != nil {
		t.Fatalf("local attestation failed: %v", err)
	}
	// Remote attestation via quote.
	nonce2, _ := v.Challenge()
	q := e.(*Enclave).Quote(nonce2)
	if err := v.CheckQuote(s.QuotingPublic().Public(), q); err != nil {
		t.Fatalf("remote attestation failed: %v", err)
	}
}

func TestSealUnsealBoundToEnclave(t *testing.T) {
	s, _ := newSGX(t)
	e1, _ := s.CreateEnclave(tee.EnclaveConfig{
		Name: "e1", Program: isa.MustAssemble(".org 0\nhlt")})
	e2, _ := s.CreateEnclave(tee.EnclaveConfig{
		Name: "e2", Program: isa.MustAssemble(".org 0\nnop\nhlt")})
	blob, err := e1.Seal([]byte("persistent state"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := e1.Unseal(blob)
	if err != nil || string(out) != "persistent state" {
		t.Fatalf("unseal: %q, %v", out, err)
	}
	if _, err := e2.Unseal(blob); err == nil {
		t.Fatal("different enclave unsealed the blob")
	}
}

func TestPageSwapRoundTripAndReplay(t *testing.T) {
	s, _ := newSGX(t)
	e, err := s.CreateEnclave(tee.EnclaveConfig{
		Name: "swapped", Program: isa.MustAssemble(".org 0\nhlt"), DataSize: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	enc := e.(*Enclave)
	if err := enc.WriteData(0, []byte("page payload")); err != nil {
		t.Fatal(err)
	}
	page := enc.DataBase()
	blob, err := s.EWB(enc, page)
	if err != nil {
		t.Fatal(err)
	}
	// Page content zeroed after eviction.
	raw := make([]byte, 12)
	if err := s.mee.ReadPlain(page, raw); err == nil && bytes.Equal(raw, []byte("page payload")) {
		t.Fatal("evicted page still holds plaintext")
	}
	// Blob is ciphertext.
	if bytes.Contains(blob.Payload, []byte("page payload")) {
		t.Fatal("swap blob holds plaintext")
	}
	if err := s.ELD(blob); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 12)
	if err := enc.ReadData(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("page payload")) {
		t.Fatalf("after ELD: %q", got)
	}
	// ELD fills L1 with the page's plaintext lines (Foreshadow preload).
	if !s.plat.Core(0).Hier.InL1(page, enc.ID()) {
		t.Fatal("ELD did not preload L1")
	}
	// Tampered blob rejected.
	blob2, err := s.EWB(enc, page)
	if err != nil {
		t.Fatal(err)
	}
	blob2.Payload[len(blob2.Payload)-1] ^= 1
	if err := s.ELD(blob2); err == nil {
		t.Fatal("tampered swap blob accepted")
	}
}

func TestEWBRejectsForeignPage(t *testing.T) {
	s, _ := newSGX(t)
	e1, _ := s.CreateEnclave(tee.EnclaveConfig{Name: "x", Program: isa.MustAssemble(".org 0\nhlt"), DataSize: 4096})
	e2, _ := s.CreateEnclave(tee.EnclaveConfig{Name: "y", Program: isa.MustAssemble(".org 0\nhlt"), DataSize: 4096})
	if _, err := s.EWB(e1.(*Enclave), e2.(*Enclave).DataBase()); err == nil {
		t.Fatal("EWB of foreign page allowed")
	}
}

func TestDestroyFreesAndZeroes(t *testing.T) {
	s, _ := newSGX(t)
	e, _ := s.CreateEnclave(tee.EnclaveConfig{
		Name: "tmp", Program: isa.MustAssemble(".org 0\nhlt"), DataSize: 4096,
	})
	enc := e.(*Enclave)
	enc.WriteData(0, []byte("gone"))
	base, size := enc.Base(), enc.Size()
	if err := e.Destroy(); err != nil {
		t.Fatal(err)
	}
	if _, err := enc.Call(); err == nil {
		t.Fatal("destroyed enclave callable")
	}
	// Pages reusable by a new enclave.
	e2, err := s.CreateEnclave(tee.EnclaveConfig{
		Name: "reuse", Program: isa.MustAssemble(".org 0\nhlt"), DataSize: size,
	})
	if err != nil {
		t.Fatal(err)
	}
	if e2.Base() > base+size {
		t.Log("allocator did not reuse freed pages (acceptable but unexpected)")
	}
}

func TestMeasurementDiffersByCodeAndName(t *testing.T) {
	s, _ := newSGX(t)
	a, _ := s.CreateEnclave(tee.EnclaveConfig{Name: "m1", Program: isa.MustAssemble(".org 0\nhlt")})
	b, _ := s.CreateEnclave(tee.EnclaveConfig{Name: "m2", Program: isa.MustAssemble(".org 0\nhlt")})
	c, _ := s.CreateEnclave(tee.EnclaveConfig{Name: "m1", Program: isa.MustAssemble(".org 0\nnop\nhlt")})
	if a.Measurement() == b.Measurement() || a.Measurement() == c.Measurement() {
		t.Fatal("measurements collide")
	}
}

func TestCapabilitiesMatchProbes(t *testing.T) {
	s, _ := newSGX(t)
	caps := s.Capabilities()
	if !caps.MemoryEncryption || !caps.DMAProtection || caps.CacheDefense != tee.DefenseNone {
		t.Fatalf("unexpected capability claims: %+v", caps)
	}
	if !caps.MultipleEnclaves || !caps.RemoteAttestation || !caps.SealedStorage {
		t.Fatalf("unexpected capability claims: %+v", caps)
	}
}

func TestQuotingKeyInEPC(t *testing.T) {
	s, _ := newSGX(t)
	addr, n := s.QuotingKeyAddress()
	if addr < s.EPCBase() || n == 0 {
		t.Fatal("quoting key not inside EPC")
	}
	// The key bytes are readable through the MEE (as the quoting enclave
	// would) and match the signing key.
	buf := make([]byte, n)
	if err := s.mee.ReadPlain(addr, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, s.qk.PrivateBytes()) {
		t.Fatal("EPC quoting key mismatch")
	}
}
