package sanctuary

import (
	"testing"

	"github.com/intrust-sim/intrust/internal/attest"
	"github.com/intrust-sim/intrust/internal/isa"
	"github.com/intrust-sim/intrust/internal/mem"
	"github.com/intrust-sim/intrust/internal/platform"
	"github.com/intrust-sim/intrust/internal/tee"
	"github.com/intrust-sim/intrust/internal/tee/trustzone"
)

func newSanctuary(t *testing.T) (*Sanctuary, *platform.Platform) {
	t.Helper()
	p := platform.NewMobile()
	tz, err := trustzone.New(p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(tz)
	if err != nil {
		t.Fatal(err)
	}
	return s, p
}

const echoEnclave = `
        .org 0
entry:  lw   t0, 0(a0)
        addi t0, t0, 7
        sw   t0, 0(a0)
        mv   a0, t0
        hlt
`

func TestMultipleEnclaves(t *testing.T) {
	s, _ := newSanctuary(t)
	// The whole point: unlike TrustZone, N enclaves are fine.
	var encs []*Enclave
	for i := 0; i < 4; i++ {
		e, err := s.CreateEnclave(tee.EnclaveConfig{
			Name: "app" + string(rune('A'+i)), Program: isa.MustAssemble(echoEnclave), DataSize: 4096,
		})
		if err != nil {
			t.Fatalf("enclave %d: %v", i, err)
		}
		encs = append(encs, e.(*Enclave))
	}
	for _, e := range encs {
		ret, err := e.Call(e.DataBase())
		if err != nil {
			t.Fatal(err)
		}
		if ret[0] != 7 {
			t.Fatalf("ret = %d", ret[0])
		}
	}
}

func TestEnclavesRunInNormalWorldOnReservedCore(t *testing.T) {
	s, _ := newSanctuary(t)
	e, err := s.CreateEnclave(tee.EnclaveConfig{
		Name: "nw", Program: isa.MustAssemble(".org 0\ncsrr a0, world\nhlt"), DataSize: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	ret, err := e.(*Enclave).Call()
	if err != nil {
		t.Fatal(err)
	}
	if ret[0] != uint32(mem.WorldNormal) {
		t.Fatalf("enclave world = %d, want normal", ret[0])
	}
}

func TestIsolationFromOSAndOtherCore(t *testing.T) {
	s, p := newSanctuary(t)
	e, err := s.CreateEnclave(tee.EnclaveConfig{
		Name: "iso", Program: isa.MustAssemble(".org 0\nhlt"), DataSize: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	enc := e.(*Enclave)
	if err := enc.WriteData(0, []byte{0xEE}); err != nil {
		t.Fatal(err)
	}
	off := enc.DataBase() - enc.Base()
	// OS on core 0: denied (identity check fails on core ID).
	if r := tee.ProbeOSAccess(s, e, off, 0xEE); !r.Secure {
		t.Fatalf("OS probe: %s", r.Detail)
	}
	// DMA: denied.
	if r := tee.ProbeDMA(s, e, off, 0xEE); !r.Secure {
		t.Fatalf("DMA probe: %s", r.Detail)
	}
	// No memory encryption: physical snoop sees plaintext (inherent to
	// TrustZone-based designs).
	if r := tee.ProbeBusSnoop(s, e, off, 0xEE); r.Secure {
		t.Fatalf("bus snoop should see plaintext: %s", r.Detail)
	}
	_ = p
}

func TestSharedCacheExclusion(t *testing.T) {
	s, p := newSanctuary(t)
	e, err := s.CreateEnclave(tee.EnclaveConfig{
		Name: "excl", Program: isa.MustAssemble(".org 0\nlw t0, 0(a0)\nhlt"), DataSize: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	enc := e.(*Enclave)
	if _, err := enc.Call(enc.DataBase()); err != nil {
		t.Fatal(err)
	}
	// Enclave memory must never appear in the shared LLC.
	if p.LLC.Lookup(enc.DataBase(), enc.ID()) {
		t.Fatal("enclave line reached the shared LLC despite exclusion")
	}
	// And the L1 was flushed on exit.
	if p.Core(reservedCore).Hier.InL1(enc.DataBase(), enc.ID()) {
		t.Fatal("enclave line survived the exit flush")
	}
	// Ordinary memory still uses the LLC.
	p.Core(0).Hier.Data(0x4000, false, 0)
	if !p.LLC.Lookup(0x4000, 0) {
		t.Fatal("normal memory stopped using the LLC")
	}
}

func TestAttestAndSealViaSecureWorld(t *testing.T) {
	s, _ := newSanctuary(t)
	e, err := s.CreateEnclave(tee.EnclaveConfig{
		Name: "sec", Program: isa.MustAssemble(".org 0\nhlt")})
	if err != nil {
		t.Fatal(err)
	}
	v := attest.NewVerifier(attest.Policy{Freshness: true})
	v.AllowMeasurement("sec", e.Measurement())
	nonce, _ := v.Challenge()
	r, _ := e.Attest(nonce)
	if err := v.CheckReport(s.tz.DeviceKey(), r); err != nil {
		t.Fatal(err)
	}
	blob, err := e.Seal([]byte("sanctuary data"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Unseal(blob)
	if err != nil || string(out) != "sanctuary data" {
		t.Fatalf("unseal: %q %v", out, err)
	}
	// A different enclave cannot unseal.
	e2, _ := s.CreateEnclave(tee.EnclaveConfig{Name: "other", Program: isa.MustAssemble(".org 0\nnop\nhlt")})
	if _, err := e2.Unseal(blob); err == nil {
		t.Fatal("foreign enclave unsealed")
	}
}

func TestDestroyReleasesIsolation(t *testing.T) {
	s, p := newSanctuary(t)
	e, _ := s.CreateEnclave(tee.EnclaveConfig{
		Name: "tmp", Program: isa.MustAssemble(".org 0\nhlt"), DataSize: 4096})
	enc := e.(*Enclave)
	enc.WriteData(0, []byte{9})
	base := enc.DataBase()
	if err := enc.Destroy(); err != nil {
		t.Fatal(err)
	}
	// After destroy, the OS can use the memory again — and it is scrubbed.
	acc := mem.Access{Addr: base, Size: 1, Kind: mem.KindLoad,
		Priv: isa.PrivSuper, World: mem.WorldNormal, Init: mem.Initiator{Type: mem.InitCPU}}
	v, err := p.Ctrl.Read(acc)
	if err != nil {
		t.Fatalf("freed memory unreadable: %v", err)
	}
	if v != 0 {
		t.Fatal("destroyed enclave memory not scrubbed")
	}
}

func TestNeedsSpareCore(t *testing.T) {
	p := platform.NewEmbedded() // single core
	tz, err := trustzone.New(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(tz); err == nil {
		t.Fatal("Sanctuary accepted single-core platform")
	}
}
