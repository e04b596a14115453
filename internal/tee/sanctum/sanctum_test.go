package sanctum

import (
	"bytes"
	"testing"

	"github.com/intrust-sim/intrust/internal/attest"
	"github.com/intrust-sim/intrust/internal/isa"
	"github.com/intrust-sim/intrust/internal/platform"
	"github.com/intrust-sim/intrust/internal/tee"
)

func newSanctum(t *testing.T) (*Sanctum, *platform.Platform) {
	t.Helper()
	p := platform.NewServer()
	s, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	return s, p
}

const addEnclave = `
        .org 0
entry:  lw   t0, 0(a0)
        addi t0, t0, 5
        sw   t0, 0(a0)
        mv   a0, t0
        hlt
`

func TestEnclaveLifecycle(t *testing.T) {
	s, _ := newSanctum(t)
	e, err := s.CreateEnclave(tee.EnclaveConfig{
		Name: "adder", Program: isa.MustAssemble(addEnclave), DataSize: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	enc := e.(*Enclave)
	ret, err := enc.Call(enc.DataPage())
	if err != nil {
		t.Fatal(err)
	}
	if ret[0] != 5 {
		t.Fatalf("ret = %d", ret[0])
	}
	ret, _ = enc.Call(enc.DataPage())
	if ret[0] != 10 {
		t.Fatalf("second call ret = %d", ret[0])
	}
}

func TestIsolationProbes(t *testing.T) {
	s, _ := newSanctum(t)
	e, err := s.CreateEnclave(tee.EnclaveConfig{
		Name: "holder", Program: isa.MustAssemble(".org 0\nhlt"), DataSize: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	enc := e.(*Enclave)
	secret := []byte{0xAB}
	if err := enc.WriteData(0, secret); err != nil {
		t.Fatal(err)
	}
	off := enc.DataPage() - enc.Base() // probe offsets are relative to Base
	// OS access: denied (bus error), unlike SGX's silent abort.
	if r := tee.ProbeOSAccess(s, e, off, 0xAB); !r.Secure {
		t.Fatalf("OS probe: %s", r.Detail)
	}
	// DMA: denied by the modified memory controller.
	if r := tee.ProbeDMA(s, e, off, 0xAB); !r.Secure {
		t.Fatalf("DMA probe: %s", r.Detail)
	}
	// Bus snoop: Sanctum has NO memory encryption — plaintext visible.
	r := tee.ProbeBusSnoop(s, e, off, 0xAB)
	if r.Secure {
		t.Fatalf("bus snoop should see plaintext on Sanctum: %s", r.Detail)
	}
}

func TestLLCPartitionDisjoint(t *testing.T) {
	s, _ := newSanctum(t)
	e1, err := s.CreateEnclave(tee.EnclaveConfig{Name: "p1", Program: isa.MustAssemble(".org 0\nhlt")})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := s.CreateEnclave(tee.EnclaveConfig{Name: "p2", Program: isa.MustAssemble(".org 0\nhlt")})
	if err != nil {
		t.Fatal(err)
	}
	sets1 := s.LLCSetsOf(e1.(*Enclave).Pages())
	sets2 := s.LLCSetsOf(e2.(*Enclave).Pages())
	// OS memory (color 0 region of the arena).
	osSets := s.LLCSetsOf([]uint32{s.arenaBase})
	for set := range sets1 {
		if sets2[set] {
			t.Fatalf("enclaves share LLC set %d — partition broken", set)
		}
		if osSets[set] {
			t.Fatalf("OS shares enclave LLC set %d", set)
		}
	}
	// Same-enclave pages share their color's sets (sanity).
	if e1.(*Enclave).Color() == e2.(*Enclave).Color() {
		t.Fatal("enclaves assigned the same color")
	}
}

func TestColorGeometry(t *testing.T) {
	s, p := newSanctum(t)
	cfg := p.LLC.Config()
	if s.NumColors() != cfg.Sets*cfg.LineSize/4096 {
		t.Fatalf("colors = %d", s.NumColors())
	}
	// Pages one stride apart share a color.
	if s.ColorOf(0x1000) != s.ColorOf(0x1000+s.colorStride) {
		t.Fatal("stride does not preserve color")
	}
	if s.ColorOf(0x1000) == s.ColorOf(0x2000) {
		t.Fatal("adjacent pages share a color")
	}
}

func TestFlushOnSwitch(t *testing.T) {
	s, p := newSanctum(t)
	e, err := s.CreateEnclave(tee.EnclaveConfig{
		Name: "toucher",
		// Touch own data page, leaving L1 lines behind.
		Program:  isa.MustAssemble(".org 0\nlw t0, 0(a0)\nhlt"),
		DataSize: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	enc := e.(*Enclave)
	if _, err := enc.Call(enc.DataPage()); err != nil {
		t.Fatal(err)
	}
	// After exit, no enclave state may remain in core-exclusive caches.
	if p.Core(0).Hier.InL1(enc.DataPage(), enc.ID()) {
		t.Fatal("enclave line survived context-switch flush in L1")
	}
	if p.Core(0).Hier.L2 != nil && p.Core(0).Hier.L2.Lookup(enc.DataPage(), enc.ID()) {
		t.Fatal("enclave line survived context-switch flush in L2")
	}
}

func TestAttestSealFlow(t *testing.T) {
	s, _ := newSanctum(t)
	e, _ := s.CreateEnclave(tee.EnclaveConfig{Name: "att", Program: isa.MustAssemble(".org 0\nhlt")})
	v := attest.NewVerifier(attest.Policy{Freshness: true})
	v.AllowMeasurement("att", e.Measurement())
	nonce, _ := v.Challenge()
	r, err := e.Attest(nonce)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.CheckReport(s.MonitorKey(), r); err != nil {
		t.Fatal(err)
	}
	blob, err := e.Seal([]byte("state"))
	if err != nil {
		t.Fatal(err)
	}
	out, err := e.Unseal(blob)
	if err != nil || !bytes.Equal(out, []byte("state")) {
		t.Fatalf("unseal: %q %v", out, err)
	}
}

func TestDestroyScrubsPages(t *testing.T) {
	s, _ := newSanctum(t)
	e, _ := s.CreateEnclave(tee.EnclaveConfig{Name: "gone", Program: isa.MustAssemble(".org 0\nhlt"), DataSize: 4096})
	enc := e.(*Enclave)
	enc.WriteData(0, []byte{1, 2, 3})
	page := enc.DataPage()
	if err := enc.Destroy(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3)
	if err := s.plat.Mem.ReadRaw(page, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte{0, 0, 0}) {
		t.Fatal("destroyed enclave page not scrubbed")
	}
	if _, err := enc.Call(); err == nil {
		t.Fatal("destroyed enclave callable")
	}
}

func TestRequiresSharedLLC(t *testing.T) {
	if _, err := New(platform.NewEmbedded()); err == nil {
		t.Fatal("Sanctum accepted a platform without LLC")
	}
}

func TestEnclaveImageValidation(t *testing.T) {
	s, _ := newSanctum(t)
	if _, err := s.CreateEnclave(tee.EnclaveConfig{Name: "nil"}); err == nil {
		t.Fatal("nil program accepted")
	}
	multi := isa.MustAssemble(".org 0\nhlt\n.org 0x10000\nhlt")
	if _, err := s.CreateEnclave(tee.EnclaveConfig{Name: "multi", Program: multi}); err == nil {
		t.Fatal("multi-segment image accepted")
	}
}
