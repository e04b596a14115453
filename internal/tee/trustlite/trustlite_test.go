package trustlite

import (
	"testing"

	"github.com/intrust-sim/intrust/internal/attest"
	"github.com/intrust-sim/intrust/internal/isa"
	"github.com/intrust-sim/intrust/internal/platform"
	"github.com/intrust-sim/intrust/internal/tee"
)

func newTrustLite(t *testing.T) (*TrustLite, *platform.Platform) {
	t.Helper()
	p := platform.NewEmbedded()
	tl, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	return tl, p
}

const trustletProg = `
        .org 0
entry:  lw   t0, 0(a0)
        addi t0, t0, 3
        sw   t0, 0(a0)
        mv   a0, t0
        hlt
`

func TestLoaderBootFlow(t *testing.T) {
	tl, _ := newTrustLite(t)
	tr1, err := tl.LoadTrustlet(tee.EnclaveConfig{
		Name: "keystore", Program: isa.MustAssemble(trustletProg), DataSize: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := tl.LoadTrustlet(tee.EnclaveConfig{
		Name: "logger", Program: isa.MustAssemble(trustletProg), DataSize: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	tl.Boot()
	if !tl.Booted() {
		t.Fatal("boot flag unset")
	}
	// Static protection: no late loading.
	if _, err := tl.LoadTrustlet(tee.EnclaveConfig{
		Name: "late", Program: isa.MustAssemble(trustletProg)}); err == nil {
		t.Fatal("trustlet loaded after MPU lock")
	}
	// Both trustlets run.
	for _, tr := range []*Trustlet{tr1, tr2} {
		ret, err := tr.Call(tr.DataBase())
		if err != nil {
			t.Fatal(err)
		}
		if ret[0] != 3 {
			t.Fatalf("ret = %d", ret[0])
		}
	}
}

func TestEAMPUIsolatesTrustletData(t *testing.T) {
	tl, p := newTrustLite(t)
	tr, err := tl.LoadTrustlet(tee.EnclaveConfig{
		Name: "secret-holder", Program: isa.MustAssemble(trustletProg), DataSize: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteData(0, []byte{0x42}); err != nil {
		t.Fatal(err)
	}
	tl.Boot()
	// The OS (outside the trustlet code region) reads trustlet data: the
	// EA-MPU faults the access.
	osProg := isa.MustAssemble(`
        .org 0x8000
        li   t1, 0x9100
        csrw tvec, t1
        lbu  a0, 0(a1)
        hlt
        .org 0x9100
trap:   li   a0, 0
        hlt
`)
	if err := p.Mem.LoadProgram(osProg); err != nil {
		t.Fatal(err)
	}
	c := p.Core(0)
	c.Reset(0x8000)
	c.Priv = isa.PrivSuper
	c.Regs[isa.RegA1] = tr.DataBase()
	if _, err := c.Run(100); err != nil {
		t.Fatal(err)
	}
	if c.Regs[isa.RegA0] == 0x42 {
		t.Fatal("OS read trustlet data through the EA-MPU")
	}
	// The trustlet itself reads its data fine.
	ret, err := tr.Call(tr.DataBase())
	if err != nil {
		t.Fatal(err)
	}
	if ret[0] != 0x42+3 {
		t.Fatalf("owner read = %d", ret[0])
	}
}

func TestCrossTrustletIsolation(t *testing.T) {
	tl, _ := newTrustLite(t)
	a, err := tl.LoadTrustlet(tee.EnclaveConfig{
		Name: "a", Program: isa.MustAssemble(trustletProg), DataSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	// Trustlet B's code tries to read A's data region. The EA-MPU faults
	// the access; with no trap vector installed the fault surfaces as a
	// run error from Call.
	b, err := tl.LoadTrustlet(tee.EnclaveConfig{
		Name: "b", Program: isa.MustAssemble(".org 0\nlbu a0, 0(a0)\nhlt"), DataSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	a.WriteData(0, []byte{0x55})
	tl.Boot()
	ret, err := b.Call(a.DataBase())
	if err == nil && ret[0] == 0x55 {
		t.Fatal("trustlet B read trustlet A's data")
	}
	if err == nil {
		t.Fatal("cross-trustlet read did not fault")
	}
}

func TestAttestation(t *testing.T) {
	tl, _ := newTrustLite(t)
	tr, err := tl.LoadTrustlet(tee.EnclaveConfig{
		Name: "attested", Program: isa.MustAssemble(trustletProg)})
	if err != nil {
		t.Fatal(err)
	}
	tl.Boot()
	v := attest.NewVerifier(attest.Policy{Freshness: true})
	v.AllowMeasurement("attested", tr.Measurement())
	nonce, _ := v.Challenge()
	r, err := tr.Attest(nonce)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.CheckReport(tl.PlatformKey(), r); err != nil {
		t.Fatal(err)
	}
}

func TestNoSealedStorageInPlainTrustLite(t *testing.T) {
	tl, _ := newTrustLite(t)
	tr, _ := tl.LoadTrustlet(tee.EnclaveConfig{
		Name: "x", Program: isa.MustAssemble(trustletProg)})
	if _, err := tr.Seal([]byte("data")); err == nil {
		t.Fatal("plain TrustLite sealed data (that is TyTAN's feature)")
	}
	if err := tr.Destroy(); err == nil {
		t.Fatal("static trustlet destroyed")
	}
}

func TestRequiresMPU(t *testing.T) {
	p := platform.NewServer() // no MPU
	if _, err := New(p); err == nil {
		t.Fatal("TrustLite accepted MPU-less platform")
	}
}
