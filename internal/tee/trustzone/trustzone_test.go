package trustzone

import (
	"testing"

	"github.com/intrust-sim/intrust/internal/attest"
	"github.com/intrust-sim/intrust/internal/cpu"
	"github.com/intrust-sim/intrust/internal/isa"
	"github.com/intrust-sim/intrust/internal/mem"
	"github.com/intrust-sim/intrust/internal/platform"
	"github.com/intrust-sim/intrust/internal/tee"
)

func newTZ(t *testing.T) (*TrustZone, *platform.Platform) {
	t.Helper()
	p := platform.NewMobile()
	tz, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	return tz, p
}

func TestSecureBootVerifiesSignatures(t *testing.T) {
	tz, _ := newTZ(t)
	img := []byte("secure world image v1")
	sig := tz.SignImage(img)
	if err := tz.SecureBoot(img, sig); err != nil {
		t.Fatalf("genuine image rejected: %v", err)
	}
	// Tampered image: rejected.
	bad := append([]byte{}, img...)
	bad[0] ^= 1
	if err := tz.SecureBoot(bad, sig); err == nil {
		t.Fatal("tampered image booted")
	}
	// Wrong-key signature rejected.
	other := attest.NewQuotingKey([32]byte{1})
	q := other.Sign(attest.NewReport(nil, attest.Measure(img), []byte("boot"), nil))
	if err := tz.SecureBoot(img, q.Signature); err == nil {
		t.Fatal("foreign signature booted")
	}
}

func TestWorldSeparationOnBus(t *testing.T) {
	tz, p := newTZ(t)
	secret := []byte{0xC4, 0xFE}
	if err := p.Mem.WriteRaw(tz.SecureBase(), secret); err != nil {
		t.Fatal(err)
	}
	normalRead := mem.Access{
		Addr: tz.SecureBase(), Size: 1, Kind: mem.KindLoad,
		Priv: isa.PrivSuper, World: mem.WorldNormal,
		Init: mem.Initiator{Type: mem.InitCPU, ID: 0},
	}
	if _, err := p.Ctrl.Read(normalRead); err == nil {
		t.Fatal("normal world read secure memory")
	}
	secureRead := normalRead
	secureRead.World = mem.WorldSecure
	if v, err := p.Ctrl.Read(secureRead); err != nil || byte(v) != 0xC4 {
		t.Fatalf("secure world read failed: %#x, %v", v, err)
	}
	// Normal-world DMA blocked (the TZASC DMA access control).
	buf := make([]byte, 2)
	if err := p.DMA.ReadInto(tz.SecureBase(), buf); err == nil {
		t.Fatal("normal-world DMA read secure memory")
	}
}

func TestMonitorDispatchAndWorldRestore(t *testing.T) {
	tz, p := newTZ(t)
	tz.RegisterService(7, func(c *cpu.CPU, args [3]uint32) [2]uint32 {
		if c.World != mem.WorldSecure {
			t.Error("service not running in secure world")
		}
		return [2]uint32{args[0] + args[1], 0}
	})
	// Normal-world program invokes the service via SMC.
	prog := isa.MustAssemble(`
        li  a1, 30
        li  a2, 12
        smc 7
        hlt
`)
	if err := p.Mem.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	c := p.Core(0)
	c.Reset(prog.Entry)
	c.SMCHandler = tz.monitor
	c.World = mem.WorldNormal
	if _, err := c.Run(100); err != nil {
		t.Fatal(err)
	}
	if c.Regs[isa.RegA0] != 42 {
		t.Fatalf("service result = %d", c.Regs[isa.RegA0])
	}
	if c.World != mem.WorldNormal {
		t.Fatal("world not restored after SMC")
	}
	if tz.MonitorCalls == 0 {
		t.Fatal("monitor call not counted")
	}
	// Unknown service returns the error marker.
	prog2 := isa.MustAssemble("smc 99\nhlt")
	if err := p.Mem.LoadProgram(prog2); err != nil {
		t.Fatal(err)
	}
	c.Reset(prog2.Entry)
	c.SMCHandler = tz.monitor
	if _, err := c.Run(100); err != nil {
		t.Fatal(err)
	}
	if c.Regs[isa.RegA0] != 0xffffffff {
		t.Fatalf("unknown service a0 = %#x", c.Regs[isa.RegA0])
	}
}

func TestSingleEnclaveLimit(t *testing.T) {
	tz, _ := newTZ(t)
	prog := isa.MustAssemble(".org 0\nmv a0, a1\nhlt")
	e, err := tz.CreateEnclave(tee.EnclaveConfig{Name: "ta1", Program: prog})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tz.CreateEnclave(tee.EnclaveConfig{Name: "ta2", Program: prog}); err == nil {
		t.Fatal("TrustZone admitted a second enclave")
	}
	// After destroying, the slot frees up.
	if err := e.Destroy(); err != nil {
		t.Fatal(err)
	}
	if _, err := tz.CreateEnclave(tee.EnclaveConfig{Name: "ta3", Program: prog}); err != nil {
		t.Fatalf("slot not released: %v", err)
	}
}

func TestEnclaveRunsInSecureWorld(t *testing.T) {
	tz, _ := newTZ(t)
	// The enclave reads its own secure memory — allowed because it runs
	// with the secure world attribute.
	prog := isa.MustAssemble(".org 0\nlbu a0, 0(a1)\nhlt")
	e, err := tz.CreateEnclave(tee.EnclaveConfig{Name: "reader", Program: prog})
	if err != nil {
		t.Fatal(err)
	}
	enc := e.(*Enclave)
	if err := enc.WriteData(0, []byte{0x77}); err != nil {
		t.Fatal(err)
	}
	ret, err := enc.Call(0, enc.DataBase())
	if err != nil {
		t.Fatal(err)
	}
	if ret[0] != 0x77 {
		t.Fatalf("secure read = %#x", ret[0])
	}
}

func TestSecurePeripheralChannel(t *testing.T) {
	tz, p := newTZ(t)
	dev := &fakeDevice{}
	region := mem.Region{Name: "fingerprint", Base: 0x1F000000, Size: 16, Kind: mem.RegionMMIO, Device: dev}
	p.Mem.MustAddRegion(region)
	tz.AssignSecurePeripheral(region)
	normal := mem.Access{Addr: 0x1F000000, Size: 4, Kind: mem.KindLoad,
		Priv: isa.PrivSuper, World: mem.WorldNormal, Init: mem.Initiator{Type: mem.InitCPU}}
	if _, err := p.Ctrl.Read(normal); err == nil {
		t.Fatal("normal world reached secure peripheral")
	}
	secure := normal
	secure.World = mem.WorldSecure
	if _, err := p.Ctrl.Read(secure); err != nil {
		t.Fatalf("secure world denied its peripheral: %v", err)
	}
}

type fakeDevice struct{ regs [4]uint32 }

func (d *fakeDevice) Read32(off uint32) uint32     { return d.regs[off/4] }
func (d *fakeDevice) Write32(off uint32, v uint32) { d.regs[off/4] = v }

func TestAttestSealWithDeviceKey(t *testing.T) {
	tz, _ := newTZ(t)
	prog := isa.MustAssemble(".org 0\nhlt")
	e, err := tz.CreateEnclave(tee.EnclaveConfig{Name: "ta", Program: prog})
	if err != nil {
		t.Fatal(err)
	}
	v := attest.NewVerifier()
	v.AllowMeasurement("ta", e.Measurement())
	nonce, _ := v.Challenge()
	r, _ := e.Attest(nonce)
	if err := v.CheckReport(tz.DeviceKey(), r); err != nil {
		t.Fatal(err)
	}
	blob, err := e.Seal([]byte("tz state"))
	if err != nil {
		t.Fatal(err)
	}
	if out, err := e.Unseal(blob); err != nil || string(out) != "tz state" {
		t.Fatalf("unseal: %q %v", out, err)
	}
}

func TestNoCacheHygieneOnWorldSwitch(t *testing.T) {
	// TrustZone does NOT flush caches on world switches — the TruSpy-style
	// observation channel stays open. Verify the deliberate insecurity.
	tz, p := newTZ(t)
	prog := isa.MustAssemble(".org 0\nlw t0, 0(a1)\nhlt")
	e, err := tz.CreateEnclave(tee.EnclaveConfig{Name: "leaky", Program: prog})
	if err != nil {
		t.Fatal(err)
	}
	enc := e.(*Enclave)
	if _, err := enc.Call(0, enc.DataBase()); err != nil {
		t.Fatal(err)
	}
	if !p.Core(0).Hier.InL1(enc.DataBase(), SecureDomain) {
		t.Fatal("secure-world cache footprint was flushed — model diverges from TrustZone")
	}
}
