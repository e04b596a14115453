// Package trustzone implements the ARM TrustZone model from Section 3.2:
// the system is split into a normal and a secure world, separated by
// hardware world tags on every bus access. The secure world is the
// system's single enclave; a monitor performs world switches (SMC) and
// verifies all secure-world code at boot using digital signatures. A
// TZASC-style address space controller provides DMA access control and
// secure peripheral assignment. There is no cache partitioning and no
// flush-on-switch — cache side channels into the secure world remain open
// (TruSpy), as the paper notes.
//
// See docs/ARCHITECTURE.md for the full package map and the
// paper-section cross-reference.
package trustzone

import (
	"fmt"

	"github.com/intrust-sim/intrust/internal/attest"
	"github.com/intrust-sim/intrust/internal/cpu"
	"github.com/intrust-sim/intrust/internal/isa"
	"github.com/intrust-sim/intrust/internal/mem"
	"github.com/intrust-sim/intrust/internal/platform"
	"github.com/intrust-sim/intrust/internal/tee"
)

// SecureDomain is the cache/bus domain tag of secure-world execution.
const SecureDomain = 1

// Service is a secure-world service invocable through the monitor.
// It receives the calling core and the SMC argument registers a1..a3 and
// returns up to two result words.
type Service func(c *cpu.CPU, args [3]uint32) [2]uint32

// TrustZone is one TrustZone-enabled SoC.
type TrustZone struct {
	plat *platform.Platform

	secBase, secSize uint32
	secureMMIO       []mem.Region

	deviceKey []byte // device-unique attestation secret

	services map[int]Service
	// MonitorCalls counts world switches.
	MonitorCalls uint64

	enclave    *Enclave // the single enclave (the secure world)
	secureMeas attest.Measurement
	booted     bool
}

// Enclave is TrustZone's single enclave: code living in the secure world.
type Enclave struct {
	tz    *TrustZone
	meas  attest.Measurement
	entry uint32
	data  uint32
}

// vendorKey is the SoC vendor's image-signing key (its public part
// verifies secure-world images at boot). It is the vendor's, not the
// device's, so it derives from a fixed vendor label, not a platform fuse.
var vendorKey = attest.NewQuotingKey(attest.DeriveKey([32]byte{}, "vendor/trustzone"))

// New installs TrustZone on a (mobile) platform: secure memory window and
// the TZASC filter, plus the monitor on every core.
func New(p *platform.Platform) (*TrustZone, error) {
	secret := attest.DeriveKey(p.Fuse, "trustzone/device")
	tz := &TrustZone{
		plat:      p,
		secBase:   24 << 20, // top 8 MiB of DRAM is secure-world memory
		secSize:   8 << 20,
		deviceKey: secret[:],
		services:  map[int]Service{},
	}
	p.Ctrl.AddFilter(mem.FuncFilter{FilterName: "tzasc", Fn: tz.tzascCheck})
	for _, c := range p.Cores {
		c.SMCHandler = tz.monitor
		c.World = mem.WorldNormal // boot hand-off leaves cores in normal world
	}
	return tz, nil
}

// tzascCheck enforces world separation: secure memory and secure
// peripherals respond only to secure-world masters. Violations are bus
// errors (TrustZone raises external aborts).
func (tz *TrustZone) tzascCheck(a mem.Access) mem.Action {
	inSecure := a.Addr >= tz.secBase && a.Addr-tz.secBase < tz.secSize
	if !inSecure {
		for _, r := range tz.secureMMIO {
			if r.Contains(a.Addr) {
				inSecure = true
				break
			}
		}
	}
	if !inSecure {
		return mem.ActionAllow
	}
	if a.World == mem.WorldSecure {
		return mem.ActionAllow
	}
	return mem.ActionDeny
}

// monitor is the SMC handler: it switches worlds, dispatches secure
// services, and returns to the caller's world.
func (tz *TrustZone) monitor(c *cpu.CPU, code int32) bool {
	tz.MonitorCalls++
	svc, ok := tz.services[int(code)]
	if !ok {
		c.Regs[isa.RegA0] = 0xffffffff // unknown service
		return true
	}
	prevWorld, prevDomain := c.World, c.Domain
	c.World = mem.WorldSecure
	c.Domain = SecureDomain
	args := [3]uint32{c.Regs[isa.RegA1], c.Regs[isa.RegA2], c.Regs[isa.RegA3]}
	ret := svc(c, args)
	c.Regs[isa.RegA0] = ret[0]
	c.Regs[isa.RegA1] = ret[1]
	// Return to the normal world. Note: no cache flush on the way out —
	// the secure world's cache footprint stays observable.
	c.World = prevWorld
	c.Domain = prevDomain
	return true
}

// RegisterService installs a secure-world service under an SMC code.
func (tz *TrustZone) RegisterService(code int, s Service) { tz.services[code] = s }

// SignImage signs a secure-world image (vendor provisioning step).
func (tz *TrustZone) SignImage(img []byte) []byte {
	return vendorKey.SignImage("trustzone", img)
}

// SecureBoot verifies the image signature and, only on success, installs
// the image into secure memory — "the monitor code ... verifies all
// secure world code during boot using digital signatures".
func (tz *TrustZone) SecureBoot(img, sig []byte) error {
	if !attest.ImageSignedBy(vendorKey.Public(), "trustzone", img, sig) {
		return fmt.Errorf("trustzone: secure boot: signature verification failed")
	}
	if uint32(len(img)) > tz.secSize {
		return fmt.Errorf("trustzone: image larger than secure memory")
	}
	if err := tz.plat.Mem.WriteRaw(tz.secBase, img); err != nil {
		return err
	}
	tz.secureMeas = attest.Measure(img)
	tz.booted = true
	return nil
}

// AssignSecurePeripheral marks an MMIO region secure-world-only (TZASC
// peripheral assignment), establishing a secure channel to the device.
func (tz *TrustZone) AssignSecurePeripheral(r mem.Region) {
	tz.secureMMIO = append(tz.secureMMIO, r)
}

// Name implements tee.Architecture.
func (tz *TrustZone) Name() string { return "ARM TrustZone (model)" }

// Platform implements tee.Architecture.
func (tz *TrustZone) Platform() *platform.Platform { return tz.plat }

// Capabilities implements tee.Architecture.
func (tz *TrustZone) Capabilities() tee.Capabilities {
	return tee.Capabilities{
		MultipleEnclaves:  false, // the defining limitation Sanctuary fixes
		MemoryEncryption:  false,
		DMAProtection:     true, // TZASC
		CacheDefense:      tee.DefenseNone,
		FlushOnSwitch:     false,
		RemoteAttestation: true, // vendor-specific device-key attestation
		SealedStorage:     true,
		RealTime:          false,
		SecurePeripherals: true, // the capability SGX and Sanctum lack
		CodeIsolation:     true,
	}
}

// SecureBase returns the secure-world memory base.
func (tz *TrustZone) SecureBase() uint32 { return tz.secBase }

// DeviceKey exposes the attestation secret to local verifiers.
func (tz *TrustZone) DeviceKey() []byte { return tz.deviceKey }

// CreateEnclave provides the single enclave: the secure world itself.
// A second call fails — the device vendor must be convinced to admit each
// app into the secure world, the trust-relationship cost the paper
// describes.
func (tz *TrustZone) CreateEnclave(cfg tee.EnclaveConfig) (tee.Enclave, error) {
	if tz.enclave != nil {
		return nil, fmt.Errorf("trustzone: secure world already occupied (single enclave): %w", tee.ErrUnsupported)
	}
	if cfg.Program == nil || len(cfg.Program.Segments) != 1 {
		return nil, fmt.Errorf("trustzone: enclave needs a single-segment program")
	}
	img := cfg.Program.Segments[0].Data
	sig := tz.SignImage(img) // vendor signs admitted apps
	if err := tz.SecureBoot(img, sig); err != nil {
		return nil, err
	}
	e := &Enclave{
		tz:    tz,
		meas:  attest.Measure(img).Extend([]byte(cfg.Name)),
		entry: tz.secBase + (cfg.Program.Entry - cfg.Program.Segments[0].Base),
		data:  tz.secBase + 4096*((uint32(len(img))+4095)/4096),
	}
	tz.enclave = e
	return e, nil
}

// ID implements tee.Enclave.
func (e *Enclave) ID() int { return SecureDomain }

// Name implements tee.Enclave.
func (e *Enclave) Name() string { return "secure-world" }

// Measurement implements tee.Enclave.
func (e *Enclave) Measurement() attest.Measurement { return e.meas }

// Base implements tee.Enclave.
func (e *Enclave) Base() uint32 { return e.tz.secBase }

// Size implements tee.Enclave.
func (e *Enclave) Size() uint32 { return e.tz.secSize }

// DataBase returns the secure-world data area.
func (e *Enclave) DataBase() uint32 { return e.data }

// Call enters the secure world on core 0 and runs the enclave program.
func (e *Enclave) Call(args ...uint32) ([2]uint32, error) {
	c := e.tz.plat.Core(0)
	saved := *c
	c.Reset(e.entry)
	c.World = mem.WorldSecure
	c.Domain = SecureDomain
	c.Priv = isa.PrivSuper // secure-world OS privilege
	for i, a := range args {
		if i >= 4 {
			break
		}
		c.Regs[isa.RegA0+uint8(i)] = a
	}
	e.tz.MonitorCalls++
	res, err := c.Run(2_000_000)
	ret := [2]uint32{c.Regs[isa.RegA0], c.Regs[isa.RegA1]}
	cycles, instret := c.Cycles, c.Instret
	*c = saved
	c.Cycles, c.Instret = cycles, instret
	// No cache hygiene on world switch — deliberately.
	if err != nil {
		return ret, fmt.Errorf("trustzone: secure world faulted: %w", err)
	}
	if res.Reason != cpu.StopHalt {
		return ret, fmt.Errorf("trustzone: secure world did not exit cleanly: %v", res.Reason)
	}
	return ret, nil
}

// WriteData provisions secure-world data (monitor path).
func (e *Enclave) WriteData(off uint32, buf []byte) error {
	return e.tz.plat.Mem.WriteRaw(e.data+off, buf)
}

// Attest implements tee.Enclave with the device key.
func (e *Enclave) Attest(nonce []byte) (*attest.Report, error) {
	return attest.NewReport(e.tz.deviceKey, e.meas, nonce, nil), nil
}

// Seal implements tee.Enclave.
func (e *Enclave) Seal(data []byte) ([]byte, error) {
	return attest.Seal(e.tz.deviceKey, e.meas, data)
}

// Unseal implements tee.Enclave.
func (e *Enclave) Unseal(blob []byte) ([]byte, error) {
	return attest.Unseal(e.tz.deviceKey, e.meas, blob)
}

// Destroy tears down the secure world content.
func (e *Enclave) Destroy() error {
	zero := make([]byte, 4096)
	if err := e.tz.plat.Mem.WriteRaw(e.tz.secBase, zero); err != nil {
		return err
	}
	e.tz.enclave = nil
	e.tz.booted = false
	return nil
}
