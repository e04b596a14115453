// Package trustlite implements TrustLite (Koeberl et al., EuroSys'14) from
// Section 3.3: a fully-fledged TEE for tiny embedded devices built on an
// execution-aware MPU. The boot sequence reproduced here follows the
// paper: first the Secure Loader (from ROM) loads the Trustlets into
// memory and configures the EA-MPU so each Trustlet's data is accessible
// only from its own code; second, the EA-MPU configuration is locked —
// protection regions are static from then on, removing SMART's need for
// cleanup; finally the untrusted OS starts.
//
// Side channels and DMA remain outside the attacker model, as published.
//
// See docs/ARCHITECTURE.md for the full package map and the
// paper-section cross-reference.
package trustlite

import (
	"fmt"

	"github.com/intrust-sim/intrust/internal/attest"
	"github.com/intrust-sim/intrust/internal/cpu"
	"github.com/intrust-sim/intrust/internal/isa"
	"github.com/intrust-sim/intrust/internal/platform"
	"github.com/intrust-sim/intrust/internal/tee"
)

// TrustLite is one TrustLite-enabled device.
type TrustLite struct {
	plat *platform.Platform
	mpu  *cpu.MPU

	platformKey []byte

	trustlets map[int]*Trustlet
	nextID    int

	arenaNext uint32
	arenaEnd  uint32

	booted bool
}

// Trustlet is one isolated applet.
type Trustlet struct {
	tl   *TrustLite
	id   int
	name string
	meas attest.Measurement

	codeBase, codeSize uint32
	dataBase, dataSize uint32
	entry              uint32
}

// New prepares the Secure Loader state on an embedded platform.
func New(p *platform.Platform) (*TrustLite, error) {
	if p.Core(0).MPU == nil {
		return nil, fmt.Errorf("trustlite: platform core has no MPU")
	}
	key := attest.DeriveKey(p.Fuse, "trustlite/platform")
	return &TrustLite{
		plat: p, mpu: p.Core(0).MPU,
		platformKey: key[:],
		trustlets:   map[int]*Trustlet{},
		nextID:      1,
		arenaNext:   0x10000,
		arenaEnd:    0x40000,
	}, nil
}

// Name implements tee.Architecture.
func (t *TrustLite) Name() string { return "TrustLite (model)" }

// Platform implements tee.Architecture.
func (t *TrustLite) Platform() *platform.Platform { return t.plat }

// Capabilities implements tee.Architecture.
func (t *TrustLite) Capabilities() tee.Capabilities {
	return tee.Capabilities{
		MultipleEnclaves:  true,
		MemoryEncryption:  false,
		DMAProtection:     false, // "side-channel and DMA attacks are not part of the attacker model"
		CacheDefense:      tee.DefenseNotApplicable,
		RemoteAttestation: true,
		SealedStorage:     false, // TyTAN adds secure storage
		RealTime:          false, // TyTAN adds the real-time guarantees
		SecurePeripherals: false,
		CodeIsolation:     true,
	}
}

// CreateEnclave implements tee.Architecture: loading a trustlet. It fails
// after Boot() locked the MPU — TrustLite protection is static.
func (t *TrustLite) CreateEnclave(cfg tee.EnclaveConfig) (tee.Enclave, error) {
	return t.LoadTrustlet(cfg)
}

// LoadTrustlet is the Secure Loader step for one trustlet: copy the image,
// measure it, and add the execution-aware MPU regions.
func (t *TrustLite) LoadTrustlet(cfg tee.EnclaveConfig) (*Trustlet, error) {
	if t.booted {
		return nil, fmt.Errorf("trustlite: EA-MPU locked after boot; trustlets are static")
	}
	if cfg.Program == nil || len(cfg.Program.Segments) != 1 {
		return nil, fmt.Errorf("trustlite: trustlet needs a single-segment program")
	}
	img := cfg.Program.Segments[0].Data
	codeSize := (uint32(len(img)) + 63) &^ 63
	dataSize := cfg.DataSize
	if dataSize == 0 {
		dataSize = 256
	}
	if t.arenaNext+codeSize+dataSize > t.arenaEnd {
		return nil, fmt.Errorf("trustlite: arena exhausted")
	}
	id := t.nextID
	t.nextID++
	tr := &Trustlet{
		tl: t, id: id, name: cfg.Name,
		meas:     attest.Measure(img).Extend([]byte(cfg.Name)),
		codeBase: t.arenaNext, codeSize: codeSize,
		dataBase: t.arenaNext + codeSize, dataSize: dataSize,
		entry: t.arenaNext + (cfg.Program.Entry - cfg.Program.Segments[0].Base),
	}
	t.arenaNext += codeSize + dataSize
	if err := t.plat.Mem.WriteRaw(tr.codeBase, img); err != nil {
		return nil, err
	}
	// EA-MPU entries: code is executable and readable by all (public);
	// data is bound to the code region.
	if err := t.mpu.AddRegion(cpu.MPURegion{
		Name: cfg.Name + "-code", Base: tr.codeBase, Size: tr.codeSize, R: true, X: true,
	}); err != nil {
		return nil, err
	}
	if err := t.mpu.AddRegion(cpu.MPURegion{
		Name: cfg.Name + "-data", Base: tr.dataBase, Size: tr.dataSize, R: true, W: true,
		CodeBase: tr.codeBase, CodeSize: tr.codeSize,
	}); err != nil {
		return nil, err
	}
	t.trustlets[id] = tr
	return tr, nil
}

// Boot locks the EA-MPU and hands control to the (untrusted) OS — the
// final Secure Loader step. After Boot, protection is immutable.
func (t *TrustLite) Boot() {
	t.mpu.Lock()
	t.booted = true
}

// Booted reports whether the loader sealed the configuration.
func (t *TrustLite) Booted() bool { return t.booted }

// PlatformKey exposes the attestation key for local verifiers.
func (t *TrustLite) PlatformKey() []byte { return t.platformKey }

// ID implements tee.Enclave.
func (tr *Trustlet) ID() int { return tr.id }

// Name implements tee.Enclave.
func (tr *Trustlet) Name() string { return tr.name }

// Measurement implements tee.Enclave.
func (tr *Trustlet) Measurement() attest.Measurement { return tr.meas }

// Base implements tee.Enclave.
func (tr *Trustlet) Base() uint32 { return tr.dataBase }

// Size implements tee.Enclave.
func (tr *Trustlet) Size() uint32 { return tr.dataSize }

// CodeBase returns the trustlet code region.
func (tr *Trustlet) CodeBase() uint32 { return tr.codeBase }

// DataBase returns the trustlet data region.
func (tr *Trustlet) DataBase() uint32 { return tr.dataBase }

// Call invokes the trustlet entry point at supervisor privilege (the MPU
// governs everything below machine mode).
func (tr *Trustlet) Call(args ...uint32) ([2]uint32, error) {
	c := tr.tl.plat.Core(0)
	saved := *c
	c.Reset(tr.entry)
	c.Priv = isa.PrivSuper
	for i, a := range args {
		if i >= 4 {
			break
		}
		c.Regs[isa.RegA0+uint8(i)] = a
	}
	res, err := c.Run(1_000_000)
	ret := [2]uint32{c.Regs[isa.RegA0], c.Regs[isa.RegA1]}
	cycles, instret := c.Cycles, c.Instret
	*c = saved
	c.Cycles, c.Instret = cycles, instret
	if err != nil {
		return ret, fmt.Errorf("trustlite: trustlet %d faulted: %w", tr.id, err)
	}
	if res.Reason != cpu.StopHalt {
		return ret, fmt.Errorf("trustlite: trustlet %d did not halt: %v", tr.id, res.Reason)
	}
	return ret, nil
}

// WriteData provisions trustlet data (loader path, pre-boot).
func (tr *Trustlet) WriteData(off uint32, buf []byte) error {
	return tr.tl.plat.Mem.WriteRaw(tr.dataBase+off, buf)
}

// Attest produces a loader-keyed report over the trustlet measurement.
func (tr *Trustlet) Attest(nonce []byte) (*attest.Report, error) {
	return attest.NewReport(tr.tl.platformKey, tr.meas, nonce, nil), nil
}

// Seal implements tee.Enclave: plain TrustLite has no secure storage.
func (tr *Trustlet) Seal(data []byte) ([]byte, error) {
	return nil, tee.ErrUnsupported
}

// Unseal implements tee.Enclave.
func (tr *Trustlet) Unseal(blob []byte) ([]byte, error) {
	return nil, tee.ErrUnsupported
}

// Destroy implements tee.Enclave: static regions cannot be unloaded after
// boot (and unloading before boot is not part of the model).
func (tr *Trustlet) Destroy() error { return tee.ErrUnsupported }
