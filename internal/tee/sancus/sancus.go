// Package sancus implements Sancus (Noorman et al., USENIX Security'13)
// from Section 3.3: SMART's root of trust with the software TCB reduced to
// zero. Everything SMART did in ROM code is done by hardware here:
//
//   - a hardware key hierarchy: node key → software-provider key →
//     module key, where the module key is derived from the module's code,
//     so possession of the key attests the code;
//   - program-counter-based memory access control in the bus arbiter: a
//     module's data section is accessible only while the PC is inside the
//     module's code section (no MPU configuration, no software checks);
//   - an attestation "instruction" computing a MAC with the module key.
//
// As in the paper, DMA adversaries are outside the threat model: the bus
// arbiter checks apply to CPU masters only.
//
// See docs/ARCHITECTURE.md for the full package map and the
// paper-section cross-reference.
package sancus

import (
	"crypto/hmac"
	"crypto/sha256"
	"fmt"

	"github.com/intrust-sim/intrust/internal/attest"
	"github.com/intrust-sim/intrust/internal/cpu"
	"github.com/intrust-sim/intrust/internal/isa"
	"github.com/intrust-sim/intrust/internal/mem"
	"github.com/intrust-sim/intrust/internal/platform"
	"github.com/intrust-sim/intrust/internal/tee"
)

// Sancus is one Sancus-enabled node.
type Sancus struct {
	plat    *platform.Platform
	nodeKey []byte

	modules map[int]*Module
	nextID  int

	arenaNext uint32
	arenaEnd  uint32
}

// Module is a protected software module: a code section and a data
// section bound together by the hardware access rules.
type Module struct {
	sc   *Sancus
	id   int
	name string
	meas attest.Measurement

	codeBase, codeSize uint32
	dataBase, dataSize uint32
	entry              uint32

	vendorID  uint32
	moduleKey []byte
	destroyed bool
}

// New initializes the node with a node key derived from the platform fuse
// and installs the bus-arbiter filter.
func New(p *platform.Platform) (*Sancus, error) {
	nk := attest.DeriveKey(p.Fuse, "sancus/node")
	s := &Sancus{
		plat: p, nodeKey: nk[:],
		modules:   map[int]*Module{},
		nextID:    1,
		arenaNext: 0x10000,
		arenaEnd:  0x40000,
	}
	p.Ctrl.AddFilter(mem.FuncFilter{FilterName: "sancus-arbiter", Fn: s.arbiterCheck})
	return s, nil
}

// arbiterCheck is the hardware access-control rule: data sections answer
// only to loads/stores issued from their module's code section. Non-CPU
// masters (DMA) are not checked — outside the threat model, as published.
func (s *Sancus) arbiterCheck(a mem.Access) mem.Action {
	if a.Init.Type != mem.InitCPU {
		return mem.ActionAllow
	}
	for _, m := range s.modules {
		if a.Addr >= m.dataBase && a.Addr-m.dataBase < m.dataSize {
			if a.PC >= m.codeBase && a.PC-m.codeBase < m.codeSize {
				return mem.ActionAllow
			}
			return mem.ActionDeny
		}
		// Code sections are readable/executable by all (code is public),
		// but writable by no one after registration.
		if a.Addr >= m.codeBase && a.Addr-m.codeBase < m.codeSize && a.Kind == mem.KindStore {
			return mem.ActionDeny
		}
	}
	return mem.ActionAllow
}

// deriveKey implements the hardware key hierarchy.
func deriveKey(parent []byte, label []byte) []byte {
	h := hmac.New(sha256.New, parent)
	h.Write(label)
	return h.Sum(nil)
}

// VendorKey derives a software-provider key from the node key.
func (s *Sancus) VendorKey(vendorID uint32) []byte {
	return deriveKey(s.nodeKey, []byte{byte(vendorID), byte(vendorID >> 8), byte(vendorID >> 16), byte(vendorID >> 24)})
}

// Name implements tee.Architecture.
func (s *Sancus) Name() string { return "Sancus (model)" }

// Class implements tee.Architecture.
func (s *Sancus) Class() platform.Class { return platform.ClassEmbedded }

// Platform implements tee.Architecture.
func (s *Sancus) Platform() *platform.Platform { return s.plat }

// Capabilities implements tee.Architecture.
func (s *Sancus) Capabilities() tee.Capabilities {
	return tee.Capabilities{
		MultipleEnclaves:  true,
		MemoryEncryption:  false,
		DMAProtection:     false, // DMA outside the threat model
		CacheDefense:      tee.DefenseNotApplicable,
		HardwareOnlyTCB:   true, // the distinguishing property
		RemoteAttestation: true,
		SealedStorage:     true, // module-key wrapping
		RealTime:          false,
		SecurePeripherals: false,
		CodeIsolation:     true,
	}
}

// CreateEnclave registers a protected module (vendor 1 by default).
func (s *Sancus) CreateEnclave(cfg tee.EnclaveConfig) (tee.Enclave, error) {
	return s.RegisterModule(cfg, 1)
}

// RegisterModule loads a module's code, derives its key from the code
// contents (hardware attestation-by-key-derivation), and activates the
// access rules.
func (s *Sancus) RegisterModule(cfg tee.EnclaveConfig, vendorID uint32) (*Module, error) {
	if cfg.Program == nil || len(cfg.Program.Segments) != 1 {
		return nil, fmt.Errorf("sancus: module needs a single-segment program")
	}
	img := cfg.Program.Segments[0].Data
	codeSize := (uint32(len(img)) + 63) &^ 63
	dataSize := cfg.DataSize
	if dataSize == 0 {
		dataSize = 256
	}
	need := codeSize + dataSize
	if s.arenaNext+need > s.arenaEnd {
		return nil, fmt.Errorf("sancus: module arena exhausted")
	}
	id := s.nextID
	s.nextID++
	m := &Module{
		sc: s, id: id, name: cfg.Name,
		meas:     attest.Measure(img).Extend([]byte(cfg.Name)),
		codeBase: s.arenaNext, codeSize: codeSize,
		dataBase: s.arenaNext + codeSize, dataSize: dataSize,
		entry:    s.arenaNext + (cfg.Program.Entry - cfg.Program.Segments[0].Base),
		vendorID: vendorID,
	}
	s.arenaNext += need
	if err := s.plat.Mem.WriteRaw(m.codeBase, img); err != nil {
		return nil, err
	}
	// Hardware key derivation: K(node) -> K(vendor) -> K(module, code).
	codeNow := make([]byte, len(img))
	if err := s.plat.Mem.ReadRaw(m.codeBase, codeNow); err != nil {
		return nil, err
	}
	m.moduleKey = deriveKey(s.VendorKey(vendorID), codeNow)
	s.modules[id] = m
	return m, nil
}

// ExpectedModuleKey lets a software provider (who knows the node key
// derivation with the deployment authority) compute the key a genuine
// module would hold.
func (s *Sancus) ExpectedModuleKey(vendorID uint32, code []byte) []byte {
	return deriveKey(s.VendorKey(vendorID), code)
}

// ID implements tee.Enclave.
func (m *Module) ID() int { return m.id }

// Name implements tee.Enclave.
func (m *Module) Name() string { return m.name }

// Measurement implements tee.Enclave.
func (m *Module) Measurement() attest.Measurement { return m.meas }

// Base implements tee.Enclave.
func (m *Module) Base() uint32 { return m.dataBase }

// Size implements tee.Enclave.
func (m *Module) Size() uint32 { return m.dataSize }

// CodeBase returns the module's code section start.
func (m *Module) CodeBase() uint32 { return m.codeBase }

// Call runs the module's entry point.
func (m *Module) Call(args ...uint32) ([2]uint32, error) {
	if m.destroyed {
		return [2]uint32{}, fmt.Errorf("sancus: module %d unloaded", m.id)
	}
	c := m.sc.plat.Core(0)
	saved := *c
	c.Reset(m.entry)
	c.Priv = isa.PrivMachine
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
		return ret, fmt.Errorf("sancus: module %d faulted: %w", m.id, err)
	}
	if res.Reason != cpu.StopHalt {
		return ret, fmt.Errorf("sancus: module %d did not halt: %v", m.id, res.Reason)
	}
	return ret, nil
}

// Attest is the hardware attestation instruction: MAC(moduleKey, nonce).
// A verifier holding the expected module key checks it; a module whose
// code was tampered with derives a different key and cannot produce it.
func (m *Module) Attest(nonce []byte) (*attest.Report, error) {
	return attest.NewReport(m.moduleKey, m.meas, nonce, nil), nil
}

// Seal wraps data with the module key.
func (m *Module) Seal(data []byte) ([]byte, error) {
	return attest.Seal(m.moduleKey, m.meas, data)
}

// Unseal unwraps module-key-sealed data.
func (m *Module) Unseal(blob []byte) ([]byte, error) {
	return attest.Unseal(m.moduleKey, m.meas, blob)
}

// Destroy unloads the module and scrubs its sections.
func (m *Module) Destroy() error {
	delete(m.sc.modules, m.id)
	zero := make([]byte, m.codeSize+m.dataSize)
	if err := m.sc.plat.Mem.WriteRaw(m.codeBase, zero); err != nil {
		return err
	}
	m.destroyed = true
	return nil
}
