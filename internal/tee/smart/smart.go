// Package smart implements SMART (Eldefrawy–Tsudik–Francillon–Perito,
// NDSS'12) from Section 3.3: a dynamic root of trust for low-end embedded
// devices built from exactly two hardware features — an immutable ROM
// attestation routine, and an attestation key that the hardware releases
// only while the program counter is inside that ROM routine.
//
// The flow reproduced here, faithful to the paper's sequence: untrusted
// code invokes the ROM routine with (region, nonce, destination); the
// routine 1) disables interrupts, 2) computes an HMAC over the region,
// the parameters and the nonce, 3) writes the report and cleans up its
// traces, 4) jumps to the attested destination. Because interrupts stay
// disabled throughout, SMART is unsuitable for real-time workloads; and
// neither side channels nor DMA are part of its threat model — all three
// properties are observable in the model and feed TAB2.
//
// Substitution note (DESIGN.md §2): the paper's MCU computes the HMAC in
// ROM software; computing SHA-256 in HS-32 assembly would add thousands of
// lines without changing any measured behaviour, so the MAC arithmetic
// runs in an MMIO crypto engine that enforces the same PC-gate in
// hardware. The control flow (interrupt disable, parameter marshalling,
// cleanup, jump-to-destination) remains real HS-32 code in ROM.
//
// See docs/ARCHITECTURE.md for the full package map and the
// paper-section cross-reference.
package smart

import (
	"fmt"

	"github.com/intrust-sim/intrust/internal/attest"
	"github.com/intrust-sim/intrust/internal/cpu"
	"github.com/intrust-sim/intrust/internal/isa"
	"github.com/intrust-sim/intrust/internal/mem"
	"github.com/intrust-sim/intrust/internal/platform"
	"github.com/intrust-sim/intrust/internal/tee"
)

// Memory map constants for the SMART device.
const (
	romEntry   = 0x100   // ROM attestation routine entry
	engineBase = 0x50000 // MMIO crypto engine
	nonceAddr  = 0x42000 // RAM slot the challenger's nonce is written to
	reportAddr = 0x43000 // RAM slot the engine writes the 32-byte MAC to
)

// SMART is one SMART-enabled embedded device.
type SMART struct {
	plat *platform.Platform
	key  []byte
	eng  *engine

	// ROMBase/ROMEnd delimit the attestation routine: the PC gate.
	ROMBase, ROMEnd uint32
}

// engine is the MMIO crypto engine holding the attestation key. It
// releases MAC computations only while the core's PC is inside the ROM
// attestation routine.
type engine struct {
	s *SMART
	c *cpu.CPU

	regionBase, regionLen uint32
	dest                  uint32
	status                uint32 // 0 idle, 1 done, 2 gate violation
	// GateViolations counts attempts to fire the engine from outside ROM.
	GateViolations uint64
}

// romRoutine is the immutable attestation code. Untrusted callers enter at
// romEntry with a0=region base, a1=region length, a2=nonce address,
// a3=after-attestation destination.
const romRoutine = `
        .equ ENG, 0x50000
        .org 0x100
attest: csrw status, zero      ; step 1: disable interrupts
        li   t0, ENG
        sw   a0, 0(t0)         ; region base
        sw   a1, 4(t0)         ; region length
        sw   a2, 8(t0)         ; nonce address (read by engine)
        sw   a3, 12(t0)        ; destination (bound into the MAC)
        li   t1, 1
        sw   t1, 16(t0)        ; GO: engine checks the PC gate here
        li   t0, 0             ; step 3: clean attestation traces
        li   t1, 0
        jalr zero, a3, 0       ; step 4: jump to attested destination
`

// New provisions a SMART device on an embedded platform: burns the ROM
// routine, installs the crypto engine, and derives its attestation key
// from the platform fuse.
func New(p *platform.Platform) (*SMART, error) {
	if p.ROMSize == 0 {
		return nil, fmt.Errorf("smart: platform has no ROM")
	}
	key := attest.DeriveKey(p.Fuse, "smart/attest")
	s := &SMART{plat: p, key: key[:], ROMBase: romEntry, ROMEnd: romEntry + 0x100}
	prog := isa.MustAssemble(romRoutine)
	if err := p.Mem.LoadProgram(prog); err != nil {
		return nil, fmt.Errorf("smart: burn ROM: %w", err)
	}
	s.eng = &engine{s: s, c: p.Core(0)}
	p.Mem.MustAddRegion(mem.Region{
		Name: "smart-engine", Base: engineBase, Size: 32, Kind: mem.RegionMMIO, Device: s.eng,
	})
	return s, nil
}

// Read32 implements mem.Device.
func (e *engine) Read32(off uint32) uint32 {
	switch off {
	case 20:
		return e.status
	}
	return 0
}

// Write32 implements mem.Device.
func (e *engine) Write32(off uint32, v uint32) {
	switch off {
	case 0:
		e.regionBase = v
	case 4:
		e.regionLen = v
	case 8: // nonce address register (value read at GO time)
	case 12:
		e.dest = v
	case 16:
		e.fire()
	}
}

// fire performs the gated MAC computation.
func (e *engine) fire() {
	// THE hardware property: the key is usable only while the program
	// counter is inside the ROM attestation routine.
	if e.c.PC < e.s.ROMBase || e.c.PC >= e.s.ROMEnd {
		e.GateViolations++
		e.status = 2
		return
	}
	region := make([]byte, e.regionLen)
	if err := e.s.plat.Mem.ReadRaw(e.regionBase, region); err != nil {
		e.status = 2
		return
	}
	nonce := make([]byte, 16)
	if err := e.s.plat.Mem.ReadRaw(nonceAddr, nonce); err != nil {
		e.status = 2
		return
	}
	var destBytes [4]byte
	destBytes[0] = byte(e.dest)
	destBytes[1] = byte(e.dest >> 8)
	destBytes[2] = byte(e.dest >> 16)
	destBytes[3] = byte(e.dest >> 24)
	r := attest.NewReport(e.s.key, attest.Measure(region), nonce, destBytes[:])
	if err := e.s.plat.Mem.WriteRaw(reportAddr, r.MAC); err != nil {
		e.status = 2
		return
	}
	e.status = 1
}

// Name implements tee.Architecture.
func (s *SMART) Name() string { return "SMART (model)" }

// Platform implements tee.Architecture.
func (s *SMART) Platform() *platform.Platform { return s.plat }

// Capabilities implements tee.Architecture: attestation only — no
// isolation, no DMA or side-channel defenses, no real-time suitability.
func (s *SMART) Capabilities() tee.Capabilities {
	return tee.Capabilities{
		MultipleEnclaves:  false,
		MemoryEncryption:  false,
		DMAProtection:     false,
		CacheDefense:      tee.DefenseNotApplicable,
		RemoteAttestation: true,
		SealedStorage:     false,
		RealTime:          false, // interrupts disabled during attestation
		SecurePeripherals: false,
		CodeIsolation:     false,
	}
}

// CreateEnclave implements tee.Architecture: SMART has no enclaves.
func (s *SMART) CreateEnclave(cfg tee.EnclaveConfig) (tee.Enclave, error) {
	return nil, fmt.Errorf("smart: %w (attestation-only root of trust)", tee.ErrUnsupported)
}

// Key exposes the shared attestation key to the verifier side.
func (s *SMART) Key() []byte { return s.key }

// AttestResult carries the outcome of one in-ISA attestation run.
type AttestResult struct {
	Report *attest.Report
	// InstructionsWithIRQPending counts retired instructions during which
	// an interrupt was pending but masked — SMART's real-time cost.
	InstructionsWithIRQPending uint64
}

// Attest runs the full in-ISA attestation flow: it writes the nonce,
// points the core at the ROM routine and lets the ROM code drive the
// engine and jump to dest (which must contain runnable code ending in
// HLT). The returned report's MAC was produced by the gated engine.
func (s *SMART) Attest(regionBase, regionLen uint32, nonce []byte, dest uint32) (*AttestResult, error) {
	if len(nonce) != 16 {
		return nil, fmt.Errorf("smart: nonce must be 16 bytes")
	}
	if err := s.plat.Mem.WriteRaw(nonceAddr, nonce); err != nil {
		return nil, err
	}
	c := s.plat.Core(0)
	// SMART runs on a live device: do not reset CSRs or pending
	// interrupts, just redirect control to the ROM routine (whose first
	// instruction masks interrupts).
	c.Halted = false
	c.Waiting = false
	c.PC = romEntry
	c.Priv = isa.PrivMachine // embedded device: single trust domain
	c.Regs[isa.RegA0] = regionBase
	c.Regs[isa.RegA1] = regionLen
	c.Regs[isa.RegA2] = nonceAddr
	c.Regs[isa.RegA3] = dest

	pending := uint64(0)
	for i := 0; i < 1_000_000 && !c.Halted; i++ {
		if c.IRQ && !c.InterruptsEnabled() {
			pending++
		}
		if err := c.Step(); err != nil {
			return nil, fmt.Errorf("smart: attestation flow faulted: %w", err)
		}
	}
	if !c.Halted {
		return nil, fmt.Errorf("smart: attestation flow did not terminate")
	}
	if st := s.eng.status; st != 1 {
		return nil, fmt.Errorf("smart: engine status %d (gate violation or bad region)", st)
	}
	mac := make([]byte, 32)
	if err := s.plat.Mem.ReadRaw(reportAddr, mac); err != nil {
		return nil, err
	}
	region := make([]byte, regionLen)
	if err := s.plat.Mem.ReadRaw(regionBase, region); err != nil {
		return nil, err
	}
	var destBytes [4]byte
	destBytes[0] = byte(dest)
	destBytes[1] = byte(dest >> 8)
	destBytes[2] = byte(dest >> 16)
	destBytes[3] = byte(dest >> 24)
	return &AttestResult{
		Report: &attest.Report{
			Measurement: attest.Measure(region),
			Nonce:       nonce,
			AppData:     destBytes[:],
			MAC:         mac,
		},
		InstructionsWithIRQPending: pending,
	}, nil
}

// GateViolations reports how many times software outside ROM tried to use
// the key.
func (s *SMART) GateViolations() uint64 { return s.eng.GateViolations }
