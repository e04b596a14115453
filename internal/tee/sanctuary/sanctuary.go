// Package sanctuary implements the Sanctuary model from Section 3.2:
// an arbitrary number of user-space enclaves on TrustZone hardware,
// without new hardware components. Sanctuary enclaves live in the NORMAL
// world, temporarily isolated on a reserved physical core; the isolation
// is enforced by the TZASC-style address space controller's identity
// checks (which bus master may access the region). The secure world only
// hosts the device vendor's security primitives (attestation, sealing),
// so no trust relationship between vendor and app developers is needed.
//
// Cache side channels are closed differently than Sanctum: Sanctuary
// cannot partition TrustZone's shared LLC, so enclave memory is excluded
// from the shared caches entirely, and core-exclusive caches are flushed
// on context switches.
//
// See docs/ARCHITECTURE.md for the full package map and the
// paper-section cross-reference.
package sanctuary

import (
	"fmt"

	"github.com/intrust-sim/intrust/internal/attest"
	"github.com/intrust-sim/intrust/internal/cache"
	"github.com/intrust-sim/intrust/internal/cpu"
	"github.com/intrust-sim/intrust/internal/isa"
	"github.com/intrust-sim/intrust/internal/mem"
	"github.com/intrust-sim/intrust/internal/platform"
	"github.com/intrust-sim/intrust/internal/tee"
	"github.com/intrust-sim/intrust/internal/tee/trustzone"
)

const pageSize = 4096

// reservedCore is the physical core temporarily dedicated to enclaves.
const reservedCore = 1

// SMC service codes for the secure-world security primitives.
const (
	svcAttest  = 0x53A0
	svcSealGet = 0x53A1
)

// Sanctuary runs on top of an existing TrustZone instance.
type Sanctuary struct {
	tz   *trustzone.TrustZone
	plat *platform.Platform

	arenaBase uint32
	arenaNext uint32
	arenaEnd  uint32

	enclaves map[int]*Enclave
	nextID   int
	// active is the enclave currently bound to the reserved core.
	active int
}

// Enclave is a Sanctuary user-space enclave in normal-world memory.
type Enclave struct {
	sy   *Sanctuary
	id   int
	name string
	meas attest.Measurement

	base, size uint32
	entry      uint32
	dataBase   uint32
	destroyed  bool
}

// New builds Sanctuary over TrustZone. It reserves a normal-world arena
// for enclave memory, installs the identity-based TZASC filter, and
// excludes the arena from the shared caches on every core.
func New(tz *trustzone.TrustZone) (*Sanctuary, error) {
	p := tz.Platform()
	if len(p.Cores) < 2 {
		return nil, fmt.Errorf("sanctuary: needs a core to reserve")
	}
	s := &Sanctuary{
		tz: tz, plat: p,
		arenaBase: 16 << 20,
		arenaNext: 16 << 20,
		arenaEnd:  20 << 20,
		enclaves:  map[int]*Enclave{},
		nextID:    2, // domain 1 is the secure world
	}
	p.Ctrl.AddFilter(mem.FuncFilter{FilterName: "sanctuary-tzasc-id", Fn: s.identityCheck})
	// Exclude the enclave arena from the shared cache levels (L2 + LLC):
	// enclave data may live only in core-exclusive L1.
	for _, c := range p.Cores {
		c.Hier.Cacheability = s.cacheability
	}
	// Secure-world security primitives, provided by the device vendor.
	tz.RegisterService(svcAttest, func(c *cpu.CPU, args [3]uint32) [2]uint32 {
		return [2]uint32{0x0a77e57, 0} // liveness marker; real flow uses Attest()
	})
	return s, nil
}

func (s *Sanctuary) cacheability(addr uint32) cache.Level {
	if addr >= s.arenaBase && addr < s.arenaEnd {
		return cache.LevelL1
	}
	return cache.LevelAll
}

// identityCheck is the TZASC identity-based isolation: while an enclave is
// active, its memory answers only to the reserved core running in that
// enclave's domain. DMA is blocked outright.
func (s *Sanctuary) identityCheck(a mem.Access) mem.Action {
	if a.Addr < s.arenaBase || a.Addr >= s.arenaEnd {
		return mem.ActionAllow
	}
	owner := 0
	for id, e := range s.enclaves {
		if a.Addr >= e.base && a.Addr < e.base+e.size {
			owner = id
			break
		}
	}
	if owner == 0 {
		return mem.ActionAllow // unassigned arena
	}
	if a.Init.Type != mem.InitCPU {
		return mem.ActionDeny
	}
	if a.Init.ID == reservedCore && a.Domain == owner {
		return mem.ActionAllow
	}
	return mem.ActionDeny
}

// Name implements tee.Architecture.
func (s *Sanctuary) Name() string { return "Sanctuary (model)" }

// Platform implements tee.Architecture.
func (s *Sanctuary) Platform() *platform.Platform { return s.plat }

// Capabilities implements tee.Architecture.
func (s *Sanctuary) Capabilities() tee.Capabilities {
	return tee.Capabilities{
		MultipleEnclaves:  true, // the TrustZone limitation lifted
		MemoryEncryption:  false,
		DMAProtection:     true,
		CacheDefense:      tee.DefenseCacheExclusion,
		FlushOnSwitch:     true,
		RemoteAttestation: true,
		SealedStorage:     true,
		RealTime:          false,
		SecurePeripherals: true, // inherited through secure-world services
		CodeIsolation:     true,
	}
}

// CreateEnclave allocates arena pages and installs the enclave image.
func (s *Sanctuary) CreateEnclave(cfg tee.EnclaveConfig) (tee.Enclave, error) {
	if cfg.Program == nil || len(cfg.Program.Segments) != 1 {
		return nil, fmt.Errorf("sanctuary: enclave needs a single-segment program")
	}
	img := cfg.Program.Segments[0].Data
	codePages := (uint32(len(img)) + pageSize - 1) / pageSize
	dataPages := (cfg.DataSize + pageSize - 1) / pageSize
	if dataPages == 0 {
		dataPages = 1
	}
	size := (codePages + dataPages) * pageSize
	if s.arenaNext+size > s.arenaEnd {
		return nil, fmt.Errorf("sanctuary: enclave arena exhausted")
	}
	id := s.nextID
	s.nextID++
	base := s.arenaNext
	s.arenaNext += size
	e := &Enclave{
		sy: s, id: id, name: cfg.Name,
		meas: attest.Measure(img).Extend([]byte(cfg.Name)),
		base: base, size: size,
		entry:    base + (cfg.Program.Entry - cfg.Program.Segments[0].Base),
		dataBase: base + codePages*pageSize,
	}
	s.enclaves[id] = e
	if err := s.plat.Mem.WriteRaw(base, img); err != nil {
		delete(s.enclaves, id)
		return nil, err
	}
	return e, nil
}

// ID implements tee.Enclave.
func (e *Enclave) ID() int { return e.id }

// Name implements tee.Enclave.
func (e *Enclave) Name() string { return e.name }

// Measurement implements tee.Enclave.
func (e *Enclave) Measurement() attest.Measurement { return e.meas }

// Base implements tee.Enclave.
func (e *Enclave) Base() uint32 { return e.base }

// Size implements tee.Enclave.
func (e *Enclave) Size() uint32 { return e.size }

// DataBase returns the enclave's writable region.
func (e *Enclave) DataBase() uint32 { return e.dataBase }

// Call binds the reserved core to the enclave, runs it, and flushes the
// core-exclusive caches on exit.
func (e *Enclave) Call(args ...uint32) ([2]uint32, error) {
	if e.destroyed {
		return [2]uint32{}, fmt.Errorf("sanctuary: enclave %d destroyed", e.id)
	}
	c := e.sy.plat.Core(reservedCore)
	saved := *c
	e.sy.active = e.id
	c.Reset(e.entry)
	c.World = mem.WorldNormal // Sanctuary enclaves are normal-world!
	c.Priv = isa.PrivUser
	c.Domain = e.id
	for i, a := range args {
		if i >= 4 {
			break
		}
		c.Regs[isa.RegA0+uint8(i)] = a
	}
	res, err := c.Run(2_000_000)
	ret := [2]uint32{c.Regs[isa.RegA0], c.Regs[isa.RegA1]}
	cycles, instret := c.Cycles, c.Instret
	*c = saved
	c.Cycles, c.Instret = cycles, instret
	e.sy.active = 0
	// Flush core-exclusive caches on the context switch.
	c.Hier.FlushL1()
	if err != nil {
		return ret, fmt.Errorf("sanctuary: enclave %d faulted: %w", e.id, err)
	}
	if res.Reason != cpu.StopHalt {
		return ret, fmt.Errorf("sanctuary: enclave %d did not exit cleanly: %v", e.id, res.Reason)
	}
	return ret, nil
}

// WriteData provisions enclave data (trusted setup path).
func (e *Enclave) WriteData(off uint32, buf []byte) error {
	return e.sy.plat.Mem.WriteRaw(e.dataBase+off, buf)
}

// Attest obtains a report from the secure-world security primitives.
func (e *Enclave) Attest(nonce []byte) (*attest.Report, error) {
	return attest.NewReport(e.sy.tz.DeviceKey(), e.meas, nonce, nil), nil
}

// Seal implements tee.Enclave via the secure-world sealing primitive.
func (e *Enclave) Seal(data []byte) ([]byte, error) {
	return attest.Seal(e.sy.tz.DeviceKey(), e.meas, data)
}

// Unseal implements tee.Enclave.
func (e *Enclave) Unseal(blob []byte) ([]byte, error) {
	return attest.Unseal(e.sy.tz.DeviceKey(), e.meas, blob)
}

// Destroy scrubs and releases the enclave memory.
func (e *Enclave) Destroy() error {
	delete(e.sy.enclaves, e.id) // unprotect first, then scrub
	zero := make([]byte, e.size)
	if err := e.sy.plat.Mem.WriteRaw(e.base, zero); err != nil {
		return err
	}
	e.destroyed = true
	return nil
}
