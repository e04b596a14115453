// Package sanctum implements the Sanctum model from Section 3.1: enclaves
// on an open RISC-V-style platform, isolated by a machine-mode security
// monitor instead of microcode. Contrasts with SGX reproduced here:
//
//   - no memory encryption: a physical bus probe sees enclave plaintext,
//   - DMA attack protection by memory-controller modification: DMA into
//     enclave regions raises bus errors,
//   - page-table-walker checks: enclave page tables must live inside the
//     enclave's own region,
//   - LLC partitioning by page coloring: enclave pages are allocated from
//     cache colors no other domain uses, so cross-domain eviction sets
//     cannot reach enclave lines,
//   - core-exclusive caches are flushed on enclave context switches.
//
// See docs/ARCHITECTURE.md for the full package map and the
// paper-section cross-reference.
package sanctum

import (
	"fmt"

	"github.com/intrust-sim/intrust/internal/attest"
	"github.com/intrust-sim/intrust/internal/cpu"
	"github.com/intrust-sim/intrust/internal/isa"
	"github.com/intrust-sim/intrust/internal/mem"
	"github.com/intrust-sim/intrust/internal/platform"
	"github.com/intrust-sim/intrust/internal/tee"
)

const pageSize = 4096

// Sanctum is one Sanctum-enabled platform with its security monitor state.
type Sanctum struct {
	plat *platform.Platform

	// Color geometry: the LLC set index covers addr[colorShift+colorBits-1
	// : 6]; page color = addr bits [colorShift : colorShift+colorBits).
	colorStride uint32 // distance between same-color pages
	numColors   int

	arenaBase, arenaSize uint32
	nextColor            int

	owner    map[uint32]int // page number -> enclave id
	enclaves map[int]*Enclave
	nextID   int

	monitorKey     []byte
	platformSecret []byte
}

// Enclave is one Sanctum enclave: a set of same-colored pages.
type Enclave struct {
	sn    *Sanctum
	id    int
	name  string
	meas  attest.Measurement
	color int

	pages    []uint32
	entry    uint32
	dataPage uint32

	destroyed bool
}

// New installs the Sanctum monitor on a platform with a shared LLC.
func New(p *platform.Platform) (*Sanctum, error) {
	if p.LLC == nil {
		return nil, fmt.Errorf("sanctum: platform has no shared LLC to partition")
	}
	cfg := p.LLC.Config()
	setsBytes := uint32(cfg.Sets * cfg.LineSize) // bytes covered by one pass over all sets
	numColors := int(setsBytes / pageSize)
	if numColors < 2 {
		return nil, fmt.Errorf("sanctum: LLC too small for page coloring")
	}
	secret := attest.DeriveKey(p.Fuse, "sanctum/platform")
	s := &Sanctum{
		plat:           p,
		colorStride:    setsBytes,
		numColors:      numColors,
		arenaBase:      8 << 20,
		arenaSize:      16 << 20,
		owner:          map[uint32]int{},
		enclaves:       map[int]*Enclave{},
		nextID:         1,
		monitorKey:     secret[16:],
		platformSecret: secret[:],
	}
	p.Ctrl.AddFilter(mem.FuncFilter{FilterName: "sanctum-region", Fn: s.regionCheck})
	return s, nil
}

// regionCheck is the modified memory controller: enclave pages are
// reachable only by their owner's CPU accesses. DMA is denied outright
// (bus error), unlike SGX's silent abort.
func (s *Sanctum) regionCheck(a mem.Access) mem.Action {
	owner, protected := s.owner[a.Addr/pageSize]
	if !protected {
		return mem.ActionAllow
	}
	if a.Init.Type != mem.InitCPU {
		return mem.ActionDeny
	}
	if a.Domain == owner {
		return mem.ActionAllow
	}
	return mem.ActionDeny
}

// Name implements tee.Architecture.
func (s *Sanctum) Name() string { return "Sanctum (model)" }

// Class implements tee.Architecture.
func (s *Sanctum) Class() platform.Class { return platform.ClassServer }

// Platform implements tee.Architecture.
func (s *Sanctum) Platform() *platform.Platform { return s.plat }

// Capabilities implements tee.Architecture.
func (s *Sanctum) Capabilities() tee.Capabilities {
	return tee.Capabilities{
		MultipleEnclaves:  true,
		MemoryEncryption:  false, // plaintext DRAM, by design
		DMAProtection:     true,
		CacheDefense:      tee.DefenseLLCPartition,
		FlushOnSwitch:     true,
		RemoteAttestation: true,
		SealedStorage:     true,
		RealTime:          false,
		SecurePeripherals: false,
		CodeIsolation:     true,
	}
}

// ColorOf returns the page color of a physical address.
func (s *Sanctum) ColorOf(addr uint32) int {
	return int(addr % s.colorStride / pageSize)
}

// NumColors returns the number of page colors the LLC geometry yields.
func (s *Sanctum) NumColors() int { return s.numColors }

// allocColorPages hands out n pages of one exclusive color from the arena.
func (s *Sanctum) allocColorPages(n, id int) (int, []uint32, error) {
	if s.nextColor >= s.numColors-1 {
		return 0, nil, fmt.Errorf("sanctum: out of cache colors")
	}
	// Color 0 stays with the OS; enclaves take colors from the top.
	color := s.numColors - 1 - s.nextColor
	s.nextColor++
	var pages []uint32
	for k := uint32(0); len(pages) < n; k++ {
		pa := s.arenaBase + k*s.colorStride + uint32(color)*pageSize
		if pa+pageSize > s.arenaBase+s.arenaSize {
			return 0, nil, fmt.Errorf("sanctum: arena exhausted for color %d", color)
		}
		pages = append(pages, pa)
		s.owner[pa/pageSize] = id
	}
	return color, pages, nil
}

// CreateEnclave allocates exclusively colored pages, copies and measures
// the enclave image.
func (s *Sanctum) CreateEnclave(cfg tee.EnclaveConfig) (tee.Enclave, error) {
	if cfg.Program == nil || len(cfg.Program.Segments) == 0 {
		return nil, fmt.Errorf("sanctum: enclave %q has no program", cfg.Name)
	}
	img := cfg.Program.Segments[0].Data
	if len(cfg.Program.Segments) != 1 || len(img) > pageSize {
		return nil, fmt.Errorf("sanctum: enclave image must be a single segment of at most one page")
	}
	id := s.nextID
	s.nextID++
	pages := 1 + int((cfg.DataSize+pageSize-1)/pageSize)
	if cfg.DataSize == 0 {
		pages = 2 // always give an enclave a data page
	}
	color, pp, err := s.allocColorPages(pages, id)
	if err != nil {
		return nil, err
	}
	// The monitor copies the image with monitor privileges (raw write).
	if err := s.plat.Mem.WriteRaw(pp[0], img); err != nil {
		return nil, err
	}
	entryOff := cfg.Program.Entry - cfg.Program.Segments[0].Base
	e := &Enclave{
		sn: s, id: id, name: cfg.Name,
		meas:  attest.Measure(img).Extend([]byte(cfg.Name)),
		color: color,
		pages: pp, entry: pp[0] + entryOff, dataPage: pp[1],
	}
	s.enclaves[id] = e
	return e, nil
}

// ID implements tee.Enclave.
func (e *Enclave) ID() int { return e.id }

// Name implements tee.Enclave.
func (e *Enclave) Name() string { return e.name }

// Measurement implements tee.Enclave.
func (e *Enclave) Measurement() attest.Measurement { return e.meas }

// Base implements tee.Enclave (the code page).
func (e *Enclave) Base() uint32 { return e.pages[0] }

// Size implements tee.Enclave (span of the first page; Sanctum enclaves
// are page sets, not ranges).
func (e *Enclave) Size() uint32 { return uint32(len(e.pages)) * pageSize }

// DataPage returns the enclave's first data page.
func (e *Enclave) DataPage() uint32 { return e.dataPage }

// Color returns the enclave's exclusive LLC color.
func (e *Enclave) Color() int { return e.color }

// Call enters the enclave on core 0. On exit the monitor flushes the
// core-exclusive caches (L1 and L2) — Sanctum's context-switch hygiene.
func (e *Enclave) Call(args ...uint32) ([2]uint32, error) {
	if e.destroyed {
		return [2]uint32{}, fmt.Errorf("sanctum: enclave %d destroyed", e.id)
	}
	c := e.sn.plat.Core(0)
	saved := *c
	c.Reset(e.entry)
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
	// Flush core-exclusive caches on the way out.
	c.Hier.FlushL1()
	if c.Hier.L2 != nil {
		c.Hier.L2.FlushAll()
	}
	if err != nil {
		return ret, fmt.Errorf("sanctum: enclave %d faulted: %w", e.id, err)
	}
	if res.Reason != cpu.StopHalt {
		return ret, fmt.Errorf("sanctum: enclave %d did not exit cleanly: %v", e.id, res.Reason)
	}
	return ret, nil
}

// WriteData lets the monitor provision enclave data (raw monitor write).
func (e *Enclave) WriteData(off uint32, buf []byte) error {
	return e.sn.plat.Mem.WriteRaw(e.dataPage+off, buf)
}

// ReadData reads enclave data with monitor privileges.
func (e *Enclave) ReadData(off uint32, buf []byte) error {
	return e.sn.plat.Mem.ReadRaw(e.dataPage+off, buf)
}

// Attest implements tee.Enclave: monitor-keyed HMAC report.
func (e *Enclave) Attest(nonce []byte) (*attest.Report, error) {
	return attest.NewReport(e.sn.monitorKey, e.meas, nonce, nil), nil
}

// MonitorKey exposes the report verification key to local verifiers.
func (s *Sanctum) MonitorKey() []byte { return s.monitorKey }

// Seal implements tee.Enclave.
func (e *Enclave) Seal(data []byte) ([]byte, error) {
	return attest.Seal(e.sn.platformSecret, e.meas, data)
}

// Unseal implements tee.Enclave.
func (e *Enclave) Unseal(blob []byte) ([]byte, error) {
	return attest.Unseal(e.sn.platformSecret, e.meas, blob)
}

// Destroy releases the enclave's pages and scrubs them.
func (e *Enclave) Destroy() error {
	zero := make([]byte, pageSize)
	for _, pa := range e.pages {
		if err := e.sn.plat.Mem.WriteRaw(pa, zero); err != nil {
			return err
		}
		delete(e.sn.owner, pa/pageSize)
	}
	e.destroyed = true
	delete(e.sn.enclaves, e.id)
	return nil
}

// LLCSetsOf returns the set indices the enclave's pages occupy in the
// shared LLC — used to verify partition disjointness.
func (s *Sanctum) LLCSetsOf(pages []uint32) map[int]bool {
	out := map[int]bool{}
	cfg := s.plat.LLC.Config()
	for _, pa := range pages {
		for off := uint32(0); off < pageSize; off += uint32(cfg.LineSize) {
			out[s.plat.LLC.SetIndexOf(pa+off, 0)] = true
		}
	}
	return out
}

// Pages exposes the enclave's page list for partition verification.
func (e *Enclave) Pages() []uint32 { return e.pages }
