// Package mem models the physical memory system of the simulated platform:
// RAM/ROM/MMIO regions, the system bus with typed access attributes, a
// memory controller with pluggable protection filters (the hook used by the
// TEE architectures to enforce isolation), a DMA engine with device
// identity, and a memory encryption engine in the style of Intel SGX's MEE.
//
// Accesses carry the full set of attributes the surveyed architectures key
// on: initiator (CPU core, DMA device, debug probe), privilege level,
// TrustZone-style world, the issuing program counter (SMART and Sancus gate
// on it) and a CPU-assigned security domain (enclave identity).
//
// See docs/ARCHITECTURE.md for the full package map and the
// paper-section cross-reference.
package mem

import (
	"fmt"
	"sync"

	"github.com/intrust-sim/intrust/internal/isa"
)

// World is the TrustZone-style security state of a bus access.
type World uint8

const (
	// WorldSecure marks accesses issued while the CPU is in the secure world.
	WorldSecure World = iota
	// WorldNormal marks normal-world (non-secure) accesses.
	WorldNormal
)

func (w World) String() string {
	if w == WorldSecure {
		return "secure"
	}
	return "normal"
}

// AccessKind distinguishes fetches, loads and stores.
type AccessKind uint8

const (
	KindFetch AccessKind = iota
	KindLoad
	KindStore
)

func (k AccessKind) String() string {
	switch k {
	case KindFetch:
		return "fetch"
	case KindLoad:
		return "load"
	case KindStore:
		return "store"
	}
	return "access"
}

// InitiatorType identifies the class of bus master issuing an access.
type InitiatorType uint8

const (
	// InitCPU is a CPU core.
	InitCPU InitiatorType = iota
	// InitDMA is a peripheral DMA engine.
	InitDMA
	// InitDebug is an external debug/probe master (bus snooping).
	InitDebug
)

// Initiator identifies the bus master: its class and device/core number.
type Initiator struct {
	Type InitiatorType
	ID   int
}

// Access is one bus transaction with all security-relevant attributes.
type Access struct {
	Addr   uint32
	Size   int // 1, 2 or 4 bytes
	Kind   AccessKind
	Priv   isa.Priv
	World  World
	Init   Initiator
	PC     uint32 // program counter of the issuing instruction (0 for DMA)
	Domain int    // CPU-tracked security domain (0 = untrusted default)
	PTW    bool   // issued by the page-table walker (Sanctum filters on it)
}

// Action is a protection filter's verdict on an access.
type Action uint8

const (
	// ActionAllow lets the access proceed.
	ActionAllow Action = iota
	// ActionDeny raises a bus error (the initiator observes a fault).
	ActionDeny
	// ActionAbort silently squashes the access: reads return the abort
	// value, writes are dropped. This is Intel SGX's abort-page semantics
	// for non-enclave accesses to enclave memory — crucially it does NOT
	// raise an exception, which is why plain Meltdown fails against SGX.
	ActionAbort
)

func (a Action) String() string {
	switch a {
	case ActionAllow:
		return "allow"
	case ActionDeny:
		return "deny"
	case ActionAbort:
		return "abort"
	}
	return "action?"
}

// Filter inspects accesses before they reach memory. Architectures install
// filters to implement EPCM checks, TZASC windows, Sanctum region guards,
// EA-MPU rules and Sancus program-counter gates.
type Filter interface {
	// Name identifies the filter in diagnostics and statistics.
	Name() string
	// Check returns the verdict for the access.
	Check(a Access) Action
}

// FuncFilter adapts a function to the Filter interface.
type FuncFilter struct {
	FilterName string
	Fn         func(a Access) Action
}

// Name implements Filter.
func (f FuncFilter) Name() string { return f.FilterName }

// Check implements Filter.
func (f FuncFilter) Check(a Access) Action { return f.Fn(a) }

// RegionKind classifies a physical region.
type RegionKind uint8

const (
	// RegionRAM is ordinary read-write memory.
	RegionRAM RegionKind = iota
	// RegionROM is read-only memory; stores are bus errors.
	RegionROM
	// RegionMMIO forwards accesses to a Device.
	RegionMMIO
)

// Device is the interface implemented by MMIO peripherals.
type Device interface {
	// Read32 reads the 32-bit register at byte offset off.
	Read32(off uint32) uint32
	// Write32 writes the 32-bit register at byte offset off.
	Write32(off uint32, v uint32)
}

// Region describes one physical address range.
type Region struct {
	Name   string
	Base   uint32
	Size   uint32
	Kind   RegionKind
	Device Device // for RegionMMIO
}

// Contains reports whether addr falls inside the region.
func (r Region) Contains(addr uint32) bool {
	return addr >= r.Base && addr-r.Base < r.Size
}

// End returns the first address after the region.
func (r Region) End() uint32 { return r.Base + r.Size }

type regionState struct {
	Region
	data []byte
}

// Memory is the physical memory map: an ordered set of non-overlapping
// regions. It performs no security checks; all policy lives in Controller.
type Memory struct {
	regions []*regionState
}

// NewMemory returns an empty physical memory map.
func NewMemory() *Memory { return &Memory{} }

// backingPools recycles region backings by size. Megabyte-scale RAM
// backings discarded after every attack run dominate the sweep's
// allocation volume and, through the heap goal, its GC assist time at
// high worker counts; recycling keeps that volume off the pacer.
// Reused backings are re-zeroed on the way out so a pooled region is
// indistinguishable from a make()-fresh one.
var backingPools sync.Map // uint32 (size) -> *sync.Pool

// poolMinBacking is the smallest backing worth pooling; below this the
// sync.Pool round-trip costs more than the allocation it saves.
const poolMinBacking = 1 << 16

func newBacking(size uint32) []byte {
	if size < poolMinBacking {
		return make([]byte, size)
	}
	v, _ := backingPools.LoadOrStore(size, &sync.Pool{})
	if b, ok := v.(*sync.Pool).Get().([]byte); ok {
		for i := range b {
			b[i] = 0
		}
		return b
	}
	return make([]byte, size)
}

// Release returns every region backing to the package pool and empties
// the map. It is an explicit end-of-lifetime declaration: the caller
// asserts nothing else still references this Memory. Accesses after
// Release fail as unmapped-address bus errors rather than aliasing a
// future Memory's contents.
func (m *Memory) Release() {
	for _, rs := range m.regions {
		if rs.data == nil || len(rs.data) < poolMinBacking {
			continue
		}
		v, _ := backingPools.LoadOrStore(uint32(len(rs.data)), &sync.Pool{})
		v.(*sync.Pool).Put(rs.data)
		rs.data = nil
	}
	m.regions = m.regions[:0]
}

// AddRegion adds a region to the map. Overlapping regions are rejected.
func (m *Memory) AddRegion(r Region) error {
	if r.Size == 0 {
		return fmt.Errorf("mem: region %q has zero size", r.Name)
	}
	if r.Base+r.Size < r.Base {
		return fmt.Errorf("mem: region %q wraps the address space", r.Name)
	}
	for _, ex := range m.regions {
		if r.Base < ex.End() && ex.Base < r.End() {
			return fmt.Errorf("mem: region %q overlaps %q", r.Name, ex.Name)
		}
	}
	rs := &regionState{Region: r}
	if r.Kind != RegionMMIO {
		rs.data = newBacking(r.Size)
	}
	m.regions = append(m.regions, rs)
	return nil
}

// MustAddRegion adds a region and panics on error; for fixed platform maps.
func (m *Memory) MustAddRegion(r Region) {
	if err := m.AddRegion(r); err != nil {
		panic(err)
	}
}

// RegionAt returns the region containing addr.
func (m *Memory) RegionAt(addr uint32) (Region, bool) {
	if rs := m.find(addr); rs != nil {
		return rs.Region, true
	}
	return Region{}, false
}

// Regions returns a copy of the region list.
func (m *Memory) Regions() []Region {
	out := make([]Region, len(m.regions))
	for i, rs := range m.regions {
		out[i] = rs.Region
	}
	return out
}

func (m *Memory) find(addr uint32) *regionState {
	for _, rs := range m.regions {
		if rs.Contains(addr) {
			return rs
		}
	}
	return nil
}

// BusError reports a failed bus transaction.
type BusError struct {
	Access Access
	Reason string
}

func (e *BusError) Error() string {
	return fmt.Sprintf("bus error: %s of %d bytes at %#x (%s, priv %s, world %s): %s",
		e.Access.Kind, e.Access.Size, e.Access.Addr, initName(e.Access.Init),
		e.Access.Priv, e.Access.World, e.Reason)
}

func initName(i Initiator) string {
	switch i.Type {
	case InitCPU:
		return fmt.Sprintf("cpu%d", i.ID)
	case InitDMA:
		return fmt.Sprintf("dma%d", i.ID)
	case InitDebug:
		return fmt.Sprintf("probe%d", i.ID)
	}
	return "initiator?"
}

// readRaw reads without any checks; used by Controller after filtering and
// by ReadRaw for physical-attacker probes.
func (m *Memory) readRaw(addr uint32, size int) (uint32, error) {
	rs := m.find(addr)
	if rs == nil || !rs.Contains(addr+uint32(size)-1) {
		return 0, fmt.Errorf("unmapped address %#x", addr)
	}
	if rs.Kind == RegionMMIO {
		return rs.Device.Read32(addr - rs.Base), nil
	}
	off := addr - rs.Base
	var v uint32
	for i := 0; i < size; i++ {
		v |= uint32(rs.data[off+uint32(i)]) << (8 * i)
	}
	return v, nil
}

func (m *Memory) writeRaw(addr uint32, size int, v uint32) error {
	rs := m.find(addr)
	if rs == nil || !rs.Contains(addr+uint32(size)-1) {
		return fmt.Errorf("unmapped address %#x", addr)
	}
	switch rs.Kind {
	case RegionROM:
		return fmt.Errorf("store to ROM region %q", rs.Name)
	case RegionMMIO:
		rs.Device.Write32(addr-rs.Base, v)
		return nil
	}
	off := addr - rs.Base
	for i := 0; i < size; i++ {
		rs.data[off+uint32(i)] = byte(v >> (8 * i))
	}
	return nil
}

// span returns the RAM or ROM region whose backing holds all of
// [addr, addr+n), or nil when n is 0 or no single such region does. Raw
// accesses it covers copy in one step; the rest go byte by byte, so ROM,
// MMIO and unmapped-address errors come from one place.
func (m *Memory) span(addr uint32, n int) *regionState {
	rs := m.find(addr)
	if rs == nil || rs.data == nil || n == 0 || uint64(addr-rs.Base)+uint64(n) > uint64(rs.Size) {
		return nil
	}
	return rs
}

// ramBacking returns the backing bytes of [addr, addr+n), which must lie
// inside one RAM region. Writes through it bypass every check, as
// WriteRaw does.
func (m *Memory) ramBacking(addr, n uint32) ([]byte, error) {
	rs := m.span(addr, int(n))
	if rs == nil || rs.Kind != RegionRAM {
		return nil, fmt.Errorf("range %#x+%#x is not inside one RAM region", addr, n)
	}
	off := addr - rs.Base
	return rs.data[off : off+n : off+n], nil
}

// ReadRaw models a physical attacker (cold boot, bus interposer) reading
// memory contents directly, bypassing the controller and all filters. It
// returns exactly the bytes stored in the cells — ciphertext for regions
// behind a memory encryption engine.
func (m *Memory) ReadRaw(addr uint32, buf []byte) error {
	if rs := m.span(addr, len(buf)); rs != nil {
		copy(buf, rs.data[addr-rs.Base:])
		return nil
	}
	for i := range buf {
		v, err := m.readRaw(addr+uint32(i), 1)
		if err != nil {
			return err
		}
		buf[i] = byte(v)
	}
	return nil
}

// WriteRaw models physical tampering with memory cells (e.g. a malicious
// DIMM interposer), bypassing the controller. Writing to ROM still fails.
func (m *Memory) WriteRaw(addr uint32, buf []byte) error {
	if rs := m.span(addr, len(buf)); rs != nil && rs.Kind == RegionRAM {
		copy(rs.data[addr-rs.Base:], buf)
		return nil
	}
	for i := range buf {
		if err := m.writeRaw(addr+uint32(i), 1, uint32(buf[i])); err != nil {
			return err
		}
	}
	return nil
}

// LoadImage copies an assembled program image into memory, bypassing
// protection (it models the initial flash/provisioning step). ROM regions
// are writable through this path only.
func (m *Memory) LoadImage(base uint32, data []byte) error {
	for i, b := range data {
		addr := base + uint32(i)
		rs := m.find(addr)
		if rs == nil {
			return fmt.Errorf("mem: image byte at %#x unmapped", addr)
		}
		if rs.Kind == RegionMMIO {
			return fmt.Errorf("mem: image overlaps MMIO at %#x", addr)
		}
		rs.data[addr-rs.Base] = b
	}
	return nil
}

// LoadProgram loads every segment of an assembled program.
func (m *Memory) LoadProgram(p *isa.Program) error {
	for _, s := range p.Segments {
		if err := m.LoadImage(s.Base, s.Data); err != nil {
			return err
		}
	}
	return nil
}
