// Package platform assembles the three computing-platform classes the
// paper spans — stationary high-performance (server/desktop), mobile, and
// embedded — out of the CPU, cache and memory substrates. Each class gets
// the microarchitecture its threat profile derives from: speculative cores
// with deep cache hierarchies on the high end (microarchitectural attack
// surface), TrustZone-style worlds and DVFS on mobile, and in-order
// cacheless cores with MPUs on embedded devices (classical physical attack
// surface, tight energy budget).
//
// See docs/ARCHITECTURE.md for the full package map and the
// paper-section cross-reference.
package platform

import (
	"fmt"

	"github.com/intrust-sim/intrust/internal/cache"
	"github.com/intrust-sim/intrust/internal/cpu"
	"github.com/intrust-sim/intrust/internal/isa"
	"github.com/intrust-sim/intrust/internal/mem"
)

// Architectures lists the eight surveyed security-architecture keys in
// the paper's Section 3 order (high-end to embedded). It lives here —
// below both the scenario and the defense registries — so the attack
// axis (internal/scenario) and the mitigation axis (internal/defense)
// share one source of truth for the architecture axis.
var Architectures = []string{
	"sgx", "sanctum", "trustzone", "sanctuary", "smart", "sancus", "trustlite", "tytan",
}

// archClasses maps an architecture key to the platform class it is built
// on (Section 3: SGX/Sanctum on stationary high-performance platforms,
// TrustZone/Sanctuary on mobile SoCs, the rest on embedded devices).
var archClasses = map[string]Class{
	"sgx": ClassServer, "sanctum": ClassServer,
	"trustzone": ClassMobile, "sanctuary": ClassMobile,
	"smart": ClassEmbedded, "sancus": ClassEmbedded, "trustlite": ClassEmbedded, "tytan": ClassEmbedded,
}

// ArchClass returns the platform class an architecture key is built on;
// ok is false for unknown keys.
func ArchClass(arch string) (Class, bool) {
	c, ok := archClasses[arch]
	return c, ok
}

// Class identifies a platform class from Figure 1.
type Class uint8

const (
	// ClassServer covers servers and desktop computers.
	ClassServer Class = iota
	// ClassMobile covers smartphones and tablets.
	ClassMobile
	// ClassEmbedded covers low-energy IoT and embedded devices.
	ClassEmbedded
)

func (c Class) String() string {
	switch c {
	case ClassServer:
		return "server/desktop"
	case ClassMobile:
		return "mobile"
	case ClassEmbedded:
		return "embedded"
	}
	return "class?"
}

// EnergyModel prices retired instructions and static draw.
type EnergyModel struct {
	ALUpJ    float64
	MempJ    float64
	MulpJ    float64
	BranchpJ float64
	CSRpJ    float64
	SystempJ float64
	// StaticW is the static power draw in watts.
	StaticW float64
	// BudgetW is the platform's power budget in watts.
	BudgetW float64
}

// Platform is one assembled machine.
type Platform struct {
	Name    string
	Class   Class
	FreqMHz int

	Mem   *mem.Memory
	Ctrl  *mem.Controller
	Cores []*cpu.CPU
	// LLC is the shared last-level cache (nil on embedded platforms —
	// "they are less likely to be susceptible to microarchitectural
	// attacks").
	LLC *cache.Cache
	DMA *mem.DMA

	Energy EnergyModel

	RAMBase, RAMSize uint32
	// ROMBase/ROMSize are set on platforms with boot ROM.
	ROMBase, ROMSize uint32
	// ScratchBase is free RAM for workloads and experiments.
	ScratchBase uint32

	// Fuse is the device's root secret, burned once at manufacture: every
	// TEE model derives all of its keys from it (attest.DeriveKey), so a
	// device's keys replay exactly from this one value. A freshly
	// assembled platform carries the zero fuse; Reset leaves it alone.
	Fuse [32]byte
}

// Core returns core i.
func (p *Platform) Core(i int) *cpu.CPU { return p.Cores[i] }

// Reset returns the platform's microarchitectural state to its as-built
// condition: every cache level, TLB and branch predictor resets (lines
// invalid, partitions and randomized mappings removed, statistics and
// replacement state cleared) and defense-installed cacheability filters
// drop back to nil. Assembly-time wiring — the inclusive-LLC
// back-invalidation hook, per-core memory-latency hooks — is preserved,
// and memory contents, CPU register state and controller filters are
// untouched: the platform pool uses Reset to recycle a platform across
// measurement passes of the cache scenarios, which drive only the
// microarchitectural substrate, so a reset platform measures exactly like
// a freshly assembled one at a fraction of the construction cost (the
// server LLC alone backs 128Ki lines).
func (p *Platform) Reset() {
	if p.LLC != nil {
		p.LLC.Reset()
	}
	for _, c := range p.Cores {
		if h := c.Hier; h != nil {
			for _, cc := range []*cache.Cache{h.L1I, h.L1D, h.L2} {
				if cc != nil {
					cc.Reset()
				}
			}
			h.Cacheability = nil
		}
		if c.TLB != nil {
			c.TLB.Reset()
		}
		if c.Pred != nil {
			c.Pred.Reset()
		}
	}
}

// NewServer builds the stationary high-performance platform: speculative
// out-of-order-style cores, three-level cache hierarchy, large shared LLC.
func NewServer() *Platform {
	m := mem.NewMemory()
	m.MustAddRegion(mem.Region{Name: "dram", Base: 0, Size: 32 << 20, Kind: mem.RegionRAM})
	ctrl := mem.NewController(m)
	llc := cache.New(cache.Config{Name: "llc", Sets: 8192, Ways: 16, LineSize: 64, HitLatency: 34, Policy: cache.PolicyLRU})
	p := &Platform{
		Name: "hs-server", Class: ClassServer, FreqMHz: 3200,
		Mem: m, Ctrl: ctrl, LLC: llc,
		DMA: mem.NewDMA(ctrl, 1),
		Energy: EnergyModel{
			ALUpJ: 400, MempJ: 900, MulpJ: 600, BranchpJ: 450, CSRpJ: 400, SystempJ: 500,
			StaticW: 35, BudgetW: 150,
		},
		RAMBase: 0, RAMSize: 32 << 20, ScratchBase: 0x8000,
	}
	for i := 0; i < 2; i++ {
		p.Cores = append(p.Cores, newCore(i, ctrl, llc, cpu.HighEndFeatures(), 64, true))
	}
	enforceInclusion(p)
	return p
}

// NewMobile builds the mobile platform: speculative cores behind a smaller
// hierarchy, TrustZone world support and a software-reachable DVFS
// regulator (the CLKSCREW surface).
func NewMobile() *Platform {
	m := mem.NewMemory()
	m.MustAddRegion(mem.Region{Name: "dram", Base: 0, Size: 32 << 20, Kind: mem.RegionRAM})
	ctrl := mem.NewController(m)
	llc := cache.New(cache.Config{Name: "llc", Sets: 1024, Ways: 16, LineSize: 64, HitLatency: 26, Policy: cache.PolicyLRU})
	p := &Platform{
		Name: "hs-mobile", Class: ClassMobile, FreqMHz: 1900,
		Mem: m, Ctrl: ctrl, LLC: llc,
		DMA: mem.NewDMA(ctrl, 1),
		Energy: EnergyModel{
			ALUpJ: 90, MempJ: 220, MulpJ: 140, BranchpJ: 100, CSRpJ: 90, SystempJ: 120,
			StaticW: 0.4, BudgetW: 4,
		},
		RAMBase: 0, RAMSize: 32 << 20, ScratchBase: 0x8000,
	}
	for i := 0; i < 2; i++ {
		p.Cores = append(p.Cores, newCore(i, ctrl, llc, cpu.MobileFeatures(), 32, true))
	}
	enforceInclusion(p)
	return p
}

// NewEmbedded builds the embedded/IoT platform: one in-order core, tiny
// private cache, no shared cache levels, boot ROM, MPU instead of MMU.
func NewEmbedded() *Platform {
	m := mem.NewMemory()
	m.MustAddRegion(mem.Region{Name: "rom", Base: 0, Size: 0x4000, Kind: mem.RegionROM})
	m.MustAddRegion(mem.Region{Name: "sram", Base: 0x4000, Size: 0x40000, Kind: mem.RegionRAM})
	ctrl := mem.NewController(m)
	p := &Platform{
		Name: "hs-embedded", Class: ClassEmbedded, FreqMHz: 80,
		Mem: m, Ctrl: ctrl,
		DMA: mem.NewDMA(ctrl, 1),
		Energy: EnergyModel{
			ALUpJ: 12, MempJ: 30, MulpJ: 22, BranchpJ: 14, CSRpJ: 12, SystempJ: 15,
			StaticW: 0.004, BudgetW: 0.05,
		},
		RAMBase: 0x4000, RAMSize: 0x40000,
		ROMBase: 0, ROMSize: 0x4000,
		ScratchBase: 0x8000,
	}
	core := cpu.New(0, ctrl)
	core.Feat = cpu.EmbeddedFeatures()
	core.Hier = &cache.Hierarchy{
		L1I:        cache.New(cache.Config{Name: "l1i0", Sets: 16, Ways: 2, LineSize: 32, HitLatency: 1}),
		L1D:        cache.New(cache.Config{Name: "l1d0", Sets: 16, Ways: 2, LineSize: 32, HitLatency: 1}),
		MemLatency: 12,
	}
	core.MPU = &cpu.MPU{DefaultAllow: true}
	p.Cores = []*cpu.CPU{core}
	return p
}

// enforceInclusion makes the shared LLC inclusive: evicting an LLC line
// back-invalidates every core's private caches, which is what allows a
// cross-core Prime+Probe attacker to displace a victim's L1 lines.
func enforceInclusion(p *Platform) {
	p.LLC.OnEvict = func(lineBase uint32) {
		for _, c := range p.Cores {
			if c.Hier.L1I != nil {
				c.Hier.L1I.FlushLine(lineBase)
			}
			if c.Hier.L1D != nil {
				c.Hier.L1D.FlushLine(lineBase)
			}
			if c.Hier.L2 != nil {
				c.Hier.L2.FlushLine(lineBase)
			}
		}
	}
}

func newCore(id int, ctrl *mem.Controller, llc *cache.Cache, feat cpu.Features, tlbSets int, l2 bool) *cpu.CPU {
	c := cpu.New(id, ctrl)
	c.Feat = feat
	h := &cache.Hierarchy{
		L1I:        cache.New(cache.Config{Name: fmt.Sprintf("l1i%d", id), Sets: 64, Ways: 8, LineSize: 64, HitLatency: 2}),
		L1D:        cache.New(cache.Config{Name: fmt.Sprintf("l1d%d", id), Sets: 64, Ways: 8, LineSize: 64, HitLatency: 3}),
		LLC:        llc,
		MemLatency: 160,
		ExtraMemLatency: func(addr uint32) int {
			return ctrl.AccessLatency(addr)
		},
	}
	if l2 {
		h.L2 = cache.New(cache.Config{Name: fmt.Sprintf("l2_%d", id), Sets: 512, Ways: 8, LineSize: 64, HitLatency: 11})
	}
	c.Hier = h
	c.TLB = cache.NewTLB(tlbSets, 4)
	c.Pred = cpu.NewPredictor(2048, 512, 16)
	return c
}

// referenceWorkload is the mixed integer/memory/branch benchmark used for
// the Figure 1 performance row. It runs from ScratchBase-relative
// addresses present on every platform.
const referenceWorkload = `
        .org 0x8000
        li   t0, 0          ; i
        li   t1, 4000       ; iterations
        li   t2, 0x9000     ; buffer
        li   s0, 0          ; accumulator
loop:   andi t3, t0, 63
        slli t3, t3, 2
        add  t4, t2, t3
        lw   s1, 0(t4)
        add  s1, s1, t0
        sw   s1, 0(t4)
        mul  s2, s1, t0
        add  s0, s0, s2
        andi t3, t0, 7
        bne  t3, zero, skip
        addi s0, s0, 13
skip:   addi t0, t0, 1
        bne  t0, t1, loop
        hlt
`

// PerfScore runs the reference workload on core 0 and returns millions of
// instructions per second achieved at the platform frequency.
func (p *Platform) PerfScore() (float64, error) {
	prog := isa.MustAssemble(referenceWorkload)
	if err := p.Mem.LoadProgram(prog); err != nil {
		return 0, err
	}
	c := p.Cores[0]
	c.Reset(prog.Entry)
	res, err := c.Run(2_000_000)
	if err != nil {
		return 0, err
	}
	if res.Reason != cpu.StopHalt {
		return 0, fmt.Errorf("platform: reference workload did not complete: %v", res.Reason)
	}
	seconds := float64(res.Cycles) / (float64(p.FreqMHz) * 1e6)
	return float64(res.Instret) / seconds / 1e6, nil
}

// EnergyJoules prices the retired instructions of a core plus static draw
// over the elapsed cycles.
func (p *Platform) EnergyJoules(c *cpu.CPU) float64 {
	k := c.Count
	dynamic := (float64(k.ALU)*p.Energy.ALUpJ +
		float64(k.Load+k.Store)*p.Energy.MempJ +
		float64(k.Mul)*p.Energy.MulpJ +
		float64(k.Branch+k.Jump)*p.Energy.BranchpJ +
		float64(k.CSR)*p.Energy.CSRpJ +
		float64(k.System)*p.Energy.SystempJ) * 1e-12
	seconds := float64(c.Cycles) / (float64(p.FreqMHz) * 1e6)
	return dynamic + p.Energy.StaticW*seconds
}

// AvgPowerW returns the average power of a core's execution so far.
func (p *Platform) AvgPowerW(c *cpu.CPU) float64 {
	seconds := float64(c.Cycles) / (float64(p.FreqMHz) * 1e6)
	if seconds == 0 {
		return 0
	}
	return p.EnergyJoules(c) / seconds
}

// FitsBudget reports whether the observed average power stays within the
// class budget.
func (p *Platform) FitsBudget(c *cpu.CPU) bool {
	return p.AvgPowerW(c) <= p.Energy.BudgetW
}
