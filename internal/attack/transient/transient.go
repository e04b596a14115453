// Package transient implements the Section 4.2 attacks end-to-end as
// programs running on the simulated CPU: Spectre-PHT (bounds-check
// bypass), Spectre-BTB (cross-training of indirect branches), ret2spec
// (return stack buffer poisoning), Meltdown (fault-deferred forwarding of
// supervisor data) and Foreshadow (L1 terminal fault against SGX,
// including the page-swap L1 preload and the extraction of the platform's
// attestation key — the paper's "trust has been shattered irreparably"
// example).
//
// The attacker's receiver is honest: a probe program on the same CPU times
// 256 cache lines with RDCYCLE and picks the fastest — no simulator
// backdoors are consulted.
package transient

import (
	"fmt"

	"github.com/intrust-sim/intrust/internal/cache"
	"github.com/intrust-sim/intrust/internal/cpu"
	"github.com/intrust-sim/intrust/internal/isa"
	"github.com/intrust-sim/intrust/internal/mem"
	"github.com/intrust-sim/intrust/internal/tee/sgx"
)

// Memory layout shared by the attack programs.
const (
	codeBase   = 0x1000
	arrayBase  = 0x2000 // bounds-checked array
	lenAddr    = 0x2100 // array length word
	secretBase = 0x2200 // victim secret (out of bounds for the array)
	probeBase  = 0x10000
	probeLines = 256
	lineSize   = 64
)

// Result reports an extraction attempt.
type Result struct {
	Attack    string
	Recovered []byte
	Target    []byte
	Correct   int
}

func (r Result) String() string {
	return fmt.Sprintf("%-12s: %d/%d bytes extracted", r.Attack, r.Correct, len(r.Target))
}

func (r *Result) grade() {
	for i := range r.Target {
		if i < len(r.Recovered) && r.Recovered[i] == r.Target[i] {
			r.Correct++
		}
	}
}

// probeProgram times every probe line and returns the fastest index in a0.
// t2 must hold the probe base address on entry.
//
// The fence at the loop head is attacker self-defense: without it, the
// attacker's own mispredicted comparison branch speculatively runs ahead
// into the next iteration and prefetches the line about to be measured,
// destroying the timing signal (real Spectre PoCs serialize with
// mfence/lfence for exactly this reason).
const probeProgram = `
        .org 0x6000
probe:  li   t0, 0           ; best index
        li   t1, 0x7ffffff   ; best time
        li   t3, 0           ; i
ploop:  fence                ; keep wrong-path run-ahead out of the timing
        slli t4, t3, 6
        add  t4, t4, t2
        rdcycle s0
        lbu  s2, 0(t4)
        rdcycle s1
        sub  s0, s1, s0
        bge  s0, t1, pnext
        mv   t1, s0
        mv   t0, t3
pnext:  addi t3, t3, 1
        slti t4, t3, 256
        bne  t4, zero, ploop
        mv   a0, t0
        hlt
`

// probeWarmBase is a scratch range the probe walks once before measuring,
// to warm its own code in the I-cache and train the loop branch.
const probeWarmBase = 0x20000

// machine is a bare high-end box for the same-address-space attacks.
type machine struct {
	c *cpu.CPU
	m *mem.Memory
}

func newMachine(feat cpu.Features) *machine {
	m := mem.NewMemory()
	m.MustAddRegion(mem.Region{Name: "ram", Base: 0, Size: 4 << 20, Kind: mem.RegionRAM})
	ctl := mem.NewController(m)
	c := cpu.New(0, ctl)
	c.Hier = &cache.Hierarchy{
		L1I:        cache.New(cache.Config{Name: "l1i", Sets: 64, Ways: 8, LineSize: 64, HitLatency: 2}),
		L1D:        cache.New(cache.Config{Name: "l1d", Sets: 64, Ways: 8, LineSize: 64, HitLatency: 3}),
		LLC:        cache.New(cache.Config{Name: "llc", Sets: 2048, Ways: 16, LineSize: 64, HitLatency: 24}),
		MemLatency: 150,
	}
	c.TLB = cache.NewTLB(32, 4)
	c.Pred = cpu.NewPredictor(2048, 512, 16)
	c.Feat = feat
	return &machine{c: c, m: m}
}

func (mc *machine) load(src string) *isa.Program {
	p := isa.MustAssemble(src)
	if err := mc.m.LoadProgram(p); err != nil {
		panic(err)
	}
	return p
}

// run starts at pc with the given a0 and runs to halt.
func (mc *machine) run(pc uint32, regs map[uint8]uint32) error {
	mc.c.Halted = false
	mc.c.Waiting = false
	mc.c.PC = pc
	for r, v := range regs {
		mc.c.Regs[r] = v
	}
	_, err := mc.c.Run(50_000)
	return err
}

func (mc *machine) flushProbe() {
	for i := 0; i < probeLines; i++ {
		mc.c.Hier.FlushAddr(uint32(probeBase + i*lineSize))
	}
}

// runProbe executes the in-ISA timing probe and returns the hot index.
// A warm-up pass over scratch memory first brings the probe code into the
// I-cache so the first measured lines are not penalized by cold fetches.
func (mc *machine) runProbe() (byte, error) {
	if err := mc.run(0x6000, map[uint8]uint32{isa.RegT2: probeWarmBase}); err != nil {
		return 0, err
	}
	if err := mc.run(0x6000, map[uint8]uint32{isa.RegT2: probeBase}); err != nil {
		return 0, err
	}
	return byte(mc.c.Regs[isa.RegA0]), nil
}

// SpectreV1 extracts secret bytes through a bounds-check-bypass gadget.
// withFence compiles the victim with a speculation barrier after the
// check (the software mitigation).
func SpectreV1(feat cpu.Features, secret []byte, withFence bool) (Result, error) {
	mc := newMachine(feat)
	fence := ""
	if withFence {
		fence = "fence\n"
	}
	mc.load(`
        .org 0x1000
victim: la   t0, 0x2100
        lw   t0, 0(t0)
        bgeu a0, t0, vout
        ` + fence + `
        la   t1, 0x2000
        add  t1, t1, a0
        lbu  t2, 0(t1)
        slli t2, t2, 6
        la   t3, 0x10000
        add  t3, t3, t2
        lbu  t4, 0(t3)
vout:   hlt
`)
	mc.load(probeProgram)
	if err := mc.m.LoadImage(lenAddr, []byte{16, 0, 0, 0}); err != nil {
		return Result{}, err
	}
	if err := mc.m.LoadImage(secretBase, secret); err != nil {
		return Result{}, err
	}
	res := Result{Attack: "spectre-pht", Target: secret}
	for i := range secret {
		// Train in-bounds. The probe program's own branches scramble the
		// gshare history between extractions, so train long enough for
		// the global history to reach its fixed point (all not-taken)
		// and saturate the operative PHT entry.
		for k := 0; k < 40; k++ {
			if err := mc.run(codeBase, map[uint8]uint32{isa.RegA0: uint32(k % 16)}); err != nil {
				return res, err
			}
		}
		mc.flushProbe()
		oob := uint32(secretBase - arrayBase + i)
		if err := mc.run(codeBase, map[uint8]uint32{isa.RegA0: oob}); err != nil {
			return res, err
		}
		b, err := mc.runProbe()
		if err != nil {
			return res, err
		}
		res.Recovered = append(res.Recovered, b)
	}
	res.grade()
	return res, nil
}

// SpectreBTB extracts secret bytes by mistraining an indirect branch to a
// disclosure gadget the victim never calls. flushPredictors enables the
// IBPB-style mitigation at the "context switch" between attacker training
// and victim execution.
func SpectreBTB(feat cpu.Features, secret []byte, flushPredictors bool) (Result, error) {
	mc := newMachine(feat)
	mc.load(`
        .org 0x1000
victim: jalr ra, t0, 0       ; indirect call through t0
        hlt
        .org 0x2000
legit:  addi a1, a1, 1
        hlt
        .org 0x3000
gadget: la   t1, 0x2200
        add  t1, t1, s1      ; s1 = byte offset
        lbu  t2, 0(t1)
        slli t2, t2, 6
        la   t3, 0x10000
        add  t3, t3, t2
        lbu  t4, 0(t3)
        hlt
`)
	mc.load(probeProgram)
	if err := mc.m.LoadImage(secretBase, secret); err != nil {
		return Result{}, err
	}
	res := Result{Attack: "spectre-btb", Target: secret}
	for i := range secret {
		// Attacker phase: execute the same-VA branch to the gadget. The
		// gadget runs architecturally here, so flush the probe after.
		if err := mc.run(codeBase, map[uint8]uint32{
			isa.RegT0: 0x3000, isa.RegS1: uint32(i)}); err != nil {
			return res, err
		}
		mc.flushProbe()
		if flushPredictors {
			mc.c.Pred.Flush() // predictor isolation on context switch
		}
		// Victim phase: legitimate target; speculation follows the BTB.
		if err := mc.run(codeBase, map[uint8]uint32{
			isa.RegT0: 0x2000, isa.RegS1: uint32(i)}); err != nil {
			return res, err
		}
		b, err := mc.runProbe()
		if err != nil {
			return res, err
		}
		res.Recovered = append(res.Recovered, b)
	}
	res.grade()
	return res, nil
}

// Ret2spec extracts secret bytes by poisoning the return stack buffer so a
// victim return transiently executes the disclosure gadget.
func Ret2spec(feat cpu.Features, secret []byte) (Result, error) {
	mc := newMachine(feat)
	mc.load(`
        .org 0x1000
victim: ret                  ; architectural target in ra
        .org 0x3000
gadget: la   t1, 0x2200
        add  t1, t1, s1
        lbu  t2, 0(t1)
        slli t2, t2, 6
        la   t3, 0x10000
        add  t3, t3, t2
        lbu  t4, 0(t3)
        hlt
        .org 0x5000
landing: hlt
`)
	mc.load(probeProgram)
	if err := mc.m.LoadImage(secretBase, secret); err != nil {
		return Result{}, err
	}
	res := Result{Attack: "ret2spec", Target: secret}
	for i := range secret {
		mc.flushProbe()
		// Attacker poisons the RSB with the gadget address (modelled as
		// the residue of attacker calls before the context switch).
		mc.c.Pred.PushReturn(0x3000)
		mc.c.Regs[isa.RegS1] = uint32(i)
		if err := mc.run(codeBase, map[uint8]uint32{
			isa.RegRA: 0x5000, isa.RegS1: uint32(i)}); err != nil {
			return res, err
		}
		b, err := mc.runProbe()
		if err != nil {
			return res, err
		}
		res.Recovered = append(res.Recovered, b)
	}
	res.grade()
	return res, nil
}

// Meltdown extracts kernel memory from user space through the
// fault-forwarding window. The kernel secret is mapped supervisor-only;
// the user attacker faults on it and transmits the forwarded byte through
// the probe array before the trap is delivered.
func Meltdown(feat cpu.Features, secret []byte) (Result, error) {
	mc := newMachine(feat)
	as, err := cpu.NewAddressSpace(mc.m, 0x100000, 0x40000, 1)
	if err != nil {
		return Result{}, err
	}
	mc.load(`
        .org 0x1000
attack: lbu  t2, 0(t0)       ; t0 = kernel VA; faults, forwards
        slli t2, t2, 6
        la   t3, 0x10000
        add  t3, t3, t2
        lbu  t4, 0(t3)
        hlt
        .org 0x400
trap:   hlt
`)
	mc.load(probeProgram)
	const kernelVA, kernelPA = 0x80000, 0x70000
	if err := mc.m.LoadImage(kernelPA, secret); err != nil {
		return Result{}, err
	}
	// Supervisor-only mapping of the secret; user mappings for code and
	// probe; trap page supervisor-executable.
	maps := []struct {
		va, pa, n uint32
		flags     uint32
	}{
		{kernelVA, kernelPA, 4096, cpu.PTERead},
		{0x0, 0x0, 4096, cpu.PTERead | cpu.PTEExec},
		{0x1000, 0x1000, 0x6000, cpu.PTERead | cpu.PTEExec | cpu.PTEUser},
		{probeBase, probeBase, probeLines * lineSize, cpu.PTERead | cpu.PTEUser},
		{probeWarmBase, probeWarmBase, probeLines * lineSize, cpu.PTERead | cpu.PTEUser},
	}
	for _, mp := range maps {
		if err := as.MapRange(mp.va, mp.pa, mp.n, mp.flags); err != nil {
			return Result{}, err
		}
	}
	mc.c.Reset(codeBase)
	mc.c.SetCSR(isa.CSRTvec, 0x400)
	mc.c.SetCSR(isa.CSRSatp, as.SATP())
	res := Result{Attack: "meltdown", Target: secret}
	for i := range secret {
		mc.flushProbe()
		mc.c.Priv = isa.PrivUser
		if err := mc.run(codeBase, map[uint8]uint32{isa.RegT0: kernelVA + uint32(i)}); err != nil {
			return res, err
		}
		// The probe runs in user mode too (same address space).
		mc.c.Priv = isa.PrivUser
		b, err := mc.runProbe()
		if err != nil {
			return res, err
		}
		res.Recovered = append(res.Recovered, b)
	}
	res.grade()
	return res, nil
}

// ForeshadowSGX extracts the platform's SGX attestation key from the
// quoting enclave's EPC memory:
//
//  1. the malicious OS maps the EPC page into the attacker's address
//     space and clears the present bit (L1 terminal fault setup);
//  2. SGX's secure page swapping (EWB/ELD) forces the page's plaintext
//     through the L1 cache — no enclave cooperation needed;
//  3. a faulting user load forwards the L1 plaintext to the probe gadget.
//
// With s.MitigateL1TF (microcode L1 flush on enclave interface crossings
// plus our explicit flush after paging), the same code recovers nothing.
func ForeshadowSGX(s *sgx.SGX, nbytes int, mitigated bool) (Result, error) {
	plat := s.Platform()
	c := plat.Core(0)
	keyAddr, keyLen := s.QuotingKeyAddress()
	if nbytes > keyLen {
		nbytes = keyLen
	}
	target := make([]byte, nbytes)
	// Ground truth for grading only.
	copy(target, s.QuotingPublic().PrivateBytes()[:nbytes])
	res := Result{Attack: "foreshadow", Target: target}

	// Attacker code + probe in low memory.
	prog := isa.MustAssemble(`
        .org 0x1000
attack: lbu  t2, 0(t0)       ; t0 = VA of enclave byte; terminal fault
        slli t2, t2, 6
        la   t3, 0x10000
        add  t3, t3, t2
        lbu  t4, 0(t3)
        hlt
        .org 0x400
trap:   hlt
` + probeProgram)
	if err := plat.Mem.LoadProgram(prog); err != nil {
		return res, err
	}
	as, err := cpu.NewAddressSpace(plat.Mem, 0x1800000, 0x40000, 3)
	if err != nil {
		return res, err
	}
	const evVA = 0x90000
	epcPage := keyAddr &^ 0xfff
	maps := []struct {
		va, pa, n uint32
		flags     uint32
	}{
		{evVA, epcPage, 4096, cpu.PTERead | cpu.PTEUser},
		{0x0, 0x0, 4096, cpu.PTERead | cpu.PTEExec},
		{0x1000, 0x1000, 0x6000, cpu.PTERead | cpu.PTEExec | cpu.PTEUser},
		{probeBase, probeBase, probeLines * lineSize, cpu.PTERead | cpu.PTEUser},
		{probeWarmBase, probeWarmBase, probeLines * lineSize, cpu.PTERead | cpu.PTEUser},
	}
	for _, mp := range maps {
		if err := as.MapRange(mp.va, mp.pa, mp.n, mp.flags); err != nil {
			return res, err
		}
	}
	// Malicious-OS step: clear the present bit; the stale frame bits keep
	// pointing into the EPC.
	if err := as.SetFlags(evVA, 0, cpu.PTEValid); err != nil {
		return res, err
	}
	qe := s.QuotingEnclaveHandle()
	c.SetCSR(isa.CSRTvec, 0x400)
	c.SetCSR(isa.CSRSatp, as.SATP())
	for i := 0; i < nbytes; i++ {
		// Page-swap preload: evict and reload the key page; ELD decrypts
		// it through L1.
		blob, err := s.EWB(qe, epcPage)
		if err != nil {
			return res, err
		}
		if err := s.ELD(blob); err != nil {
			return res, err
		}
		if mitigated {
			c.Hier.FlushL1() // the L1TF microcode mitigation
		}
		for l := 0; l < probeLines; l++ {
			c.Hier.FlushAddr(uint32(probeBase + l*lineSize))
		}
		c.TLB.FlushAll()
		c.Halted = false
		c.PC = 0x1000
		c.Priv = isa.PrivUser
		c.Domain = 0
		c.Regs[isa.RegT0] = evVA + (keyAddr & 0xfff) + uint32(i)
		if _, err := c.Run(50_000); err != nil {
			return res, err
		}
		// Probe with RDCYCLE timing (warm-up pass first).
		for _, base := range []uint32{probeWarmBase, probeBase} {
			c.Halted = false
			c.PC = 0x6000
			c.Priv = isa.PrivUser
			c.Regs[isa.RegT2] = base
			if _, err := c.Run(50_000); err != nil {
				return res, err
			}
		}
		res.Recovered = append(res.Recovered, byte(c.Regs[isa.RegA0]))
	}
	res.grade()
	return res, nil
}
