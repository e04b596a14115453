package scenario

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/intrust-sim/intrust/internal/attack/cachesca"
	"github.com/intrust-sim/intrust/internal/attack/physical"
	"github.com/intrust-sim/intrust/internal/cpu"
	"github.com/intrust-sim/intrust/internal/defense"
	"github.com/intrust-sim/intrust/internal/engine"
	"github.com/intrust-sim/intrust/internal/platform"
	"github.com/intrust-sim/intrust/internal/power"
	"github.com/intrust-sim/intrust/internal/tee/sgx"
)

// Shared victim geometry: the T-table AES victim lives in domain 5 with
// its tables at 0x40000 (0x2000 bytes: four T-tables plus the S-box); the
// cache attacker observes from domain 9. The TLB channel uses ASIDs 1
// (victim) and 2 (attacker).
const (
	// VictimDomain is the cache security domain of the AES victim.
	VictimDomain = 5
	// AttackerDomain is the cache security domain the attacker probes
	// from.
	AttackerDomain = 9
	// VictimTableBase is the simulated address of the victim's T0 table.
	VictimTableBase = 0x40000
	// VictimTableSize bounds the victim's table range (T0–T3 + S-box).
	VictimTableSize = 0x2000
	// VictimASID is the victim's TLB address-space identifier.
	VictimASID = 1
	// AttackerASID is the attacker's TLB address-space identifier.
	AttackerASID = 2
)

// VictimKey returns the AES key every sweep victim is provisioned with —
// fixed so recovery can be graded.
func VictimKey() []byte { return []byte("sweep aes key 16") }

// Env is the typed environment every scenario mounts from. It packages
// what the bespoke attack signatures used to demand ad hoc: the target
// architecture and its platform class, the matching CPU feature set,
// victim constructors wired through the cell's defense configuration,
// the per-job deterministic RNG and seed, and the sample budget.
//
// The defense configuration is the third sweep axis (paper §4.1/§5:
// every mitigation buys some cells and leaves others broken). NewEnv
// resolves an architecture's stock defenses from the defense registry —
// the wiring that used to be a hard-coded switch in NewPlatform —
// while NewEnvWithDefenses mounts any explicit mitigation set.
type Env struct {
	// Arch is the target architecture key (one of platform.Architectures).
	Arch string
	// Class is the platform class Arch is built on
	// (platform.ArchClass): it builds the cell's platforms (NewPlatform),
	// gives its cores' features (Features), and names the class in detail
	// lines by its Key.
	Class platform.Class
	// Samples is the sample budget (traces, timings, probe rounds).
	Samples int
	// Seed is the job's derived seed, for APIs that take a seed rather
	// than a *rand.Rand (e.g. physical.CLKSCREW).
	Seed int64
	// RNG is the job-private deterministic random source. Scenarios
	// must draw all randomness from it (never the global source).
	RNG *rand.Rand
	// Defenses are the mitigations in effect for this cell, already
	// validated as applicable to Arch.
	Defenses []*defense.Spec

	cfg *defense.Config

	// scratch is the reuse store NewPlatform and TraceArena draw from.
	// A fresh Env owns one, which Batch shares, so every escalation pass
	// of one cell reuses one platform and one arena instead of
	// rebuilding the whole hierarchy (the server LLC alone backs 128Ki
	// lines) per pass. BindScratch widens reuse from per-cell to
	// per-worker: platforms key by class, so consecutive cells of the
	// same class on one worker share a hierarchy across the sweep. Reuse
	// is value-invisible (platform.Reset is pinned ≡ fresh; the arena is
	// Reset per cell), so a cell measures bit-identically with or
	// without a bound scratch — the determinism matrix test enforces it.
	scratch *engine.Scratch
}

// NewEnv builds the environment for one (architecture, job) pair with the
// architecture's stock defenses (the paper's §4.1 wiring, resolved from
// the defense registry). A nil rng is derived from seed; samples <= 0
// defaults to 256.
func NewEnv(arch string, samples int, seed int64, rng *rand.Rand) (*Env, error) {
	return NewEnvWithDefenses(arch, samples, seed, rng, defense.StockFor(arch))
}

// NewEnvWithDefenses builds the environment for one (architecture,
// defense set, job) triple. Every defense must be applicable to the
// architecture — the sweep reports non-applicable combinations as n/a
// cells before ever constructing an environment.
func NewEnvWithDefenses(arch string, samples int, seed int64, rng *rand.Rand, defenses []*defense.Spec) (*Env, error) {
	class, ok := platform.ArchClass(arch)
	if !ok {
		return nil, fmt.Errorf("scenario: unknown architecture %q", arch)
	}
	if samples <= 0 {
		samples = 256
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(seed))
	}
	cfg, err := defense.NewConfig(arch, VictimDomain, AttackerDomain, VictimASID, AttackerASID, VictimTableBase, VictimTableSize)
	if err != nil {
		return nil, err
	}
	for _, d := range defenses {
		if ok, reason := d.Applicable(arch); !ok {
			return nil, fmt.Errorf("scenario: defense %s not applicable on %s: %s", d.Name(), arch, reason)
		}
		d.Configure(cfg)
	}
	return &Env{Arch: arch, Class: class, Samples: samples, Seed: seed, RNG: rng,
		Defenses: defenses, cfg: cfg, scratch: engine.NewScratch()}, nil
}

// Batch derives the environment for sequential-sampling batch i of this
// cell: the same architecture, class and resolved defense wiring, a
// budget-sized sample allowance, and a batch-private RNG. Batch 0 runs
// under the job seed itself — so an adaptive schedule whose first batch
// carries the full budget reproduces the fixed-budget measurement
// bit-for-bit — and every later batch derives its seed from the job seed
// and the batch index alone. Stopping points therefore depend only on
// the job seed, never on engine parallelism or scheduling order.
func (e *Env) Batch(i, budget int) *Env {
	if budget <= 0 {
		budget = e.Samples
	}
	seed := e.Seed
	if i > 0 {
		seed = engine.DeriveSeed(e.Seed, fmt.Sprintf("batch/%d", i))
	}
	b := *e
	b.Samples = budget
	b.Seed = seed
	b.RNG = rand.New(rand.NewSource(seed))
	return &b
}

// BindScratch replaces the cell's own scratch store with the executing
// worker's, enabling cross-cell reuse of platforms and trace arenas.
// The sweep binds it from engine.Ctx.
func (e *Env) BindScratch(s *engine.Scratch) { e.scratch = s }

// TraceArena returns the power-trace arena for this cell, reset empty.
// The arena is scratch-pooled: its quantized-sample backing, class-sum
// caches and input store persist from pass to pass (and, under a bound
// worker scratch, from cell to cell), so steady-state trace collection
// and analysis never touch the heap.
func (e *Env) TraceArena() *power.Arena {
	const key = "scenario/power/arena"
	if a, ok := e.scratch.Get(key).(*power.Arena); ok {
		a.Reset()
		return a
	}
	a := power.NewArena(16)
	e.scratch.Put(key, a)
	return a
}

// DefenseConfig exposes the cell's resolved defense wiring — the knob set
// scenarios consult when a mitigation lives in victim construction or
// attack parameters rather than platform assembly.
func (e *Env) DefenseConfig() *defense.Config { return e.cfg }

// DefenseLabel names the cell's mitigation set for detail lines and table
// cells: "none", or the "+"-joined defense names. Deriving the label from
// the resolved defense values (never a parallel string table) is what
// keeps cell labels from drifting from the actual wiring.
func (e *Env) DefenseLabel() string {
	if len(e.Defenses) == 0 {
		return "none"
	}
	names := make([]string, len(e.Defenses))
	for i, d := range e.Defenses {
		names[i] = d.Name()
	}
	return strings.Join(names, "+")
}

// Features returns the CPU feature set of the environment's platform
// class, with fault forwarding cleared under the no-fault-forwarding
// defense (§4.2 fixed silicon).
func (e *Env) Features() cpu.Features {
	f := e.Class.Features()
	if e.cfg.NoFaultForwarding {
		f.FaultForwarding = false
	}
	return f
}

// NewPlatform returns a platform of the architecture's class with the
// cell's defense configuration applied — the platform hooks the §4.1
// cache-isolation defenses installed via Configure. With the stock
// defense set this reproduces the paper's wiring (LLC way-partitioning on
// Sanctum, cache exclusion/coloring on Sanctuary, nothing on SGX or
// TrustZone) from registry metadata instead of the hard-coded
// per-architecture block this method used to carry.
//
// The first call on a scratch store assembles the platform; later calls
// (the adaptive engine's escalation passes reach here through Batch,
// which shares the store, and with a bound worker scratch every later
// cell of the same class) reset the pooled instance back to its
// as-built microarchitectural state and re-apply the cell's
// configuration, which measures bit-identically to a fresh assembly
// without re-deriving the whole hierarchy.
func (e *Env) NewPlatform() *platform.Platform {
	key := "scenario/platform/" + e.Class.Key()
	if p, ok := e.scratch.Get(key).(*platform.Platform); ok {
		p.Reset()
		e.cfg.Apply(p)
		return p
	}
	p := e.Class.New()
	e.cfg.Apply(p)
	e.scratch.Put(key, p)
	return p
}

// AESVictim places the standard AES victim on the platform (at
// VictimTableBase, tagged VictimDomain) so cache scenarios observe it
// through whatever the cell's defense configuration mounted: the
// unprotected T-table implementation by default, the constant-time
// implementation under ct-aes (§4.1), with cache-hygiene on every
// enclave exit under flush-on-switch (§4.1).
func (e *Env) AESVictim(p *platform.Platform) (*cachesca.Victim, error) {
	hier := p.Core(0).Hier
	var v *cachesca.Victim
	var err error
	if e.cfg.ConstantTimeAES {
		v, err = cachesca.NewCTVictim(hier, VictimKey(), VictimDomain, VictimTableBase)
	} else {
		v, err = cachesca.NewVictim(hier, VictimKey(), VictimDomain, VictimTableBase)
	}
	if err != nil {
		return nil, err
	}
	if e.cfg.FlushOnSwitch {
		v.OnSwitch = hier.FlushAll
	}
	return v, nil
}

// PowerAESVictim builds the AES victim the §5 power-analysis scenarios
// trace: first-order masked under the masked-aes defense, unprotected
// otherwise. The mask generator is seeded from the job seed to keep the
// cell deterministic.
func (e *Env) PowerAESVictim() (physical.AESVictim, error) {
	if e.cfg.MaskedAES {
		return physical.NewMaskedAESVictim(VictimKey(), e.Seed^0x6d61736b)
	}
	return physical.NewUnprotectedAES(VictimKey())
}

// PowerProbe builds a measurement probe with the cell's hiding
// countermeasure applied: under clock-jitter (§5) up to TraceJitter
// random dummy operations per leaked value misalign the traces.
func (e *Env) PowerProbe(sigma float64, seed int64) *power.Probe {
	pr := power.PowerProbe(sigma, seed)
	pr.JitterMax = e.cfg.TraceJitter
	return pr
}

// SGX builds the SGX instance for scenarios that target the EPC
// (Foreshadow). It errors on any other architecture — callers should have
// reported n/a through Applicable instead.
//
// The platform's fuse — and so the MEE key, platform secret and quoting
// key — derives from the cell's seed alone (platform.FuseFromSeed), never
// from the cell RNG, so a cell's keys replay exactly and no other draw in
// the cell shifts.
func (e *Env) SGX() (*sgx.SGX, error) {
	if e.Arch != "sgx" {
		return nil, fmt.Errorf("scenario: SGX instance requested for architecture %q", e.Arch)
	}
	p := platform.NewServer()
	p.Fuse = platform.FuseFromSeed(e.Seed)
	return sgx.New(p)
}
