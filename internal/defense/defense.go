// Package defense is the mitigation axis of the simulator: every
// hardware or software countermeasure the paper surveys — the cache
// isolation mechanisms of Section 4.1, the speculation controls of
// Section 4.2 and the side-channel/fault countermeasures of Section 5 —
// is a first-class, enumerable Defense registered in a process-wide
// catalog, exactly mirroring the attack-scenario registry in
// internal/scenario.
//
// A Defense is a pure configuration transform: Configure edits a Config —
// platform assembly hooks plus victim-construction knobs — and the
// scenario environment (scenario.Env) applies the resulting Config when
// it builds platforms and victims. Nothing about an architecture's
// defense wiring is hard-coded anymore: the per-architecture stock
// defenses of Env.NewPlatform became catalog entries with StockOn
// metadata, so the sweep can run any architecture with its stock
// defenses, with none, or with any mitigation the paper discusses —
// the scenario × architecture × defense efficacy grid.
//
// The package sits below internal/scenario (which consumes it) and above
// internal/platform / internal/cache (whose knobs it turns); it never
// imports the scenario or engine layers.
package defense

import (
	"fmt"

	"github.com/intrust-sim/intrust/internal/cache"
	"github.com/intrust-sim/intrust/internal/platform"
)

// Family names a defense counters, in the paper's section order. They
// deliberately equal the scenario family keys so the efficacy grid pairs
// each mitigation with the attack family it targets.
const (
	// FamilyCacheSCA marks defenses against the §4.1 cache side channels.
	FamilyCacheSCA = "cachesca"
	// FamilyTransient marks defenses against the §4.2 transient-execution
	// attacks.
	FamilyTransient = "transient"
	// FamilyPhysical marks defenses against the §5 classical physical
	// attacks.
	FamilyPhysical = "physical"
	// FamilyAttestation marks defenses against attacks on the §3 remote
	// attestation protocol flow (quote replay, measure/use TOCTOU,
	// stale-TCB acceptance).
	FamilyAttestation = "attestation"
)

// FamilyOrder ranks the countered families in the paper's section order
// (§4.1, §4.2, §5, then the §3 attestation lifecycle, which the survey
// introduces first but this codebase grew last). The deterministic
// ordering used by Registry.All.
var FamilyOrder = []string{FamilyCacheSCA, FamilyTransient, FamilyPhysical, FamilyAttestation}

// Config is the wiring a Defense transforms: everything the scenario
// environment consults when it assembles a platform and constructs
// victims. The geometry fields are inputs filled by the environment
// before any Configure call; the knob fields start at their undefended
// zero values and are turned on by defenses.
type Config struct {
	// Arch is the target architecture key (input).
	Arch string
	// Class is the architecture's platform class (input).
	Class platform.Class

	// VictimDomain and AttackerDomain are the cache security domains of
	// the shared victim geometry (input).
	VictimDomain, AttackerDomain int
	// VictimASID and AttackerASID are the TLB address-space IDs of the
	// TLB-channel geometry (input).
	VictimASID, AttackerASID int
	// VictimTableBase/VictimTableSize bound the victim's T-table range
	// (input).
	VictimTableBase, VictimTableSize uint32

	// PlatformHooks run, in order, on every freshly assembled platform —
	// the seam the cache-isolation defenses (§4.1) configure through.
	PlatformHooks []func(p *platform.Platform)

	// ConstantTimeAES builds cache-observed AES victims from the
	// constant-time implementation (§4.1): no secret-indexed table
	// lookups reach the hierarchy.
	ConstantTimeAES bool
	// MaskedAES builds power-traced AES victims from the first-order
	// masked implementation (§5). Independent of ConstantTimeAES — the
	// two knobs protect different observation channels and a layered
	// implementation can be both.
	MaskedAES bool
	// FlushOnSwitch flushes the core's cache hierarchy on every enclave
	// exit (§4.1 random-fill/flush-on-switch family).
	FlushOnSwitch bool
	// SpecBarrier inserts an lfence-style barrier after bounds checks
	// (§4.2, the Spectre-PHT software mitigation).
	SpecBarrier bool
	// PredictorFlush flushes branch-predictor state (BTB/PHT/RSB) on
	// context switches (§4.2, IBPB-style).
	PredictorFlush bool
	// NoFaultForwarding models fixed silicon (§4.2): a faulting load
	// never forwards its data to dependent transient instructions.
	NoFaultForwarding bool
	// L1TFFlush applies the Foreshadow microcode fix (§4.2): the L1 data
	// cache is flushed on every enclave exit, so no EPC line survives for
	// a terminal fault to read.
	L1TFFlush bool
	// CRTCheck verifies RSA-CRT signatures before release (§5, the
	// Shamir/infective fault-check family).
	CRTCheck bool
	// TraceJitter inserts up to this many random dummy operations per
	// leaked value in power traces (§5 hiding).
	TraceJitter int
	// ClockJitter randomizes the secure world's clock so injected faults
	// miss the targeted round (§5 fault countermeasure; also raises DPA
	// alignment cost).
	ClockJitter bool
	// QuoteFreshness makes attestation verifiers track challenge nonces
	// and accept each exactly once (§3 protocol hygiene): a captured
	// quote replayed into a later session no longer verifies.
	QuoteFreshness bool
	// MeasurementLock makes the quoting path re-measure the live enclave
	// image instead of signing the ledger entry recorded at load time,
	// closing the measure→quote TOCTOU window.
	MeasurementLock bool
	// TCBRefresh makes verifiers pull the sweep-driven revocation state
	// and enforce the per-architecture minimum TCB version, rejecting
	// stale-TCB quotes.
	TCBRefresh bool
}

// NewConfig returns the undefended wiring for one architecture with the
// given victim geometry. It errors on unknown architectures.
func NewConfig(arch string, victimDomain, attackerDomain int, victimASID, attackerASID int, tableBase, tableSize uint32) (*Config, error) {
	class, ok := platform.ArchClass(arch)
	if !ok {
		return nil, fmt.Errorf("defense: unknown architecture %q", arch)
	}
	return &Config{
		Arch: arch, Class: class,
		VictimDomain: victimDomain, AttackerDomain: attackerDomain,
		VictimASID: victimASID, AttackerASID: attackerASID,
		VictimTableBase: tableBase, VictimTableSize: tableSize,
	}, nil
}

// Apply runs every registered platform hook on a freshly assembled
// platform, in Configure order.
func (c *Config) Apply(p *platform.Platform) {
	for _, h := range c.PlatformHooks {
		h(p)
	}
}

// Defense is one mitigation as an enumerable unit. Implementations must
// be pure config transforms: Configure edits the Config and touches no
// other state, so the same Defense value is safe to use from concurrent
// sweep jobs.
type Defense interface {
	// Name uniquely identifies the defense in the registry
	// (e.g. "way-partition", "ct-aes").
	Name() string
	// Family is the attack family the defense primarily counters (one of
	// FamilyCacheSCA, FamilyTransient, FamilyPhysical).
	Family() string
	// AppliesTo reports whether the defense is meaningful on the given
	// architecture; when it is not, reason states why in the paper's
	// terms (e.g. "no shared LLC to partition on the embedded platform").
	AppliesTo(arch string) (ok bool, reason string)
	// Configure applies the defense to the wiring.
	Configure(c *Config)
}

// Describer is an optional Defense extension providing catalog metadata
// for `intrust defenses` and the generated docs/DEFENSES.md.
type Describer interface {
	// Describe returns the paper section the defense comes from
	// (e.g. "4.1") and a one-line summary of what it configures.
	Describe() (section, summary string)
}

// Blocker is an optional Defense extension declaring which attack
// scenarios the mitigation is designed to stop — the paper's
// defense-efficacy matrix, pinned by tests against measured sweep cells.
type Blocker interface {
	// Blocks returns the scenario names the defense stops.
	Blocks() []string
}

// Stocker is an optional Defense extension declaring the architectures
// that ship the mitigation by default (the paper's §4.1 wiring: LLC
// partitioning on Sanctum, cache exclusion/coloring on Sanctuary).
type Stocker interface {
	// StockOn returns the architecture keys with the defense stock-on.
	StockOn() []string
}

// Spec is the standard Defense implementation: a declarative record
// wrapping a config transform. All catalog defenses are Specs, and
// downstream users can register their own.
type Spec struct {
	// ID is the unique defense name.
	ID string
	// In is the attack family the defense primarily counters.
	In string
	// Section is the paper section the defense comes from (e.g. "4.1").
	Section string
	// Summary is a one-line description for the catalog listing.
	Summary string
	// BlocksList names the scenarios the defense is designed to stop.
	BlocksList []string
	// Stock lists the architectures that ship the defense by default.
	Stock []string
	// Applies decides per-architecture applicability; nil means the
	// defense applies to every known architecture.
	Applies func(arch string) (bool, string)
	// Apply performs the config transform.
	Apply func(c *Config)
}

// Name implements Defense.
func (s *Spec) Name() string { return s.ID }

// Family implements Defense.
func (s *Spec) Family() string { return s.In }

// AppliesTo implements Defense. Unknown architectures are never
// applicable.
func (s *Spec) AppliesTo(arch string) (bool, string) {
	if _, ok := platform.ArchClass(arch); !ok {
		return false, fmt.Sprintf("unknown architecture %q", arch)
	}
	if s.Applies == nil {
		return true, ""
	}
	return s.Applies(arch)
}

// Configure implements Defense.
func (s *Spec) Configure(c *Config) {
	if s.Apply != nil {
		s.Apply(c)
	}
}

// Describe implements Describer.
func (s *Spec) Describe() (string, string) { return s.Section, s.Summary }

// Blocks implements Blocker.
func (s *Spec) Blocks() []string { return s.BlocksList }

// StockOn implements Stocker.
func (s *Spec) StockOn() []string { return s.Stock }

// DescriptionOf returns a defense's paper section and summary, or empty
// strings when it provides none.
func DescriptionOf(d Defense) (section, summary string) {
	if dd, ok := d.(Describer); ok {
		return dd.Describe()
	}
	return "", ""
}

// BlocksOf returns the scenario names a defense declares it stops, or
// nil when it declares none.
func BlocksOf(d Defense) []string {
	if b, ok := d.(Blocker); ok {
		return b.Blocks()
	}
	return nil
}

// StockOnOf returns the architectures a defense declares itself stock-on,
// or nil when it declares none.
func StockOnOf(d Defense) []string {
	if s, ok := d.(Stocker); ok {
		return s.StockOn()
	}
	return nil
}

// halfWayMasks splits a cache's ways between the victim (lower half) and
// the attacker (upper half) — the DAWG-style protection-domain split the
// way-partitioning defenses install. A direct-mapped structure cannot be
// way-partitioned: with ways < 2 the victim mask would be 0, which the
// SetPartition APIs interpret as "clear the partition", silently leaving
// the channel open — so that is a configuration bug worth a panic, not a
// no-op.
func halfWayMasks(ways int) (victim, attacker uint64) {
	if ways < 2 {
		panic(fmt.Sprintf("defense: cannot way-partition a %d-way (direct-mapped) structure", ways))
	}
	victim = (uint64(1) << uint(ways/2)) - 1
	attacker = ((uint64(1) << uint(ways)) - 1) &^ victim
	return victim, attacker
}

// partitionCache installs the victim/attacker way split on one cache
// level (nil-safe for platforms without that level).
func partitionCache(c *cache.Cache, victimDomain, attackerDomain int) {
	if c == nil {
		return
	}
	v, a := halfWayMasks(c.Config().Ways)
	c.SetPartition(victimDomain, v)
	c.SetPartition(attackerDomain, a)
}
