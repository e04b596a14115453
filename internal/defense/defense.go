// Package defense is the mitigation axis of the efficacy grid: every
// hardware or software countermeasure the paper surveys — the cache
// isolation mechanisms of Section 4.1, the speculation controls of
// Section 4.2, the side-channel/fault countermeasures of Section 5 and
// the §3 attestation-protocol policies — is one Spec record in a
// process-wide catalog, kept in the same registry type (internal/axis)
// as the attack scenarios.
//
// A defense is a pure configuration transform: Configure edits a Config —
// platform assembly hooks plus victim-construction knobs — and the
// scenario environment (scenario.Env) applies the resulting Config when
// it builds platforms and victims. Nothing about an architecture's
// defense wiring is hard-coded: the per-architecture stock defenses are
// catalog entries whose Stock field names the architectures, so the
// sweep can run any architecture with its stock defenses, with none, or
// with any mitigation the paper discusses — the scenario × architecture
// × defense efficacy grid.
//
// The package sits below internal/scenario (which consumes it) and above
// internal/platform / internal/cache (whose knobs it turns); it never
// imports the scenario or engine layers.
package defense

import (
	"errors"
	"fmt"
	"strings"

	"github.com/intrust-sim/intrust/internal/axis"
	"github.com/intrust-sim/intrust/internal/cache"
	"github.com/intrust-sim/intrust/internal/platform"
)

// Config is the wiring a defense transforms: everything the scenario
// environment consults when it assembles a platform and constructs
// victims. The geometry fields are inputs filled by the environment
// before any Configure call; the knob fields start at their undefended
// zero values and are turned on by defenses.
type Config struct {
	// Arch is the target architecture key (input).
	Arch string

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
	if _, ok := platform.ArchClass(arch); !ok {
		return nil, fmt.Errorf("defense: unknown architecture %q", arch)
	}
	return &Config{
		Arch: arch, VictimDomain: victimDomain, AttackerDomain: attackerDomain,
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

// Spec is one mitigation as an enumerable, toggleable record. Every
// catalog entry is a Spec. Apply must be a pure config transform: it
// edits the Config and touches no other state, so the same Spec is safe
// to use from concurrent sweep jobs.
type Spec struct {
	// ID is the unique defense name (e.g. "way-partition", "ct-aes").
	ID string
	// In is the attack family the defense primarily counters (one of
	// the axis.Family* keys).
	In string
	// Section is the paper section the defense comes from (e.g. "4.1").
	Section string
	// Summary is a one-line description for the catalog listing.
	Summary string
	// BlocksList names the scenarios the defense is designed to stop —
	// the paper's defense-efficacy matrix, pinned by tests against
	// measured sweep cells.
	BlocksList []string
	// Stock lists the architectures that ship the defense by default
	// (the paper's §4.1 wiring: LLC partitioning on Sanctum, cache
	// exclusion/coloring on Sanctuary).
	Stock []string
	// Applies decides per-architecture applicability, with the paper's
	// reason when the defense is not meaningful (e.g. "no shared LLC to
	// partition on the embedded platform"); nil means every known
	// architecture.
	Applies func(arch string) (bool, string)
	// Apply performs the config transform.
	Apply func(c *Config)
}

// Name returns the defense's registry name.
func (s *Spec) Name() string { return s.ID }

// Family returns the attack family the defense counters.
func (s *Spec) Family() string { return s.In }

// Applicable reports whether the defense is meaningful on the given
// architecture, and why not when it is not. Unknown architectures are
// never applicable.
func (s *Spec) Applicable(arch string) (bool, string) {
	if _, ok := platform.ArchClass(arch); !ok {
		return false, fmt.Sprintf("unknown architecture %q", arch)
	}
	if s.Applies == nil {
		return true, ""
	}
	return s.Applies(arch)
}

// Configure applies the defense to the wiring.
func (s *Spec) Configure(c *Config) {
	if s.Apply != nil {
		s.Apply(c)
	}
}

// NewRegistry returns an empty defense registry. Besides the shared
// registry rules, a name may not be one of the -defense axis tokens
// "none", "stock" and "all", and may not contain an axis separator: the
// axis splits selections on ',' and combinations on '+', and the
// defense label becomes a '/'-separated experiment-name segment, so such
// a name would be unselectable or would corrupt cell-name parsing.
func NewRegistry() *axis.Registry[*Spec] {
	return axis.New("defense", func(s *Spec) error {
		switch strings.ToLower(s.ID) {
		case "none", "stock", "all":
			return errors.New("name is a reserved axis token")
		}
		if strings.ContainsAny(s.ID, "+,/") {
			return errors.New("name contains an axis separator (one of \"+,/\")")
		}
		return nil
	})
}

// Default is the process-wide registry the catalog self-registers into
// and the sweep's -defense axis resolves against.
var Default = NewRegistry()

// StockFor returns the defenses that ship by default on the given
// architecture, derived from the catalog's Stock fields so labels can
// never drift from the actual configuration, in the registry's
// deterministic order.
func StockFor(arch string) []*Spec { return stockFor(Default, arch) }

func stockFor(r *axis.Registry[*Spec], arch string) []*Spec {
	var out []*Spec
	for _, d := range r.All() {
		for _, a := range d.Stock {
			if strings.EqualFold(a, arch) {
				out = append(out, d)
				break
			}
		}
	}
	return out
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
