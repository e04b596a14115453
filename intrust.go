// Package intrust is the public facade of the intrust simulator: a full
// reproduction of "In Hardware We Trust: Gains and Pains of
// Hardware-assisted Security" (Batina, Jauernig, Mentens, Sadeghi, Stapf —
// DAC 2019) as an executable system.
//
// The library spans the paper's whole spectrum:
//
//   - three platform classes (server/desktop, mobile, embedded) built on
//     a simulated 32-bit CPU with caches, MMU/MPU, TrustZone-style worlds,
//     branch prediction and transient execution;
//   - the eight surveyed security architectures: Intel SGX, Sanctum, ARM
//     TrustZone, Sanctuary, SMART, Sancus, TrustLite and TyTAN;
//   - the attack families of Sections 4 and 5: cache side channels
//     (Evict+Time, Prime+Probe, Flush+Reload, TLB, BTB), transient
//     execution (Spectre, Meltdown, Foreshadow) and classical physical
//     attacks (timing, DPA/CPA, EM, DFA, RSA-CRT faults, CLKSCREW);
//   - the evaluation engine regenerating the paper's Figure 1 and its
//     implicit comparison tables from measurement.
//
// Every attack variant is also a registered scenario record in the
// internal/scenario catalog (re-exported below), mountable against any
// architecture from one typed environment; see EXPERIMENTS.md for the
// generated index. Symmetrically, every mitigation the paper surveys is
// a registered defense record in the internal/defense catalog — the
// third axis of the sweep's scenario × architecture × defense efficacy
// grid; see the generated docs/DEFENSES.md handbook.
//
// The facade re-exports what the runnable walkthroughs in examples/ and
// the facade tests use; cmd/intrust is the experiment CLI over the full
// system.
package intrust

//go:generate go run ./cmd/intrust attacks -markdown -o EXPERIMENTS.md
//go:generate go run ./cmd/intrust defenses -markdown -o docs/DEFENSES.md

import (
	"github.com/intrust-sim/intrust/internal/attack/cachesca"
	"github.com/intrust-sim/intrust/internal/attack/physical"
	"github.com/intrust-sim/intrust/internal/attack/transient"
	"github.com/intrust-sim/intrust/internal/attest"
	"github.com/intrust-sim/intrust/internal/attestsvc"
	"github.com/intrust-sim/intrust/internal/core"
	"github.com/intrust-sim/intrust/internal/cpu"
	"github.com/intrust-sim/intrust/internal/defense"
	"github.com/intrust-sim/intrust/internal/isa"
	"github.com/intrust-sim/intrust/internal/platform"
	"github.com/intrust-sim/intrust/internal/power"
	"github.com/intrust-sim/intrust/internal/scenario"
	"github.com/intrust-sim/intrust/internal/tee"
	"github.com/intrust-sim/intrust/internal/tee/sanctuary"
	"github.com/intrust-sim/intrust/internal/tee/sanctum"
	"github.com/intrust-sim/intrust/internal/tee/sancus"
	"github.com/intrust-sim/intrust/internal/tee/sgx"
	"github.com/intrust-sim/intrust/internal/tee/smart"
	"github.com/intrust-sim/intrust/internal/tee/trustlite"
	"github.com/intrust-sim/intrust/internal/tee/trustzone"
	"github.com/intrust-sim/intrust/internal/tee/tytan"
)

// Platforms of the three classes of Figure 1, their core feature
// presets and the HS-32 assembler.
var (
	// NewServerPlatform assembles the stationary high-performance
	// platform: speculative cores, deep cache hierarchy, shared LLC (§2).
	NewServerPlatform = platform.NewServer
	// NewMobilePlatform assembles the mobile platform: TrustZone-style
	// worlds and a software-reachable DVFS regulator (§2, §5 CLKSCREW).
	NewMobilePlatform = platform.NewMobile
	// NewEmbeddedPlatform assembles the embedded/IoT platform: one
	// in-order cacheless core with an MPU (§2).
	NewEmbeddedPlatform = platform.NewEmbedded
	// HighEndFeatures enables speculation, fault forwarding and the deep
	// predictor structures of the server-class core (§4.2 surface).
	HighEndFeatures = cpu.HighEndFeatures
	// EmbeddedFeatures is the in-order embedded core: no speculation
	// window at all (§4.2: simple cores block Spectre by construction).
	EmbeddedFeatures = cpu.EmbeddedFeatures
	// Assemble translates HS-32 assembly into a loadable program.
	Assemble = isa.Assemble
	// MustAssemble is Assemble panicking on error (for fixed programs).
	MustAssemble = isa.MustAssemble
)

// TEE architecture layer (Section 3).
type (
	// EnclaveConfig describes an enclave to create.
	EnclaveConfig = tee.EnclaveConfig
	// Quote is the Ed25519-signed remote attestation statement: a report
	// plus arch, config and TCB version.
	Quote = attest.Quote
	// VerifierPolicy is a verifier's acceptance policy: allow-list,
	// minimum TCB and nonce freshness.
	VerifierPolicy = attest.Policy
)

// Architecture constructors (Section 3) and the probes backing the TAB2
// matrix.
var (
	// NewSGX builds Intel SGX: EPC, MEE, local/remote attestation (§3.1).
	NewSGX = sgx.New
	// NewSanctum builds Sanctum: enclaves with LLC partitioning (§3.1).
	NewSanctum = sanctum.New
	// NewTrustZone builds ARM TrustZone: two worlds, one secure OS (§3.2).
	NewTrustZone = trustzone.New
	// NewSanctuary builds Sanctuary: TrustZone-based user-space enclaves
	// with cache exclusion (§3.2).
	NewSanctuary = sanctuary.New
	// NewSMART builds SMART: a ROM-rooted attestation primitive (§3.3).
	NewSMART = smart.New
	// NewSancus builds Sancus: zero-software-TCB protected modules (§3.3).
	NewSancus = sancus.New
	// NewTrustLite builds TrustLite: EA-MPU-isolated trustlets (§3.3).
	NewTrustLite = trustlite.New
	// NewTyTAN builds TyTAN: TrustLite plus dynamic loading and secure
	// IPC with real-time guarantees (§3.3).
	NewTyTAN = tytan.New
	// ProbeDMA attacks an enclave's memory through a DMA engine (§3).
	ProbeDMA = tee.ProbeDMA
	// ProbeBusSnoop reads enclave memory straight off the bus — blocked
	// only by memory encryption (§3.1 MEE).
	ProbeBusSnoop = tee.ProbeBusSnoop
	// ProbeOSAccess attacks enclave memory from the compromised OS (§2).
	ProbeOSAccess = tee.ProbeOSAccess
	// NewVerifier builds the one attestation verifier under a policy;
	// Trust registers an architecture's quoting key with it.
	NewVerifier = attest.NewVerifier
)

// Cache side-channel attacks (Section 4.1).
var (
	// NewCacheVictim places the T-table AES victim in the simulated
	// address space (§4.1).
	NewCacheVictim = cachesca.NewVictim
	// FlushReload mounts Flush+Reload (Yarom–Falkner) key recovery.
	FlushReload = cachesca.FlushReload
	// PrimeProbe mounts Prime+Probe (Osvik–Shamir–Tromer) via the LLC.
	PrimeProbe = cachesca.PrimeProbe
	// EvictTime mounts the whole-encryption Evict+Time timing attack.
	EvictTime = cachesca.EvictTime
	// TLBAttack mounts the TLBleed-style TLB prime+probe channel.
	TLBAttack = cachesca.TLBAttack
)

// Transient-execution attacks (Section 4.2).
var (
	// SpectreV1 mounts the bounds-check-bypass attack (§4.2), optionally
	// under the spec-barrier (lfence) mitigation.
	SpectreV1 = transient.SpectreV1
	// SpectreBTB cross-trains an indirect branch to a disclosure gadget,
	// optionally under the btb-flush (IBPB) mitigation.
	SpectreBTB = transient.SpectreBTB
	// Ret2spec poisons the return stack buffer (§4.2).
	Ret2spec = transient.Ret2spec
	// Meltdown exploits fault-deferred forwarding (§4.2).
	Meltdown = transient.Meltdown
	// ForeshadowSGX extracts the quoting enclave's attestation key via
	// an L1 terminal fault (§4.2).
	ForeshadowSGX = transient.ForeshadowSGX
)

// Classical physical attacks (Section 5).
var (
	// PowerProbe models a shunt-resistor power measurement (§5).
	PowerProbe = power.PowerProbe
	// EMProbe models a near-field electromagnetic probe (§5).
	EMProbe = power.EMProbe
	// NewTraceArena allocates a power/EM trace store for inputLen-byte
	// public inputs (16 for AES plaintexts).
	NewTraceArena = power.NewArena
	// ExtendArena records power/EM traces of AES encryptions of random
	// plaintexts into a trace arena.
	ExtendArena = physical.ExtendArena
	// CPAKeyArena recovers the key by Pearson correlation (§5 CPA).
	CPAKeyArena = physical.CPAKeyArena
	// DPAKeyArena recovers the key by difference of means (§5 DPA).
	DPAKeyArena = physical.DPAKeyArena
	// TracesToDisclosure counts traces until full key disclosure.
	TracesToDisclosure = physical.TracesToDisclosure
	// GlitchCampaign sweeps glitch parameters for the fault sweet spot.
	GlitchCampaign = physical.GlitchCampaign
	// CLKSCREW mounts the DVFS overclocking fault attack on the
	// TrustZone secure world (§5).
	CLKSCREW = physical.CLKSCREW
)

// Figure1 regenerates the §2 adversary/requirement heatmap from
// measurement.
var Figure1 = core.Figure1

// Attack-scenario axis: every attack variant is a self-registered
// scenario record in a process-wide catalog, mountable against any
// architecture from one typed environment. The sweep, the CLI catalog and
// downstream schedulers enumerate the attacks through it; the per-attack
// functions above mount one attack directly.
type (
	// ScenarioSpec is the record type of every catalog scenario: name,
	// family, paper metadata, applicability and one mount function.
	ScenarioSpec = scenario.Spec
	// ScenarioEnv is the typed environment a scenario mounts from.
	ScenarioEnv = scenario.Env
	// ScenarioOutcome is what a mounted scenario measured.
	ScenarioOutcome = scenario.Outcome
)

// Scenario registry entry points (the default process-wide catalog).
var (
	// LookupScenario finds a scenario by name, case-insensitively.
	LookupScenario = scenario.Default.Lookup
	// AllScenarios enumerates the catalog in deterministic order.
	AllScenarios = scenario.Default.All
	// ScenarioFamilies lists the catalog's populated families.
	ScenarioFamilies = scenario.Default.Families
	// NewScenarioEnv builds a mount environment with the architecture's
	// stock defenses (the paper's §4.1 wiring).
	NewScenarioEnv = scenario.NewEnv
	// NewScenarioEnvWithDefenses builds a mount environment under an
	// explicit mitigation set — the sweep's defense axis.
	NewScenarioEnvWithDefenses = scenario.NewEnvWithDefenses
	// NewScenarioRegistry returns an empty scenario registry, checked by
	// the same rules as the default catalog.
	NewScenarioRegistry = scenario.NewRegistry
	// ScenarioVerdictClass normalizes a cell verdict to the sweep's
	// broken/mitigated/n-a grading.
	ScenarioVerdictClass = scenario.VerdictClass
)

// Defense axis: every mitigation the paper surveys — the §4.1 cache
// isolation mechanisms, the §4.2 speculation controls and the §5
// side-channel/fault countermeasures — is a self-registered record in a
// process-wide catalog of the same registry type as the scenarios. A
// defense is a pure configuration transform applied at platform/victim
// construction; the sweep toggles them per cell to measure the paper's
// defense-efficacy matrix.
type (
	// Defense is the record type of every catalog mitigation: name,
	// countered family, paper metadata, blocked scenarios, stock
	// architectures, applicability and the config transform.
	Defense = defense.Spec
)

// Defense registry entry points (the default process-wide catalog).
var (
	// LookupDefense finds a defense by name, case-insensitively.
	LookupDefense = defense.Default.Lookup
	// AllDefenses enumerates the catalog in deterministic order.
	AllDefenses = defense.Default.All
	// StockDefenses lists an architecture's paper-stock defenses,
	// resolved from registry metadata (never hard-coded).
	StockDefenses = defense.StockFor
)

// SweepExperiments enumerates the scenario × architecture × defense grid
// as engine jobs (the `intrust sweep` CLI mode); the defense axis accepts
// registered names, "+"-combinations, and the tokens none, stock and all
// (empty defaults to stock).
var SweepExperiments = core.SweepExperiments

// Remote attestation lifecycle: deterministic enclave measurement,
// quotes signed by one device fuse's per-architecture quoting keys,
// policy-driven verification, and TCB revocation fed by the sweep grid
// (the `intrust attest` CLI mode and the serve tier's /attest endpoints).
// See internal/attestsvc and the lifecycle section of
// docs/ARCHITECTURE.md.
type (
	// AttestCell is the grid-cell evidence AttestRevoke consumes.
	AttestCell = attestsvc.Cell
)

// Attestation lifecycle entry points.
var (
	// NewAttestService builds the quoting keys of one device fuse with a
	// sweep-revocable verification policy.
	NewAttestService = attestsvc.NewService
	// FuseFromSeed burns the device fuse a seed names, so CLI, server
	// and the grid's SGX cells agree on quoting keys.
	FuseFromSeed = platform.FuseFromSeed
	// DecodeAttestQuote strictly parses the quote wire format
	// (malformed input errors; it never panics — fuzz-pinned).
	DecodeAttestQuote = attest.DecodeQuote
	// AttestRevoke folds broken none-defense grid cells into
	// per-architecture TCB revocations.
	AttestRevoke = attestsvc.Revoke
)
