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
// Every attack variant is also a registered Scenario in the
// internal/scenario catalog (re-exported below), mountable against any
// architecture from one typed environment; see EXPERIMENTS.md for the
// generated index. Symmetrically, every mitigation the paper surveys is
// a registered Defense in the internal/defense catalog — the third axis
// of the sweep's scenario × architecture × defense efficacy grid; see
// the generated docs/DEFENSES.md handbook.
//
// See examples/ for runnable walkthroughs and cmd/intrust for the
// experiment CLI.
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
	"github.com/intrust-sim/intrust/internal/diskcache"
	"github.com/intrust-sim/intrust/internal/engine"
	"github.com/intrust-sim/intrust/internal/fault"
	"github.com/intrust-sim/intrust/internal/isa"
	"github.com/intrust-sim/intrust/internal/perf"
	"github.com/intrust-sim/intrust/internal/platform"
	"github.com/intrust-sim/intrust/internal/power"
	"github.com/intrust-sim/intrust/internal/scenario"
	"github.com/intrust-sim/intrust/internal/serve"
	"github.com/intrust-sim/intrust/internal/stats"
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

// Platform and hardware types.
type (
	// Platform is one assembled machine (cores, caches, memory, DMA).
	Platform = platform.Platform
	// Features selects a core's microarchitectural behaviour.
	Features = cpu.Features
	// Program is an assembled HS-32 program.
	Program = isa.Program
)

// Platform constructors for the three classes of Figure 1.
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
)

// Core feature presets.
var (
	// HighEndFeatures enables speculation, fault forwarding and the deep
	// predictor structures of the server-class core (§4.2 surface).
	HighEndFeatures = cpu.HighEndFeatures
	// MobileFeatures is the mobile core's reduced speculative profile.
	MobileFeatures = cpu.MobileFeatures
	// EmbeddedFeatures is the in-order embedded core: no speculation
	// window at all (§4.2: simple cores block Spectre by construction).
	EmbeddedFeatures = cpu.EmbeddedFeatures
)

// Assemble translates HS-32 assembly into a loadable program.
var Assemble = isa.Assemble

// MustAssemble is Assemble panicking on error (for fixed programs).
var MustAssemble = isa.MustAssemble

// TEE architecture layer.
type (
	// Architecture is a hardware-assisted security architecture instance.
	Architecture = tee.Architecture
	// Enclave is a unit of isolated execution.
	Enclave = tee.Enclave
	// EnclaveConfig describes an enclave to create.
	EnclaveConfig = tee.EnclaveConfig
	// Capabilities describes an architecture's mechanism set.
	Capabilities = tee.Capabilities
)

// Architecture constructors (Section 3).
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
)

// Architecture probes backing the TAB2 matrix.
var (
	// ProbeDMA attacks an enclave's memory through a DMA engine (§3).
	ProbeDMA = tee.ProbeDMA
	// ProbeBusSnoop reads enclave memory straight off the bus — blocked
	// only by memory encryption (§3.1 MEE).
	ProbeBusSnoop = tee.ProbeBusSnoop
	// ProbeOSAccess attacks enclave memory from the compromised OS (§2).
	ProbeOSAccess = tee.ProbeOSAccess
)

// Attestation and sealing.
type (
	// Measurement identifies code (SHA-256).
	Measurement = attest.Measurement
	// Report is a MAC-based local attestation report.
	Report = attest.Report
	// Quote is an ECDSA-signed remote attestation report.
	Quote = attest.Quote
	// Verifier checks reports and quotes with nonce freshness.
	Verifier = attest.Verifier
)

// Attestation helpers.
var (
	// Measure hashes code into an identity (SHA-256 measurement).
	Measure = attest.Measure
	// NewVerifier builds a verifier with nonce-freshness tracking.
	NewVerifier = attest.NewVerifier
	// VerifyReport checks a MAC-based local attestation report.
	VerifyReport = attest.VerifyReport
	// VerifyQuote checks an ECDSA-signed remote attestation quote.
	VerifyQuote = attest.VerifyQuote
	// Seal encrypts data to a measurement-derived key.
	Seal = attest.Seal
	// Unseal reverses Seal under the same identity.
	Unseal = attest.Unseal
)

// Cache side-channel attacks (Section 4.1).
type (
	// CacheVictim is the T-table AES service under cache observation.
	CacheVictim = cachesca.Victim
	// CacheAttackResult reports recovered key material.
	CacheAttackResult = cachesca.Result
)

// Cache attack entry points.
var (
	// NewCacheVictim places the T-table AES victim in the simulated
	// address space (§4.1).
	NewCacheVictim = cachesca.NewVictim
	// NewCTCacheVictim places the constant-time AES victim — the §4.1
	// software countermeasure the ct-aes defense mounts.
	NewCTCacheVictim = cachesca.NewCTVictim
	// FlushReload mounts Flush+Reload (Yarom–Falkner) key recovery.
	FlushReload = cachesca.FlushReload
	// PrimeProbe mounts Prime+Probe (Osvik–Shamir–Tromer) via the LLC.
	PrimeProbe = cachesca.PrimeProbe
	// EvictTime mounts the whole-encryption Evict+Time timing attack.
	EvictTime = cachesca.EvictTime
	// TLBAttack mounts the TLBleed-style TLB prime+probe channel.
	TLBAttack = cachesca.TLBAttack
	// BranchShadow mounts BTB/PHT branch shadowing (Lee et al.).
	BranchShadow = cachesca.BranchShadow
)

// Transient-execution attacks (Section 4.2).
type (
	// TransientResult reports extracted bytes.
	TransientResult = transient.Result
)

// Transient attack entry points.
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
	// CollectTimingSamples times square-and-multiply RSA exponentiations.
	CollectTimingSamples = physical.CollectTimingSamples
	// KocherTiming votes exponent bits from timing samples (§5).
	KocherTiming = physical.KocherTiming
	// CollectTraces records power/EM traces of AES encryptions.
	CollectTraces = physical.CollectTraces
	// CPAKey recovers the key by Pearson correlation (§5 CPA).
	CPAKey = physical.CPAKey
	// DPAKey recovers the key by difference of means (§5 DPA).
	DPAKey = physical.DPAKey
	// TracesToDisclosure counts traces until full key disclosure.
	TracesToDisclosure = physical.TracesToDisclosure
	// PiretQuisquater runs the differential fault attack on AES (§5).
	PiretQuisquater = physical.PiretQuisquater
	// NewFaultOracle builds a faultable AES encryption oracle.
	NewFaultOracle = physical.NewFaultOracle
	// Bellcore factors the RSA modulus from one faulty CRT signature
	// (§5), unless the crt-check countermeasure suppresses it.
	Bellcore = physical.Bellcore
	// GlitchCampaign sweeps glitch parameters for the fault sweet spot.
	GlitchCampaign = physical.GlitchCampaign
	// CLKSCREW mounts the DVFS overclocking fault attack on the
	// TrustZone secure world (§5).
	CLKSCREW = physical.CLKSCREW
	// CLKSCREWDefended is CLKSCREW against an optionally clock-jittered
	// secure world (§5 fault countermeasure).
	CLKSCREWDefended = physical.CLKSCREWDefended
)

// Power probes for side-channel collection.
var (
	// PowerProbe models a shunt-resistor power measurement (§5).
	PowerProbe = power.PowerProbe
	// EMProbe models a near-field electromagnetic probe (§5).
	EMProbe = power.EMProbe
)

// Evaluation engine: the paper's figure and tables, from measurement.
type (
	// EvalTable is a rendered comparison matrix.
	EvalTable = core.Table
	// Fig1Result is the regenerated Figure 1.
	Fig1Result = core.Fig1Result
)

// Experiment entry points (see the generated EXPERIMENTS.md for the
// full index of artifacts and scenarios).
var (
	// Figure1 regenerates the §2 adversary/requirement heatmap.
	Figure1 = core.Figure1
	// Table2Architectures regenerates the §3 feature matrix by probe.
	Table2Architectures = core.Table2Architectures
	// Table3CacheSCA regenerates the §4.1 attack×defense matrix.
	Table3CacheSCA = core.Table3CacheSCA
	// Table4Transient regenerates the §4.2 attack×configuration matrix.
	Table4Transient = core.Table4Transient
	// Table5Physical regenerates the §5 attack×countermeasure matrix.
	Table5Physical = core.Table5Physical
)

// Unified attack-scenario API: every attack variant is a self-registered
// Scenario in a process-wide catalog, mountable against any architecture
// from one typed environment. The bespoke per-attack functions above
// (FlushReload, SpectreV1, CPAKey, ...) remain supported; the scenario
// layer is how the sweep, the CLI catalog and downstream schedulers
// enumerate them uniformly.
type (
	// Scenario is one attack variant as an enumerable, schedulable unit.
	Scenario = scenario.Scenario
	// ScenarioSpec is the declarative Scenario implementation used by
	// the built-in catalog (and available for custom registrations).
	ScenarioSpec = scenario.Spec
	// ScenarioEnv is the typed environment a scenario mounts from.
	ScenarioEnv = scenario.Env
	// ScenarioOutcome is what a mounted scenario measured.
	ScenarioOutcome = scenario.Outcome
	// ScenarioRegistry is a concurrency-safe scenario catalog.
	ScenarioRegistry = scenario.Registry
)

// Scenario registry entry points (the default process-wide catalog).
var (
	// RegisterScenario adds a scenario to the default catalog.
	RegisterScenario = scenario.Register
	// LookupScenario finds a scenario by name, case-insensitively.
	LookupScenario = scenario.Lookup
	// AllScenarios enumerates the catalog in deterministic order.
	AllScenarios = scenario.All
	// ScenariosByFamily enumerates one attack family of the catalog.
	ScenariosByFamily = scenario.ByFamily
	// ScenarioFamilies lists the catalog's populated families.
	ScenarioFamilies = scenario.Families
	// NewScenarioEnv builds a mount environment with the architecture's
	// stock defenses (the paper's §4.1 wiring).
	NewScenarioEnv = scenario.NewEnv
	// NewScenarioEnvWithDefenses builds a mount environment under an
	// explicit mitigation set — the sweep's defense axis.
	NewScenarioEnvWithDefenses = scenario.NewEnvWithDefenses
	// NewScenarioRegistry returns an empty scenario registry.
	NewScenarioRegistry = scenario.NewRegistry
	// ScenarioCatalogMarkdown renders the registry as EXPERIMENTS.md.
	ScenarioCatalogMarkdown = scenario.CatalogMarkdown
	// ScenarioVerdictClass normalizes a cell verdict to the sweep's
	// broken/mitigated/n-a grading.
	ScenarioVerdictClass = scenario.VerdictClass
)

// Defense axis: every mitigation the paper surveys — the §4.1 cache
// isolation mechanisms, the §4.2 speculation controls and the §5
// side-channel/fault countermeasures — is a self-registered Defense in a
// process-wide catalog mirroring the scenario registry. A Defense is a
// pure configuration transform applied at platform/victim construction;
// the sweep toggles them per cell to measure the paper's defense-efficacy
// matrix (which attacks each mitigation blocks, and which it leaves
// open).
type (
	// Defense is one mitigation as an enumerable, toggleable unit.
	Defense = defense.Defense
	// DefenseSpec is the declarative Defense implementation used by the
	// built-in catalog (and available for custom registrations).
	DefenseSpec = defense.Spec
	// DefenseConfig is the wiring a Defense transforms: platform hooks
	// plus victim-construction knobs.
	DefenseConfig = defense.Config
	// DefenseRegistry is a concurrency-safe defense catalog.
	DefenseRegistry = defense.Registry
)

// Defense registry entry points (the default process-wide catalog).
var (
	// RegisterDefense adds a defense to the default catalog.
	RegisterDefense = defense.Register
	// LookupDefense finds a defense by name, case-insensitively.
	LookupDefense = defense.Lookup
	// AllDefenses enumerates the catalog in deterministic order.
	AllDefenses = defense.All
	// DefensesByFamily enumerates the defenses countering one family.
	DefensesByFamily = defense.ByFamily
	// DefenseFamilies lists the catalog's populated countered families.
	DefenseFamilies = defense.Families
	// StockDefenses lists an architecture's paper-stock defenses,
	// resolved from registry metadata (never hard-coded).
	StockDefenses = defense.StockFor
	// NewDefenseRegistry returns an empty defense registry.
	NewDefenseRegistry = defense.NewRegistry
	// DefenseCatalogMarkdown renders the registry as docs/DEFENSES.md.
	DefenseCatalogMarkdown = defense.CatalogMarkdown
)

// Concurrent experiment engine: composable experiments on a sharded
// work-stealing worker pool with deterministic per-job seeding and JSON
// reporting — results are byte-identical at every pool and shard size.
type (
	// Experiment is one schedulable measurement unit.
	Experiment = engine.Experiment
	// ExperimentCtx is the per-job context (RNG, samples, seed, scratch).
	ExperimentCtx = engine.Ctx
	// ExperimentOutcome is what an experiment measured.
	ExperimentOutcome = engine.Outcome
	// ExperimentResult pairs an experiment with outcome, timing, error.
	ExperimentResult = engine.Result
	// ExperimentScratch is the per-worker reuse store jobs see on their
	// Ctx: reusable substrate banked across the jobs one worker runs.
	ExperimentScratch = engine.Scratch
	// Engine executes experiments on a bounded work-stealing pool
	// (ShardSize sets the steal granularity; results never depend on it).
	Engine = engine.Engine
	// EngineReport is the machine-readable artifact of a run.
	EngineReport = engine.Report
)

// Engine entry points.
var (
	// NewEngine builds a worker-pool engine (0 = GOMAXPROCS workers).
	NewEngine = engine.New
	// NewEngineReport assembles the machine-readable run artifact.
	NewEngineReport = engine.NewReport
	// ReadReport parses a JSON engine report back.
	ReadReport = engine.ReadReport
	// Summarize aggregates results into verdict counts and timings.
	Summarize = engine.Summarize
)

// Adaptive sequential-sampling verdict engine: grid cells measure in
// cumulative checkpoint passes that stop as soon as their
// broken/mitigated verdict separates to a confidence target, instead of
// burning one fixed sample budget; hard cells escalate up to a cap.
// Every adaptive cell's outcome carries a SamplingDecision (class,
// confidence, realized sample cost).
type (
	// SamplingPolicy configures the sequential test (confidence target,
	// error model, checkpoint floor, per-cell sample cap); the zero
	// value selects the defaults.
	SamplingPolicy = stats.Policy
	// SamplingDecision is a cell's settled verdict with its confidence
	// and cost.
	SamplingDecision = stats.Decision
	// SamplingPlan is the checkpoint ladder one cumulative measurement
	// pass grades against (the scenario-side sequential-sampling hook).
	SamplingPlan = stats.Plan
	// SamplingTest folds pass observations into the sequential
	// probability ratio test.
	SamplingTest = stats.Test
	// SweepOptions configures SweepExperimentsWith (sample budget plus
	// the optional adaptive policy).
	SweepOptions = core.SweepOptions
)

// Sampling entry points.
var (
	// NewSamplingPlan builds the checkpoint ladder for one pass.
	NewSamplingPlan = stats.NewPlan
	// NewSamplingTest builds the per-cell sequential test.
	NewSamplingTest = stats.NewTest
)

// Sweep: the scenario × architecture × defense cross-product as engine
// experiments (the `intrust sweep` CLI mode).
var (
	// SweepExperiments enumerates the 3-D grid as engine jobs; the
	// defense axis accepts registered names, "+"-combinations, and the
	// tokens none, stock and all (empty defaults to stock).
	SweepExperiments = core.SweepExperiments
	// SweepExperimentsWith is SweepExperiments with explicit options —
	// the adaptive sequential-sampling engine lives behind
	// SweepOptions.Adaptive.
	SweepExperimentsWith = core.SweepExperimentsWith
	// SweepTable renders sweep results with per-cell defense labels and
	// broken/mitigated/n-a classes.
	SweepTable = core.SweepTable
	// SweepDiff tabulates the cells each defense flips versus the
	// undefended ("none") baseline.
	SweepDiff = core.SweepDiff
	// AllArchitectures lists the sweepable architecture keys (§3 order).
	AllArchitectures = core.AllArchitectures
	// AllAttackFamilies lists the sweepable attack families (§4.1, §4.2,
	// §5).
	AllAttackFamilies = core.AllAttackFamilies
	// AllDefenseNames lists the registered mitigation names on the
	// -defense axis.
	AllDefenseNames = core.AllDefenseNames
)

// Performance tracking: the canonical sweep configurations measured end
// to end into the BENCH_sweep.json artifact (the `intrust bench` CLI
// mode), with a regression gate against a checked-in baseline. See
// docs/PERFORMANCE.md.
type (
	// PerfConfig names one benched sweep configuration (axis selection,
	// sample budget, sampling mode).
	PerfConfig = perf.Config
	// PerfResult is one configuration's measured throughput and sample
	// cost.
	PerfResult = perf.Result
	// PerfReport is one environment's throughput report: environment,
	// allocations per cache access, and one PerfResult per
	// configuration.
	PerfReport = perf.Report
	// PerfFile is the BENCH_sweep.json artifact: one PerfReport per
	// measured environment, matched per-environment by the bench gate.
	PerfFile = perf.File
)

// Performance-tracking entry points.
var (
	// PerfCanonicalConfigs returns the tracked configurations (the
	// none+stock grid, fixed and adaptive).
	PerfCanonicalConfigs = perf.CanonicalConfigs
	// PerfRun measures configurations on the engine worker pool.
	PerfRun = perf.Run
	// PerfCompare gates a fresh report against a baseline's cells/sec.
	PerfCompare = perf.Compare
	// PerfReadFile loads a single-environment report.
	PerfReadFile = perf.ReadFile
	// PerfReadBaseline loads a BENCH_sweep.json multi-environment
	// baseline.
	PerfReadBaseline = perf.ReadBaseline
	// AllocsPerAccess measures heap allocations per cache-hierarchy
	// access (tracked at zero for the flattened substrate).
	AllocsPerAccess = perf.AllocsPerAccess
)

// Sweep-as-a-service: the long-running HTTP/JSON API over the grid
// (the `intrust serve` CLI mode). Cells are addressed by their
// canonical CellKey; the engine's deterministic seeding makes the
// service's content-addressed result cache exact, so repeated queries
// are O(1). See internal/serve for the endpoint catalog.
type (
	// Service is the sweep-as-a-service HTTP handler (cache, admission
	// queue, metrics included); it implements http.Handler.
	Service = serve.Server
	// ServiceOptions configures a Service (cache bound, compute slots,
	// queue depth, base seed).
	ServiceOptions = serve.Options
	// ServiceCell is the JSON wire shape of one served grid cell.
	ServiceCell = serve.Cell
	// ServiceSweepSummary is the trailing summary line of a /sweep
	// NDJSON stream.
	ServiceSweepSummary = serve.SweepSummary
	// CellKey is the canonical content address of one grid cell — the
	// tuple that fully determines its measurement.
	CellKey = core.CellKey
	// CellOptions carries the per-cell measurement knobs ResolveCell
	// canonicalizes into a key.
	CellOptions = core.CellOptions
	// DiskStore is the crash-safe persistent result tier: addressed
	// bodies in tamper-evident authenticated envelopes, written
	// atomically (temp + fsync + rename); any entry failing
	// authentication reads as a miss and is quarantined. It backs the
	// service's -cache-dir tier and the sweep's -resume directory.
	DiskStore = diskcache.Store
	// DiskCounters is a DiskStore's hit/miss/reject/write accounting.
	DiskCounters = diskcache.Counters
	// ResumeSummary accounts one incremental sweep: cells reused from
	// disk versus computed, and why (new, changed inputs, invalid
	// entry).
	ResumeSummary = core.ResumeSummary
	// FaultPlane is the deterministic fault-injection plane the chaos
	// suite and the serve CLI's -fault flag arm: named failure points
	// (disk.read, disk.write, disk.corrupt, engine.stall, engine.panic,
	// listener.drop) firing on a seeded, bit-replayable schedule. A nil
	// plane is inert, so production paths pay one nil check.
	FaultPlane = fault.Plane
	// FaultSpec configures one armed fault point (probability, skip
	// count, fire limit, injected latency, error text).
	FaultSpec = fault.Spec
)

// Service and cell-level entry points.
var (
	// NewService builds the sweep-as-a-service HTTP server.
	NewService = serve.New
	// NewFaultPlane builds a disarmed fault plane over a deterministic
	// schedule seed; Arm points on it and pass it via
	// ServiceOptions.Faults.
	NewFaultPlane = fault.New
	// ParseFaultPlan builds an armed fault plane from the -fault CLI
	// plan syntax ("disk.write:p=1;engine.stall:delay=50ms").
	ParseFaultPlan = fault.Parse
	// ResolveCell canonicalizes one (scenario, arch, defense) request
	// into its CellKey through the sweep's own axis parsers.
	ResolveCell = core.ResolveCell
	// DecodeCellKey parses a key string produced by CellKey.Encode.
	DecodeCellKey = core.DecodeCellKey
	// EnumerateCells resolves an axis selection into canonical keys in
	// sweep enumeration order.
	EnumerateCells = core.EnumerateCells
	// RunCell computes the one grid cell a canonical key addresses,
	// bit-identical to the matching cell of a full sweep.
	RunCell = core.RunCell
	// RunExperiment executes a single engine experiment outside any
	// worker pool (same seeding and panic confinement as a pooled run).
	RunExperiment = engine.RunOne
	// OpenDiskStore opens (or creates) a persistent result tier under a
	// directory, keyed by a shared secret.
	OpenDiskStore = diskcache.Open
	// SweepResume runs a grid selection incrementally against a
	// DiskStore: authenticated on-disk cells are reused bit-identically,
	// only changed/new/invalid cells compute (the `intrust sweep
	// -resume` CLI path).
	SweepResume = core.SweepResume
	// CellResultAddr is the DiskStore address of one cell's persisted
	// sweep result (namespaced apart from the serve tier's bodies).
	CellResultAddr = core.ResultAddr
)

// Remote attestation lifecycle: deterministic enclave measurement,
// per-architecture signed quotes, policy-driven verification, and
// TCB revocation fed by the sweep grid (the `intrust attest` CLI mode
// and the serve tier's /attest endpoints). See internal/attestsvc and
// the lifecycle section of docs/ARCHITECTURE.md.
type (
	// AttestService bundles a quoting authority with a sweep-revocable
	// verification policy.
	AttestService = attestsvc.Service
	// AttestQuote is one signed attestation quote (the "IAQ1" wire
	// format round-trips through Encode/DecodeQuote).
	AttestQuote = attestsvc.Quote
	// AttestVerdict is a verification outcome: accepted or a typed
	// rejection code with the policy context that produced it.
	AttestVerdict = attestsvc.Verdict
	// AttestPolicy is a verifier's explicit acceptance policy
	// (measurement allow-list, per-arch minimum TCB, freshness).
	AttestPolicy = attestsvc.Policy
	// AttestRevocations is the sweep-derived TCB state: per-arch
	// minimum TCB versions with the broken cells as evidence.
	AttestRevocations = attestsvc.Revocations
	// AttestCell is the grid-cell evidence Revoke consumes.
	AttestCell = attestsvc.Cell
)

// Attestation lifecycle entry points.
var (
	// NewAttestService builds a Service from an authority root secret
	// (AttestRootFromSeed derives one shared with `intrust serve`).
	NewAttestService = attestsvc.NewService
	// AttestRootFromSeed derives the authority root from an engine
	// seed, so CLI and server agree on quoting keys.
	AttestRootFromSeed = attestsvc.RootFromSeed
	// DecodeAttestQuote strictly parses the quote wire format
	// (malformed input errors; it never panics — fuzz-pinned).
	DecodeAttestQuote = attestsvc.DecodeQuote
	// AttestRevoke folds broken none-defense grid cells into
	// per-architecture TCB revocations.
	AttestRevoke = attestsvc.Revoke
	// ComputeRevocations runs a none-defense grid slice on the engine
	// and derives the revocation state from its verdicts.
	ComputeRevocations = core.ComputeRevocations
)
