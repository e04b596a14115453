package defense

import (
	"github.com/intrust-sim/intrust/internal/axis"
	"github.com/intrust-sim/intrust/internal/cache"
	"github.com/intrust-sim/intrust/internal/platform"
)

// The shipped mitigation catalog: the §4.1 cache-isolation mechanisms,
// the §4.2 speculation controls, and the §5 side-channel and fault
// countermeasures. Each entry is a pure config transform; the stock
// wiring of the surveyed architectures (Sanctum's LLC partitioning,
// Sanctuary's cache exclusion/coloring) lives here as Stock metadata
// instead of a hard-coded block in the scenario environment.

func init() {
	for _, d := range catalog() {
		Default.MustRegister(d)
	}
}

// classOf returns an architecture's platform class (ClassEmbedded for
// unknown keys never arises: Applicable rejects unknown keys first).
func classOf(arch string) platform.Class {
	c, _ := platform.ArchClass(arch)
	return c
}

// needsSharedCache gates the cache-isolation defenses: the embedded
// platforms have no shared cache levels, so there is nothing to
// partition, color or flush (paper §4.1: "none [of the embedded
// architectures] even considers cache side channels").
func needsSharedCache(arch string) (bool, string) {
	if classOf(arch) == platform.ClassEmbedded {
		return false, "no shared cache levels on the embedded platform: nothing to partition or flush"
	}
	return true, ""
}

// needsTLB gates TLB partitioning: the MPU-based embedded cores have no
// MMU and therefore no TLB.
func needsTLB(arch string) (bool, string) {
	if classOf(arch) == platform.ClassEmbedded {
		return false, "no MMU and no TLB on the MPU-based embedded core: nothing to partition"
	}
	return true, ""
}

// needsPredictor gates predictor flushing: the in-order embedded cores
// have no branch-predictor state to flush.
func needsPredictor(arch string) (bool, string) {
	if classOf(arch) == platform.ClassEmbedded {
		return false, "no branch predictor on the in-order embedded core: nothing to flush"
	}
	return true, ""
}

// needsMMU gates the fault-forwarding fix: the MPU-based embedded cores
// have no supervisor/user address-space split for a load to fault on.
func needsMMU(arch string) (bool, string) {
	if classOf(arch) == platform.ClassEmbedded {
		return false, "no MMU on the MPU-based embedded core: no faulting load to forward"
	}
	return true, ""
}

// sgxOnly gates the L1TF flush: the terminal fault it closes targets
// SGX's EPC, which no other surveyed architecture has.
func sgxOnly(arch string) (bool, string) {
	if arch != "sgx" {
		return false, "the L1TF flush guards SGX's EPC; " + arch + " has no enclave page cache"
	}
	return true, ""
}

// randomIndexKey seeds the randomized-index scramble. A fixed key keeps
// cells deterministic; the attacker never learns it.
const randomIndexKey = 0xdecafbad

func catalog() []*Spec {
	return []*Spec{
		// --- §4.1 cache side-channel defenses -------------------------
		{
			ID: "way-partition", In: axis.FamilyCacheSCA, Section: "4.1",
			Summary: "DAWG-style way partitioning of every shared cache level between victim and attacker domains " +
				"(models Sanctum's cache-isolation goal)",
			BlocksList: []string{"flush+reload", "prime+probe"},
			Stock:      []string{"sanctum"},
			Applies:    needsSharedCache,
			Apply: func(c *Config) {
				vd, ad := c.VictimDomain, c.AttackerDomain
				c.PlatformHooks = append(c.PlatformHooks, func(p *platform.Platform) {
					partitionCache(p.LLC, vd, ad)
					for _, core := range p.Cores {
						partitionCache(core.Hier.L1D, vd, ad)
						partitionCache(core.Hier.L2, vd, ad)
					}
				})
			},
		},
		{
			ID: "cache-coloring", In: axis.FamilyCacheSCA, Section: "4.1",
			Summary: "page-coloring exclusion: the victim's table pages are confined to the private L1, " +
				"never reaching the shared levels (models Sanctuary's cache exclusion)",
			BlocksList: []string{"prime+probe"},
			Stock:      []string{"sanctuary"},
			Applies:    needsSharedCache,
			Apply: func(c *Config) {
				base, size := c.VictimTableBase, c.VictimTableSize
				c.PlatformHooks = append(c.PlatformHooks, func(p *platform.Platform) {
					p.Core(0).Hier.Cacheability = func(addr uint32) cache.Level {
						if addr >= base && addr < base+size {
							return cache.LevelL1
						}
						return cache.LevelAll
					}
				})
			},
		},
		{
			ID: "randomized-index", In: axis.FamilyCacheSCA, Section: "4.1",
			Summary: "CEASER-style randomized cache indexing: the victim's addresses map to LLC sets through " +
				"a keyed scramble, so the attacker cannot build eviction sets for the victim's lines",
			BlocksList: []string{"prime+probe"},
			Applies:    needsSharedCache,
			Apply: func(c *Config) {
				vd := c.VictimDomain
				c.PlatformHooks = append(c.PlatformHooks, func(p *platform.Platform) {
					p.LLC.SetRandomizedIndex(vd, randomIndexKey)
				})
			},
		},
		{
			ID: "flush-on-switch", In: axis.FamilyCacheSCA, Section: "4.1",
			Summary: "random-fill/flush-on-switch family: the core's whole cache hierarchy is invalidated " +
				"on every enclave exit, denying the attacker any residual victim state",
			BlocksList: []string{"flush+reload", "prime+probe"},
			Applies:    needsSharedCache,
			Apply:      func(c *Config) { c.FlushOnSwitch = true },
		},
		{
			ID: "tlb-partition", In: axis.FamilyCacheSCA, Section: "4.1",
			Summary: "TLB way partitioning between address spaces, the TLBleed countermeasure: " +
				"the victim's translations can no longer evict the attacker's entries",
			BlocksList: []string{"tlb-channel"},
			Applies:    needsTLB,
			Apply: func(c *Config) {
				va, aa := c.VictimASID, c.AttackerASID
				c.PlatformHooks = append(c.PlatformHooks, func(p *platform.Platform) {
					for _, core := range p.Cores {
						if core.TLB == nil {
							continue
						}
						v, a := halfWayMasks(core.TLB.Ways())
						core.TLB.SetPartition(va, v)
						core.TLB.SetPartition(aa, a)
					}
				})
			},
		},
		{
			ID: "ct-aes", In: axis.FamilyCacheSCA, Section: "4.1",
			Summary: "constant-time AES: the S-box is computed instead of looked up, so no secret-dependent " +
				"memory access reaches the cache hierarchy",
			BlocksList: []string{"flush+reload", "prime+probe", "evict+time"},
			Apply:      func(c *Config) { c.ConstantTimeAES = true },
		},
		// --- §4.2 transient-execution defenses ------------------------
		{
			ID: "spec-barrier", In: axis.FamilyTransient, Section: "4.2",
			Summary: "lfence-style speculation barrier after bounds checks: the bounds-check-bypass window " +
				"closes before the secret-dependent load can execute transiently",
			BlocksList: []string{"spectre-v1"},
			Apply:      func(c *Config) { c.SpecBarrier = true },
		},
		{
			ID: "btb-flush", In: axis.FamilyTransient, Section: "4.2",
			Summary: "IBPB-style predictor flush on context switch: BTB/PHT state trained by one domain " +
				"is invalidated before another runs",
			BlocksList: []string{"spectre-btb", "branch-shadow"},
			Applies:    needsPredictor,
			Apply:      func(c *Config) { c.PredictorFlush = true },
		},
		{
			ID: "no-fault-forwarding", In: axis.FamilyTransient, Section: "4.2",
			Summary: "fixed silicon: a faulting load returns no data to the transient instructions behind it, " +
				"so the Meltdown window has nothing to encode",
			BlocksList: []string{"meltdown"},
			Applies:    needsMMU,
			Apply:      func(c *Config) { c.NoFaultForwarding = true },
		},
		{
			ID: "l1tf-flush", In: axis.FamilyTransient, Section: "4.2",
			Summary: "Foreshadow microcode fix: the L1 data cache is flushed on every enclave exit, " +
				"so no EPC line is left for an L1 terminal fault to read",
			BlocksList: []string{"foreshadow"},
			Applies:    sgxOnly,
			Apply:      func(c *Config) { c.L1TFFlush = true },
		},
		// --- §5 physical-attack defenses ------------------------------
		{
			ID: "masked-aes", In: axis.FamilyPhysical, Section: "5",
			Summary: "first-order boolean masking: every intermediate is carried under a fresh random mask, " +
				"decorrelating power traces from the processed secrets",
			BlocksList: []string{"dpa", "cpa"},
			Apply:      func(c *Config) { c.MaskedAES = true },
		},
		{
			ID: "crt-check", In: axis.FamilyPhysical, Section: "5",
			Summary: "RSA-CRT fault check (Shamir/infective family): signatures are verified before release, " +
				"so a faulty half-exponentiation is never observable",
			BlocksList: []string{"bellcore"},
			Apply:      func(c *Config) { c.CRTCheck = true },
		},
		{
			ID: "clock-jitter", In: axis.FamilyPhysical, Section: "5",
			Summary: "randomized clock (hiding): random delays misalign power traces and displace injected " +
				"faults away from the targeted round",
			BlocksList: []string{"dpa", "cpa", "clkscrew"},
			Apply: func(c *Config) {
				c.TraceJitter = 6
				c.ClockJitter = true
			},
		},
		// --- §3 attestation-lifecycle defenses ------------------------
		// These are verifier/protocol-side policies rather than
		// microarchitectural knobs, so they apply to every surveyed
		// architecture (all eight implement remote attestation) and none
		// ships them stock: the baseline protocol flow is the victim.
		{
			ID: "quote-freshness", In: axis.FamilyAttestation, Section: "3",
			Summary: "single-use challenge nonces: the verifier records every accepted nonce and rejects " +
				"re-presentation, so a captured quote cannot be replayed into a later session",
			BlocksList: []string{"quote-replay"},
			Apply:      func(c *Config) { c.QuoteFreshness = true },
		},
		{
			ID: "measurement-lock", In: axis.FamilyAttestation, Section: "3",
			Summary: "measure-at-quote: the quoting path re-measures the live enclave image instead of " +
				"signing the load-time ledger entry, closing the measure→use TOCTOU window",
			BlocksList: []string{"measure-toctou"},
			Apply:      func(c *Config) { c.MeasurementLock = true },
		},
		{
			ID: "tcb-refresh", In: axis.FamilyAttestation, Section: "3",
			Summary: "verifiers pull the sweep-driven revocation state before accepting: a broken undefended " +
				"cell raises the arch's minimum TCB, so stale-TCB quotes are rejected until quotes claim the stock defense",
			BlocksList: []string{"stale-tcb"},
			Apply:      func(c *Config) { c.TCBRefresh = true },
		},
	}
}
