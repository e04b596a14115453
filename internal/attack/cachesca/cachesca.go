// Package cachesca implements the software cache side-channel attacks of
// Section 4.1 — Evict+Time and Prime+Probe (Osvik–Shamir–Tromer),
// Flush+Reload (Yarom–Falkner), a TLB channel (Gras et al.) and BTB
// branch shadowing (Lee et al.) — against the T-table AES victim, and
// measures them under each architecture's defense: none (SGX, TrustZone),
// LLC partitioning (Sanctum), cache exclusion from shared levels
// (Sanctuary), index randomization, and flush-on-switch.
//
// Key-recovery methodology (first-round attack): in round 1 the T-table
// index for state byte i is pt[i] XOR k[i]. A cache line holds 16 table
// entries, so observing which line was touched yields the upper nibble of
// pt[i]^k[i]; correlating over many known plaintexts recovers the upper
// nibble of every key byte — the classic 64-bit reduction of the OST
// attack.
package cachesca

import (
	"fmt"
	"math/rand"

	"github.com/intrust-sim/intrust/internal/cache"
	"github.com/intrust-sim/intrust/internal/softcrypto"
)

// Geometry constants of the victim tables.
const (
	tableStride = 0x400 // one 1 KiB T-table
	lineSize    = 64
	linesPerTab = tableStride / lineSize // 16
	entriesLine = lineSize / 4           // 16 table entries per line
)

// Victim is an AES encryption service under cache observation. The
// default (T-table) implementation's table lookups travel through the
// simulated cache hierarchy, tagged with the victim's domain; the
// constant-time implementation (NewCTVictim) performs no secret-dependent
// memory access at all, which is exactly the countermeasure's point.
type Victim struct {
	encrypt func(pt []byte) [16]byte
	hier    *cache.Hierarchy
	domain  int
	base    uint32 // T0 base; T1..T3 and the S-box follow at tableStride
	key     []byte

	// OnSwitch, when non-nil, runs after every encryption — the hook the
	// flush-on-switch defense (paper §4.1) uses to model cache hygiene on
	// the enclave context switch back to the attacker.
	OnSwitch func()

	// lastCycles accumulates lookup latency of the last encryption.
	lastCycles int
}

// NewVictim places the victim's tables at base in the simulated address
// space and wires the lookup hook.
func NewVictim(h *cache.Hierarchy, key []byte, domain int, base uint32) (*Victim, error) {
	ta, err := softcrypto.NewTableAES(key)
	if err != nil {
		return nil, err
	}
	v := &Victim{hier: h, domain: domain, base: base, key: key}
	ta.Hook = func(table int, idx byte) {
		r := h.Data(v.TableLineAddr(table, idx), false, domain)
		v.lastCycles += r.Latency
	}
	v.encrypt = ta.Encrypt
	return v, nil
}

// NewCTVictim builds a constant-time AES victim (bitsliced S-box
// computation, softcrypto.CTAES): same service interface, but no
// secret-indexed table lookups reach the cache hierarchy, so the §4.1
// cache channels have nothing to observe.
func NewCTVictim(h *cache.Hierarchy, key []byte, domain int, base uint32) (*Victim, error) {
	ct, err := softcrypto.NewCTAES(key)
	if err != nil {
		return nil, err
	}
	return &Victim{encrypt: ct.Encrypt, hier: h, domain: domain, base: base, key: key}, nil
}

// TableLineAddr returns the simulated address of a table entry.
func (v *Victim) TableLineAddr(table int, idx byte) uint32 {
	return v.base + uint32(table)*tableStride + uint32(idx)*4
}

// Encrypt runs one encryption, driving the cache.
func (v *Victim) Encrypt(pt []byte) [16]byte {
	v.lastCycles = 0
	ct := v.encrypt(pt)
	if v.OnSwitch != nil {
		v.OnSwitch()
	}
	return ct
}

// EncryptTimed runs one encryption and reports its cache latency — the
// externally observable execution time Evict+Time needs. The OnSwitch
// hook runs after the latency is captured: the context-switch hygiene is
// not part of the victim's observable compute time.
func (v *Victim) EncryptTimed(pt []byte) ([16]byte, int) {
	v.lastCycles = 0
	ct := v.encrypt(pt)
	cycles := v.lastCycles
	if v.OnSwitch != nil {
		v.OnSwitch()
	}
	return ct, cycles
}

// Key exposes the true key for scoring.
func (v *Victim) Key() []byte { return v.key }

// Result reports a key-recovery attempt.
type Result struct {
	Attack         string
	Defense        string
	Samples        int
	NibblesCorrect int // of 16 upper nibbles
	Success        bool
}

func (r Result) String() string {
	defense := r.Defense
	if defense == "" {
		defense = "no defense"
	}
	return fmt.Sprintf("%-14s vs %-18s: %2d/16 key nibbles after %d samples (success=%v)",
		r.Attack, defense, r.NibblesCorrect, r.Samples, r.Success)
}

// score tallies per-byte guesses: counts[i][line] accumulates evidence
// that T-line `line` was hot when the plaintext byte was pt[i].
type scoreboard struct {
	counts [16][16]float64
}

// add credits all key guesses consistent with an observed hot line.
func (s *scoreboard) add(byteIdx int, ptByte byte, hot [16]bool, weight float64) {
	for line := 0; line < 16; line++ {
		if !hot[line] {
			continue
		}
		// Key upper nibble consistent with this hot line:
		// (pt ^ k) >> 4 == line  =>  k_hi == line ^ (pt >> 4).
		s.counts[byteIdx][line^int(ptByte>>4)] += weight
	}
}

// best returns the most likely upper nibble for a key byte.
func (s *scoreboard) best(byteIdx int) int {
	bi, bv := 0, -1.0
	for n := 0; n < 16; n++ {
		if s.counts[byteIdx][n] > bv {
			bi, bv = n, s.counts[byteIdx][n]
		}
	}
	return bi
}

func (s *scoreboard) grade(key []byte) int {
	correct := 0
	for i := 0; i < 16; i++ {
		if s.best(i) == int(key[i]>>4) {
			correct++
		}
	}
	return correct
}

// FlushReloadRun is a resumable Flush+Reload attack: Extend adds samples
// to the cumulative scoreboard and Result grades what has been gathered
// so far. Extending a run in increments consumes the RNG exactly like one
// larger FlushReload call, so sequential sampling is bit-compatible with
// the fixed-budget measurement.
type FlushReloadRun struct {
	v         *Victim
	attacker  int
	threshold int
	sb        scoreboard
	samples   int
	pt        [16]byte // reused plaintext buffer; one draw per sample
}

// NewFlushReloadRun prepares the attack: the attacker shares the table
// pages with the victim (shared library / page dedup), flushes the lines,
// lets the victim encrypt, and reloads each line timing the access.
func NewFlushReloadRun(v *Victim, attackerDomain int) *FlushReloadRun {
	return &FlushReloadRun{v: v, attacker: attackerDomain, threshold: v.hier.HitLatency() + 2}
}

// Extend gathers n more samples.
func (fr *FlushReloadRun) Extend(n int, rng *rand.Rand) {
	v := fr.v
	pt := fr.pt[:]
	for ; n > 0; n-- {
		rng.Read(pt)
		// Flush every line of all four T-tables.
		for tab := 0; tab < 4; tab++ {
			for line := 0; line < linesPerTab; line++ {
				v.hier.FlushAddr(v.base + uint32(tab)*tableStride + uint32(line*lineSize))
			}
		}
		v.Encrypt(pt)
		// Reload, one table per state byte class.
		var hot [4][16]bool
		for tab := 0; tab < 4; tab++ {
			for line := 0; line < linesPerTab; line++ {
				r := v.hier.Data(v.base+uint32(tab)*tableStride+uint32(line*lineSize), false, fr.attacker)
				hot[tab][line] = r.Latency <= fr.threshold
			}
		}
		for i := 0; i < 16; i++ {
			fr.sb.add(i, pt[i], hot[i%4], 1)
		}
		fr.samples++
	}
}

// Result grades the samples gathered so far.
func (fr *FlushReloadRun) Result() Result {
	correct := fr.sb.grade(fr.v.key)
	return Result{Attack: "flush+reload", Samples: fr.samples,
		NibblesCorrect: correct, Success: correct >= 14}
}

// FlushReload runs the Flush+Reload attack at a fixed sample budget.
func FlushReload(v *Victim, samples int, attackerDomain int, rng *rand.Rand) Result {
	run := NewFlushReloadRun(v, attackerDomain)
	run.Extend(samples, rng)
	return run.Result()
}

// PrimeProbeRun is a resumable Prime+Probe attack through the shared LLC
// (see FlushReloadRun for the Extend/Result contract).
type PrimeProbeRun struct {
	v        *Victim
	llc      *cache.Cache
	attacker int
	sb       scoreboard
	samples  int
	pt       [16]byte // reused plaintext buffer; one draw per sample

	// ev holds the precomputed per-table-line eviction sets (4 tables x
	// 16 lines, Ways addresses each) in one contiguous backing array.
	// The addresses depend only on the LLC geometry and the victim's
	// table base, so they are derived once per run instead of twice per
	// line per sample in the innermost loop.
	ev [4 * linesPerTab][]uint32
}

// NewPrimeProbeRun prepares the attack: the attacker fills the LLC sets
// backing the victim's table lines with its own data, lets the victim
// encrypt, then re-touches its data counting evictions. No shared memory
// needed.
func NewPrimeProbeRun(v *Victim, llc *cache.Cache, attackerDomain int) *PrimeProbeRun {
	pp := &PrimeProbeRun{v: v, llc: llc, attacker: attackerDomain}
	cfg := llc.Config()
	stride := uint32(cfg.Sets * cfg.LineSize)
	const attackerBase = uint32(0x2000000)
	backing := make([]uint32, 4*linesPerTab*cfg.Ways)
	for tab := 0; tab < 4; tab++ {
		for line := 0; line < linesPerTab; line++ {
			// Attacker addresses that map (in the attacker's view) to the
			// same LLC set as the victim's table line.
			target := v.base + uint32(tab)*tableStride + uint32(line*lineSize)
			setOff := target % stride
			set := backing[:cfg.Ways:cfg.Ways]
			backing = backing[cfg.Ways:]
			for w := 0; w < cfg.Ways; w++ {
				set[w] = attackerBase + uint32(w)*stride + setOff
			}
			pp.ev[tab*linesPerTab+line] = set
		}
	}
	return pp
}

// Extend gathers n more samples.
func (pp *PrimeProbeRun) Extend(n int, rng *rand.Rand) {
	v, llc := pp.v, pp.llc
	pt := pp.pt[:]
	for ; n > 0; n-- {
		rng.Read(pt)
		// Prime all table-line sets.
		for tab := 0; tab < 4; tab++ {
			for line := 0; line < linesPerTab; line++ {
				for _, a := range pp.ev[tab*linesPerTab+line] {
					llc.Access(a, false, pp.attacker)
				}
			}
		}
		v.Encrypt(pt)
		// Probe: a miss on our own line means the victim displaced us.
		var hot [4][16]bool
		for tab := 0; tab < 4; tab++ {
			for line := 0; line < linesPerTab; line++ {
				misses := 0
				for _, a := range pp.ev[tab*linesPerTab+line] {
					if !llc.Access(a, false, pp.attacker) {
						misses++
					}
				}
				hot[tab][line] = misses > 0
			}
		}
		for i := 0; i < 16; i++ {
			pp.sb.add(i, pt[i], hot[i%4], 1)
		}
		pp.samples++
	}
}

// Result grades the samples gathered so far.
func (pp *PrimeProbeRun) Result() Result {
	correct := pp.sb.grade(pp.v.key)
	return Result{Attack: "prime+probe", Samples: pp.samples,
		NibblesCorrect: correct, Success: correct >= 14}
}

// PrimeProbe runs the Prime+Probe attack at a fixed sample budget.
func PrimeProbe(v *Victim, llc *cache.Cache, samples int, attackerDomain int, rng *rand.Rand) Result {
	run := NewPrimeProbeRun(v, llc, attackerDomain)
	run.Extend(samples, rng)
	return run.Result()
}

// EvictTime runs the Evict+Time attack: warm the tables, evict one
// candidate line, time the victim's whole encryption, and correlate the
// slowdown with the plaintext. The signal is statistical: a late-round
// access touches a random line with probability ~1-(15/16)^n, but the
// correct first-round key guess predicts a GUARANTEED touch, so the mean
// time of predicted-touch samples exceeds the rest. Slower and noisier
// than the resident-attacker techniques, as published.
func EvictTime(v *Victim, samples int, rng *rand.Rand) Result {
	run := NewEvictTimeRun(v)
	run.Extend(samples, rng)
	return run.Result()
}

// EvictTimeRun is the resumable form of EvictTime (see FlushReloadRun for
// the Extend/Result contract). The per-sample evicted-line rotation keys
// on the cumulative sample index, so extending in increments measures the
// same sequence as one larger EvictTime call.
type EvictTimeRun struct {
	v *Victim
	// Differential scoring per (byte, guess): mean time when the guess
	// predicts the evicted line was touched vs when it does not.
	sumIn, sumOut, nIn, nOut [16][16]float64
	samples                  int
	pt                       [16]byte // reused plaintext buffer; one draw per sample
}

// NewEvictTimeRun prepares the attack.
func NewEvictTimeRun(v *Victim) *EvictTimeRun {
	return &EvictTimeRun{v: v}
}

// Extend gathers n more timed encryptions.
func (et *EvictTimeRun) Extend(n int, rng *rand.Rand) {
	v := et.v
	pt := et.pt[:]
	for ; n > 0; n-- {
		rng.Read(pt)
		line := et.samples % linesPerTab
		tab := (et.samples / linesPerTab) % 4
		// Deterministically warm every table line, then evict the target.
		for tb := 0; tb < 5; tb++ {
			for l := 0; l < linesPerTab; l++ {
				v.hier.Data(v.base+uint32(tb)*tableStride+uint32(l*lineSize), false, v.domain)
			}
		}
		v.hier.FlushAddr(v.base + uint32(tab)*tableStride + uint32(line*lineSize))
		_, cycles := v.EncryptTimed(pt)
		for i := tab; i < 16; i += 4 {
			for k := 0; k < 16; k++ {
				// Guess k as the upper nibble of key byte i.
				predictedLine := int(pt[i]>>4) ^ k
				if predictedLine == line {
					et.sumIn[i][k] += float64(cycles)
					et.nIn[i][k]++
				} else {
					et.sumOut[i][k] += float64(cycles)
					et.nOut[i][k]++
				}
			}
		}
		et.samples++
	}
}

// Result grades the samples gathered so far.
func (et *EvictTimeRun) Result() Result {
	correct := 0
	for i := 0; i < 16; i++ {
		bestK, bestD := 0, -1e18
		for k := 0; k < 16; k++ {
			if et.nIn[i][k] == 0 || et.nOut[i][k] == 0 {
				continue
			}
			d := et.sumIn[i][k]/et.nIn[i][k] - et.sumOut[i][k]/et.nOut[i][k]
			if d > bestD {
				bestK, bestD = k, d
			}
		}
		if bestK == int(et.v.key[i]>>4) {
			correct++
		}
	}
	return Result{Attack: "evict+time", Samples: et.samples,
		NibblesCorrect: correct, Success: correct >= 10}
}

// TLBAttack mounts a Prime+Probe on the shared TLB: the victim translates
// one of two pages depending on each secret bit (the key-dependent data
// page access pattern of TLBleed); the attacker occupies the TLB sets and
// watches which one loses an entry.
func TLBAttack(tlb *cache.TLB, secret []byte, victimASID, attackerASID int) (recovered []byte, correct int) {
	pageA, pageB := uint32(0x100), uint32(0x101) // distinct TLB sets
	totalBits := len(secret) * 8
	out := make([]byte, len(secret))
	for bit := 0; bit < totalBits; bit++ {
		// Attacker primes both candidate sets fully.
		for _, vpn := range []uint32{pageA, pageB} {
			set := tlb.SetIndexOf(vpn)
			for w := 0; w < tlb.Ways(); w++ {
				tlb.Insert(uint32(set)+uint32(w*tlb.Sets()), attackerASID, 1)
			}
		}
		// Victim translates the secret-dependent page.
		b := secret[bit/8] >> (bit % 8) & 1
		vpn := pageA
		if b == 1 {
			vpn = pageB
		}
		tlb.Insert(vpn, victimASID, 1)
		// Probe: which of the attacker's sets lost an entry?
		lostA := tlbLost(tlb, pageA, attackerASID)
		lostB := tlbLost(tlb, pageB, attackerASID)
		guess := byte(0)
		if lostB && !lostA {
			guess = 1
		}
		out[bit/8] |= guess << (bit % 8)
	}
	for i := range out {
		for b := 0; b < 8; b++ {
			if out[i]>>b&1 == secret[i]>>b&1 {
				correct++
			}
		}
	}
	return out, correct
}

func tlbLost(tlb *cache.TLB, basevpn uint32, asid int) bool {
	set := tlb.SetIndexOf(basevpn)
	for w := 0; w < tlb.Ways(); w++ {
		if _, hit := tlb.Lookup(uint32(set)+uint32(w*tlb.Sets()), asid); !hit {
			return true
		}
	}
	return false
}

// BranchShadow mounts the BTB/PHT branch-shadowing attack: the victim's
// secret-dependent branch trains the shared, VA-indexed predictor; the
// attacker "shadows" it by querying the prediction at the same virtual
// address.
type BranchPredictor interface {
	PredictBranch(pc uint32) bool
	UpdateBranch(pc uint32, taken bool)
}

// BranchShadow recovers secret bits through the shared predictor.
// trainings is how many times the victim executes the branch per bit.
func BranchShadow(pred BranchPredictor, secret []byte, trainings int) (recovered []byte, correct int) {
	const branchVA = 0x1000
	out := make([]byte, len(secret))
	totalBits := len(secret) * 8
	for bit := 0; bit < totalBits; bit++ {
		b := secret[bit/8] >> (bit % 8) & 1
		// Victim: branch taken iff the secret bit is 1.
		for i := 0; i < trainings; i++ {
			pred.UpdateBranch(branchVA, b == 1)
		}
		// Attacker shadow-queries the prediction at the aliased address.
		if pred.PredictBranch(branchVA) {
			out[bit/8] |= 1 << (bit % 8)
		}
	}
	for i := range out {
		for b := 0; b < 8; b++ {
			if out[i]>>b&1 == secret[i]>>b&1 {
				correct++
			}
		}
	}
	return out, correct
}
