package physical

import (
	"math/rand"

	"github.com/intrust-sim/intrust/internal/power"
	"github.com/intrust-sim/intrust/internal/softcrypto"
)

// The arena-backed DPA/CPA path. Capture and analysis both run on a
// power.Arena; internal/power's tests pin every statistic below bit for
// bit against a float64 reference over the dequantized traces, which
// the exact int64 arithmetic of the arena makes possible (see
// power.Quantize).

// ExtendArena adds n more traces of random plaintexts to the arena — the
// sequential-sampling hook, allocation-free in steady state: trace
// samples append to the arena's contiguous backing (pre-reserved via
// Grow) and the plaintext buffer lives on the arena. Extending in
// increments consumes the RNG and the probe's noise stream exactly like
// one larger call, so the statistic at any checkpoint matches a
// fixed-budget collection of the same size.
func ExtendArena(a *power.Arena, v AESVictim, probe *power.Probe, n int, rng *rand.Rand) {
	pt := a.StageInput()
	for i := 0; i < n; i++ {
		rng.Read(pt)
		rec := a.BeginTrace(probe)
		v.EncryptTraced(pt, rec)
		a.EndTrace(pt)
	}
}

// sboxHW[u] is HW(SBox(u)) — the CPA hypothesis table. For guess k and
// plaintext-byte class v the model value is sboxHW[v^k].
var sboxHW [256]int64

// sboxBit0[u] reports whether bit 0 of SBox(u) is set — the DPA
// selection function. For guess k, class v is selected iff sboxBit0[v^k].
var sboxBit0 [256]bool

func init() {
	for u := 0; u < 256; u++ {
		s := softcrypto.SBox(byte(u))
		sboxHW[u] = int64(power.HW(uint32(s)))
		sboxBit0[u] = s&1 == 1
	}
}

// bestGuess returns the key guess with the largest statistic: ascending
// k, strict >, so the lowest k wins a tie.
func bestGuess(stat *[256]float64) (byte, float64) {
	bestK, best := byte(0), -1.0
	for k, x := range stat {
		if x > best {
			bestK, best = byte(k), x
		}
	}
	return bestK, best
}

// DPAByteArena recovers one key byte with Kocher's difference-of-means
// distinguisher on bit 0 of the S-box output. One all-guess kernel call
// scores every key guess.
func DPAByteArena(a *power.Arena, byteIdx int) (byte, float64) {
	var d [256]float64
	a.ClassSumsFor(byteIdx).DifferenceOfMeansXor(&sboxBit0, &d)
	return bestGuess(&d)
}

// DPAKeyArena recovers all 16 key bytes with difference of means.
func DPAKeyArena(a *power.Arena) [16]byte {
	var out [16]byte
	for i := 0; i < 16; i++ {
		out[i], _ = DPAByteArena(a, i)
	}
	return out
}

// CPAByteArena recovers one key byte by Pearson correlation against the
// HW(SBox(pt^k)) hypothesis. One all-guess kernel call scores every key
// guess.
func CPAByteArena(a *power.Arena, byteIdx int) (byte, float64) {
	var c [256]float64
	a.ClassSumsFor(byteIdx).MaxAbsPearsonXor(&sboxHW, &c)
	return bestGuess(&c)
}

// CPAKeyArena recovers all 16 key bytes by Pearson correlation.
func CPAKeyArena(a *power.Arena) [16]byte {
	var out [16]byte
	for i := 0; i < 16; i++ {
		out[i], _ = CPAByteArena(a, i)
	}
	return out
}
