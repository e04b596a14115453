// Package physical implements the classical physical attacks of Section 5
// against the instrumented victims: Kocher's timing attack on modular
// exponentiation, DPA (difference of means) and CPA (Pearson correlation)
// on AES power traces, the Piret–Quisquater differential fault attack, the
// Bellcore RSA-CRT fault attack, a glitch-parameter campaign model, and
// CLKSCREW end-to-end against a TrustZone secure world — plus the
// countermeasures: constant-time exponentiation, masking, hiding, and
// redundant computation.
package physical

import (
	"math"
	"math/big"
	"math/bits"
	"math/rand"

	"github.com/intrust-sim/intrust/internal/softcrypto"
)

// TimingSample is one (message, total execution time) observation.
type TimingSample struct {
	Msg  uint64
	Time int
}

// victim is a timed modular exponentiation: square-and-multiply or the
// Montgomery ladder.
type victim func(base, exp, m uint64) (uint64, softcrypto.ExpTiming)

// CollectTimingSamples runs the square-and-multiply victim on random
// messages and records total times — the attacker's measurement phase.
func CollectTimingSamples(exp, mod uint64, n int, rng *rand.Rand) []TimingSample {
	return extendSamples(make([]TimingSample, 0, n), softcrypto.ModExpSquareMultiply, exp, mod, n, rng)
}

// ExtendTimingSamples appends n more measurements to an existing sample
// set — the sequential sampling hook: incremental extension draws the
// same message sequence as one larger CollectTimingSamples call.
func ExtendTimingSamples(samples []TimingSample, exp, mod uint64, n int, rng *rand.Rand) []TimingSample {
	return extendSamples(samples, softcrypto.ModExpSquareMultiply, exp, mod, n, rng)
}

// CollectLadderSamples is the same measurement against the Montgomery
// ladder countermeasure.
func CollectLadderSamples(exp, mod uint64, n int, rng *rand.Rand) []TimingSample {
	return extendSamples(make([]TimingSample, 0, n), softcrypto.ModExpLadder, exp, mod, n, rng)
}

// extendSamples times v on n messages drawn uniformly below mod. Each
// draw is big.Int.Rand's, into one reused Int, so the RNG stream is the
// one every Kocher cell has always consumed. The limit and the draw share
// one word backing, the call's only allocation.
func extendSamples(samples []TimingSample, v victim, exp, mod uint64, n int, rng *rand.Rand) []TimingSample {
	const nw = 64 / bits.UintSize // words per uint64
	w := make([]big.Word, 2*nw)
	var limit, msg big.Int
	limit.SetBits(w[:0:nw]).SetUint64(mod)
	msg.SetBits(w[nw:nw])
	for i := 0; i < n; i++ {
		m := msg.Rand(rng, &limit).Uint64()
		_, tm := v(m, exp, mod)
		samples = append(samples, TimingSample{Msg: m, Time: tm.Total})
	}
	return samples
}

// KocherTiming recovers an nbits-long exponent from timing samples by
// hypothesis testing: for each next bit, simulate both choices for every
// message and keep the one whose predicted cumulative times correlate
// better with the measured totals ([23]). The simulation uses the
// victim's cost model: a square and, for a 1-bit, a multiply, each
// followed by the extra reduction when the result exceeds half the
// modulus. Both hypotheses square the same state, so the square is
// computed once per message and bit.
func KocherTiming(samples []TimingSample, mod uint64, nbits int) uint64 {
	n := len(samples)
	half := mod >> 1
	// Each message's intermediate value and predicted cost under the
	// hypotheses 0 and 1 for the current bit.
	res := [2][]uint64{make([]uint64, n), make([]uint64, n)}
	cost := [2][]float64{make([]float64, n), make([]float64, n)}
	ys := make([]float64, n)
	for i, s := range samples {
		res[1][i] = 1
		ys[i] = float64(s.Time)
	}
	// step simulates the next bit from the state hypothesis b left. It
	// reads each message's state before writing both hypotheses over it,
	// so it runs in place.
	step := func(b int) {
		r0, c0 := res[b], cost[b]
		for i, s := range samples {
			r := softcrypto.MulMod(r0[i], r0[i], mod)
			c := c0[i] + 10
			if r > half {
				c += 3
			}
			res[0][i], cost[0][i] = r, c
			r = softcrypto.MulMod(r, s.Msg, mod)
			c += 10
			if r > half {
				c += 3
			}
			res[1][i], cost[1][i] = r, c
		}
	}
	// The MSB of an nbits-long exponent is 1; the initial state (1, 0)
	// starts in hypothesis 1's buffers.
	recovered, b := uint64(1)<<(nbits-1), 1
	step(b)
	for pos := nbits - 2; pos >= 0; pos-- {
		step(b)
		b = 0
		if pearson(cost[1], ys) >= pearson(cost[0], ys) {
			recovered |= 1 << pos
			b = 1
		}
	}
	return recovered
}

func pearson(xs, ys []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, syy, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		syy += ys[i] * ys[i]
		sxy += xs[i] * ys[i]
	}
	den := math.Sqrt(n*sxx-sx*sx) * math.Sqrt(n*syy-sy*sy)
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

// MatchingBits counts equal bits between two exponents over the low n
// bits — the attack success metric.
func MatchingBits(a, b uint64, n int) int {
	m := 0
	for i := 0; i < n; i++ {
		if a>>i&1 == b>>i&1 {
			m++
		}
	}
	return m
}
