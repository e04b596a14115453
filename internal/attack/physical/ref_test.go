package physical

import (
	"math/big"
	"math/rand"
)

// The math/big Kocher pipeline the machine-word one replaced, kept
// verbatim (renamed) as the reference model for
// TestKocherMatchesReference: the square-and-multiply and ladder victims,
// the sample collection and the attacker's per-bit simulation.

type refExpTiming struct {
	Total  int
	PerBit []int
}

const (
	refCostSquare   = 10
	refCostMultiply = 10
	refCostExtraRed = 3
)

func refExtraReduction(v, mod *big.Int) bool {
	half := new(big.Int).Rsh(mod, 1)
	return v.Cmp(half) > 0
}

func refModExpSquareMultiply(base, exp, m *big.Int) (*big.Int, refExpTiming) {
	result := big.NewInt(1)
	b := new(big.Int).Mod(base, m)
	bits := exp.BitLen()
	t := refExpTiming{PerBit: make([]int, 0, bits)}
	for i := bits - 1; i >= 0; i-- {
		cost := 0
		result.Mul(result, result)
		result.Mod(result, m)
		cost += refCostSquare
		if refExtraReduction(result, m) {
			cost += refCostExtraRed
		}
		if exp.Bit(i) == 1 {
			result.Mul(result, b)
			result.Mod(result, m)
			cost += refCostMultiply
			if refExtraReduction(result, m) {
				cost += refCostExtraRed
			}
		}
		t.PerBit = append(t.PerBit, cost)
		t.Total += cost
	}
	return result, t
}

func refModExpLadder(base, exp, m *big.Int) (*big.Int, refExpTiming) {
	r0 := big.NewInt(1)
	r1 := new(big.Int).Mod(base, m)
	bits := exp.BitLen()
	t := refExpTiming{PerBit: make([]int, 0, bits)}
	for i := bits - 1; i >= 0; i-- {
		if exp.Bit(i) == 0 {
			r1.Mul(r1, r0)
			r1.Mod(r1, m)
			r0.Mul(r0, r0)
			r0.Mod(r0, m)
		} else {
			r0.Mul(r0, r1)
			r0.Mod(r0, m)
			r1.Mul(r1, r1)
			r1.Mod(r1, m)
		}
		cost := refCostSquare + refCostMultiply + 2*refCostExtraRed
		t.PerBit = append(t.PerBit, cost)
		t.Total += cost
	}
	return r0, t
}

type refTimingSample struct {
	Msg  *big.Int
	Time int
}

func refCollectTimingSamples(exp, mod *big.Int, n int, rng *rand.Rand) []refTimingSample {
	return refExtendTimingSamples(nil, exp, mod, n, rng)
}

func refExtendTimingSamples(samples []refTimingSample, exp, mod *big.Int, n int, rng *rand.Rand) []refTimingSample {
	for i := 0; i < n; i++ {
		msg := new(big.Int).Rand(rng, mod)
		_, tm := refModExpSquareMultiply(msg, exp, mod)
		samples = append(samples, refTimingSample{Msg: msg, Time: tm.Total})
	}
	return samples
}

func refCollectLadderSamples(exp, mod *big.Int, n int, rng *rand.Rand) []refTimingSample {
	out := make([]refTimingSample, n)
	for i := range out {
		msg := new(big.Int).Rand(rng, mod)
		_, tm := refModExpLadder(msg, exp, mod)
		out[i] = refTimingSample{Msg: msg, Time: tm.Total}
	}
	return out
}

type refKocherState struct {
	result *big.Int
	cost   float64
}

func refKocherTiming(samples []refTimingSample, mod *big.Int, bits int) *big.Int {
	states := make([]refKocherState, len(samples))
	for i := range states {
		states[i] = refKocherState{result: big.NewInt(1)}
	}
	recovered := new(big.Int)
	recovered.SetBit(recovered, bits-1, 1)
	refAdvance(states, samples, mod, 1)

	for pos := bits - 2; pos >= 0; pos-- {
		corr1, states1 := refTryBit(states, samples, mod, 1)
		corr0, states0 := refTryBit(states, samples, mod, 0)
		if corr1 >= corr0 {
			recovered.SetBit(recovered, pos, 1)
			states = states1
		} else {
			states = states0
		}
	}
	return recovered
}

func refTryBit(states []refKocherState, samples []refTimingSample, mod *big.Int, bit uint) (float64, []refKocherState) {
	next := make([]refKocherState, len(states))
	for i := range states {
		next[i] = refKocherState{result: new(big.Int).Set(states[i].result), cost: states[i].cost}
	}
	refAdvance(next, samples, mod, bit)
	xs := make([]float64, len(next))
	ys := make([]float64, len(next))
	for i := range next {
		xs[i] = next[i].cost
		ys[i] = float64(samples[i].Time)
	}
	return pearson(xs, ys), next
}

func refAdvance(states []refKocherState, samples []refTimingSample, mod *big.Int, bit uint) {
	half := new(big.Int).Rsh(mod, 1)
	for i := range states {
		s := &states[i]
		s.result.Mul(s.result, s.result)
		s.result.Mod(s.result, mod)
		s.cost += 10
		if s.result.Cmp(half) > 0 {
			s.cost += 3
		}
		if bit == 1 {
			s.result.Mul(s.result, samples[i].Msg)
			s.result.Mod(s.result, mod)
			s.cost += 10
			if s.result.Cmp(half) > 0 {
				s.cost += 3
			}
		}
	}
}
