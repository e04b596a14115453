package power

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The kernel-equivalence property layer: the batched int16-arena kernels
// must be BIT-identical to the float64 reference (reference_test.go) on
// randomized trace sets. The reference reads the dequantized arena
// samples, Scale is a power of two, and every arena sum is exact in
// int64 — so the equivalence is exact, not approximate, and these tests
// compare math.Float64bits, not a tolerance.

// recordPair records randomized traces into an Arena and returns them
// with their dequantized float64 reference set.
func recordPair(seed int64, nTraces, leaksPer, jitterMax int, sigma float64) (*TraceSet, *Arena) {
	p := PowerProbe(sigma, seed)
	p.JitterMax = jitterMax
	a := NewArena(16)
	vrng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for i := 0; i < nTraces; i++ {
		recordTrace(a, p, vrng, leaksPer)
	}
	return ReferenceSet(a), a
}

// recordTrace records one trace of leaksPer random values under a
// random input drawn from vrng.
func recordTrace(a *Arena, p *Probe, vrng *rand.Rand, leaksPer int) {
	input := make([]byte, 16)
	vrng.Read(input)
	rec := a.BeginTrace(p)
	for j := 0; j < leaksPer; j++ {
		rec.Leak(vrng.Uint32())
	}
	a.EndTrace(input)
}

// eqBits fails unless got and want are the same float64 bit pattern.
func eqBits(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("%s: arena %v (%#x) != naive %v (%#x)",
			what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// checkDoM compares every guess k of one DifferenceOfMeansXor call
// against the float64 reference: the grouped difference of means under
// the selection v ↦ s[v⊕k].
func checkDoM(t *testing.T, what string, ts *TraceSet, a *Arena, byteIdx int, s *[256]bool) {
	t.Helper()
	ncs := ts.ClassSums(func(i int) uint8 { return ts.Inputs[i][byteIdx] })
	var out [256]float64
	a.ClassSumsFor(byteIdx).DifferenceOfMeansXor(s, &out)
	for k := range out {
		want := ncs.DifferenceOfMeans(func(v uint8) bool { return s[int(v)^k] })
		eqBits(t, fmt.Sprintf("%s k=%d", what, k), out[k], want)
	}
}

// checkPearson compares every guess k of one MaxAbsPearsonXor call
// against the float64 reference: the per-trace Pearson walk with
// h_i = hyp[pt_i⊕k].
func checkPearson(t *testing.T, what string, ts *TraceSet, a *Arena, byteIdx int, hyp *[256]int64) {
	t.Helper()
	var out [256]float64
	a.ClassSumsFor(byteIdx).MaxAbsPearsonXor(hyp, &out)
	h := make([]float64, ts.Len())
	for k := range out {
		for i := range h {
			h[i] = float64(hyp[int(ts.Inputs[i][byteIdx])^k])
		}
		eqBits(t, fmt.Sprintf("%s k=%d", what, k), out[k], ts.MaxAbsPearson(h))
	}
}

// TestDifferenceOfMeansEquivalence is the DPA-kernel property test:
// randomized trace sets, randomized selected-class sets, both partition
// shapes and both jitter regimes — every one of the 256 all-guess
// results bit-identical to the naive grouped float64 reference.
func TestDifferenceOfMeansEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name    string
		seed    int64
		traces  int
		jitter  int
		sigma   float64
		byteIdx int
	}{
		{"small", 1, 8, 0, 0.5, 0},
		{"noisy", 2, 200, 0, 2.0, 3},
		{"jitter", 3, 120, 4, 1.0, 7},
		{"noiseless", 4, 64, 0, 0, 15},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts, a := recordPair(tc.seed, tc.traces, 30, tc.jitter, tc.sigma)
			srng := rand.New(rand.NewSource(tc.seed * 7))
			var sel [256]bool
			for trial := 0; trial < 64; trial++ {
				for v := range sel {
					sel[v] = srng.Intn(2) == 1
				}
				checkDoM(t, "DifferenceOfMeansXor", ts, a, tc.byteIdx, &sel)
			}
		})
	}
}

// TestMaxAbsPearsonEquivalence is the CPA-kernel property test:
// randomized trace sets and randomized per-class integer hypotheses —
// every one of the 256 all-guess class-collapsed Pearson results
// bit-identical to the naive per-trace float64 reference.
func TestMaxAbsPearsonEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name   string
		seed   int64
		traces int
		jitter int
		sigma  float64
	}{
		{"small", 11, 8, 0, 0.5},
		{"noisy", 12, 200, 0, 2.0},
		{"jitter", 13, 120, 4, 1.0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts, a := recordPair(tc.seed, tc.traces, 30, tc.jitter, tc.sigma)
			hrng := rand.New(rand.NewSource(tc.seed * 13))
			var hyp [256]int64
			for trial := 0; trial < 32; trial++ {
				for v := range hyp {
					hyp[v] = int64(hrng.Intn(9)) // HW-like range 0..8
				}
				checkPearson(t, "MaxAbsPearsonXor", ts, a, 5, &hyp)
			}
		})
	}
}

// TestEquivalenceAcrossExtend pins the adaptive-escalation shape: record,
// analyse, extend the same sets, analyse again — the arena's invalidated
// caches must rebuild to bit-identical statistics at every checkpoint.
func TestEquivalenceAcrossExtend(t *testing.T) {
	p := PowerProbe(1.2, 99)
	p.JitterMax = 2
	a := NewArena(16)
	vrng := rand.New(rand.NewSource(991))

	var sel [256]bool
	var hyp [256]int64
	srng := rand.New(rand.NewSource(992))
	for v := 0; v < 256; v++ {
		sel[v] = srng.Intn(2) == 1
		hyp[v] = int64(srng.Intn(9))
	}

	for pass := 0; pass < 3; pass++ {
		for i := 0; i < 40; i++ {
			recordTrace(a, p, vrng, 20)
		}

		const byteIdx = 2
		ts := ReferenceSet(a)
		checkDoM(t, "DifferenceOfMeansXor after extend", ts, a, byteIdx, &sel)
		checkPearson(t, "MaxAbsPearsonXor after extend", ts, a, byteIdx, &hyp)
	}
}

// TestRailEnvelope pins the int64 transforms at the documented exactness
// envelope: 2^13 traces whose every sample sits on a ±maxQ ADC rail.
// Point 0 is +maxQ on every trace, so its class sums total n·maxQ, the
// largest any point can reach; point 1's sign follows a bit of the class,
// point 2's is random, and point 3 is -maxQ throughout. Every guess must
// still match the float64 reference bit for bit — an int64 overflow
// anywhere in the transforms would not.
func TestRailEnvelope(t *testing.T) {
	const n, byteIdx = 1 << 13, 9
	a := NewArena(16)
	p := PowerProbe(0, 1)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < n; i++ {
		input := make([]byte, 16)
		rng.Read(input)
		rail := [4]float64{1, -1, -1, -1}
		if input[byteIdx]&0x21 != 0 {
			rail[1] = 1
		}
		if rng.Intn(2) == 1 {
			rail[2] = 1
		}
		rec := a.BeginTrace(p)
		for _, x := range rail {
			rec.record(x * 1e9)
		}
		a.EndTrace(input)
	}
	for i := 0; i < n; i++ {
		for j, q := range a.Trace(i) {
			if q != maxQ && q != -maxQ {
				t.Fatalf("trace %d point %d = %d, not on a rail", i, j, q)
			}
		}
	}
	var sel [256]bool
	var hyp [256]int64
	for v := range sel {
		sel[v] = v&1 == 1
		hyp[v] = int64(v % 9)
	}
	ts := ReferenceSet(a)
	checkDoM(t, "rail DifferenceOfMeansXor", ts, a, byteIdx, &sel)
	checkPearson(t, "rail MaxAbsPearsonXor", ts, a, byteIdx, &hyp)
}

// TestTinySets pins the degenerate guards of both kernels: an empty
// arena (no points), a single trace (n < 2) and an empty or full
// selection all give 0 for every guess.
func TestTinySets(t *testing.T) {
	allZero := func(what string, out *[256]float64) {
		t.Helper()
		for k, x := range out {
			if x != 0 {
				t.Errorf("%s: out[%d] = %v, want 0", what, k, x)
			}
		}
	}
	var hyp [256]int64
	var sel [256]bool
	for v := range hyp {
		hyp[v] = int64(v % 9)
		sel[v] = v%3 == 0
	}
	var out [256]float64

	a := NewArena(16)
	cs := a.ClassSumsFor(0)
	cs.MaxAbsPearsonXor(&hyp, &out)
	allZero("empty arena Pearson", &out)
	cs.DifferenceOfMeansXor(&sel, &out)
	allZero("empty arena DoM", &out)

	_, one := recordPair(5, 1, 10, 0, 0.5)
	cs = one.ClassSumsFor(0)
	cs.MaxAbsPearsonXor(&hyp, &out)
	allZero("one-trace Pearson", &out)
	cs.DifferenceOfMeansXor(&sel, &out)
	allZero("one-trace DoM", &out)

	_, many := recordPair(6, 50, 10, 0, 0.5)
	cs = many.ClassSumsFor(0)
	for v := range sel {
		sel[v] = false
	}
	cs.DifferenceOfMeansXor(&sel, &out)
	allZero("empty selection", &out)
	for v := range sel {
		sel[v] = true
	}
	cs.DifferenceOfMeansXor(&sel, &out)
	allZero("full selection", &out)
}

// TestQuantizeGrid pins the ADC model: round-to-nearest on the 1/Scale
// grid, exact dequantization, saturating rails.
func TestQuantizeGrid(t *testing.T) {
	for _, tc := range []struct {
		in   float64
		want int16
	}{
		{0, 0},
		{1, Scale},
		{-1, -Scale},
		{1.0 / (2 * Scale), 1}, // half a step rounds away from zero
		{1e9, maxQ},
		{-1e9, -maxQ},
	} {
		if got := Quantize(tc.in); got != tc.want {
			t.Errorf("Quantize(%v) = %d, want %d", tc.in, got, tc.want)
		}
	}
	// Dequantization is exact: quantizing a dequantized value is identity.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		q := int16(rng.Intn(2*maxQ+1) - maxQ)
		if got := Quantize(Dequant(q)); got != q {
			t.Fatalf("Quantize(Dequant(%d)) = %d", q, got)
		}
	}
}
