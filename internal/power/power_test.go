package power

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHammingWeight(t *testing.T) {
	cases := map[uint32]float64{0: 0, 1: 1, 3: 2, 0xff: 8, 0xffffffff: 32, 0x80000001: 2}
	for v, want := range cases {
		if got := HW(v); got != want {
			t.Errorf("HW(%#x) = %v, want %v", v, got, want)
		}
	}
}

func TestHammingWeightQuick(t *testing.T) {
	// HW(a^b) == HD(a,b) and HW(a)+HW(b) >= HW(a|b).
	f := func(a, b uint32) bool {
		if HD(a, b) != HW(a^b) {
			return false
		}
		return HW(a)+HW(b) >= HW(a|b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNoiseStatistics(t *testing.T) {
	n := NewNoise(2.0, 42)
	var sum, sumSq float64
	const N = 20000
	for i := 0; i < N; i++ {
		s := n.Sample()
		sum += s
		sumSq += s * s
	}
	mean := sum / N
	std := math.Sqrt(sumSq/N - mean*mean)
	if math.Abs(mean) > 0.1 {
		t.Errorf("noise mean = %v", mean)
	}
	if math.Abs(std-2.0) > 0.1 {
		t.Errorf("noise std = %v, want 2.0", std)
	}
	// Zero-sigma and nil noise are silent.
	if (&Noise{}).Sample() != 0 {
		t.Error("zero-sigma noise emitted")
	}
	var nilNoise *Noise
	if nilNoise.Sample() != 0 {
		t.Error("nil noise emitted")
	}
}

// recordOne records the values as one trace on the probe and returns
// the dequantized samples.
func recordOne(p *Probe, vals ...uint32) []float64 {
	a := NewArena(0)
	rec := a.BeginTrace(p)
	for _, v := range vals {
		rec.Leak(v)
	}
	a.EndTrace(nil)
	out := make([]float64, 0, len(vals))
	for _, q := range a.Trace(0) {
		out = append(out, Dequant(q))
	}
	return out
}

func TestRecorderModels(t *testing.T) {
	p := &Probe{Model: ModelHW, Gain: 1, Noise: NewNoise(0, 1)}
	if s := recordOne(p, 0xff, 0x0f); s[0] != 8 || s[1] != 4 {
		t.Errorf("HW samples = %v", s)
	}
	p2 := &Probe{Model: ModelHD, Gain: 1, Noise: NewNoise(0, 1)}
	// HD(0, ff) = 8, HD(ff, 0f) = 4.
	if s := recordOne(p2, 0xff, 0x0f); s[0] != 8 || s[1] != 4 {
		t.Errorf("HD samples = %v", s)
	}
	p3 := &Probe{Model: ModelIdentity, Gain: 2, Noise: NewNoise(0, 1)}
	if s := recordOne(p3, 21); s[0] != 42 {
		t.Errorf("identity sample = %v", s)
	}
}

func TestJitterMisalignsTraces(t *testing.T) {
	p := &Probe{Model: ModelHW, Gain: 1, Noise: NewNoise(0.1, 7), JitterMax: 3}
	a := NewArena(0)
	lens := map[int]bool{}
	for i := 0; i < 20; i++ {
		r := a.BeginTrace(p)
		for k := 0; k < 10; k++ {
			r.Leak(uint32(k))
		}
		a.EndTrace(nil)
		lens[len(a.Trace(i))] = true
	}
	if len(lens) < 2 {
		t.Error("jitter produced identical trace lengths")
	}
}

func TestEMProbeWeakerThanPower(t *testing.T) {
	pw := PowerProbe(0.5, 1)
	em := EMProbe(0.5, 1)
	if em.Gain >= pw.Gain {
		t.Error("EM gain not weaker")
	}
	if em.Noise.Sigma <= pw.Noise.Sigma {
		t.Error("EM noise not higher")
	}
}
