// Package power models the side-channel measurement apparatus of Section 5:
// power and electromagnetic leakage of a device under test. It implements
// the standard leakage models of the SCA literature (Hamming weight,
// Hamming distance), a seeded Gaussian noise source in place of the
// oscilloscope's noise floor, and trace recording with optional temporal
// jitter (the effect hiding countermeasures introduce).
//
// The apparatus substitutes for the paper's physical lab setup: a victim
// implementation instrumented with a Recorder produces traces with exactly
// the statistical structure DPA/CPA consume, so countermeasure claims
// (masking kills first-order correlation, hiding scales the trace budget)
// can be reproduced quantitatively.
//
// See docs/ARCHITECTURE.md for the full package map and the
// paper-section cross-reference.
package power

import "math/rand"

// HW returns the Hamming weight of v — the canonical power model for CMOS
// bus transfers.
func HW(v uint32) float64 {
	n := 0
	for v != 0 {
		v &= v - 1
		n++
	}
	return float64(n)
}

// HD returns the Hamming distance between consecutive values — the model
// for register overwrites.
func HD(prev, next uint32) float64 { return HW(prev ^ next) }

// Noise is a seeded Gaussian noise source.
type Noise struct {
	Sigma float64
	rng   *rand.Rand
}

// NewNoise returns a Gaussian source with standard deviation sigma.
func NewNoise(sigma float64, seed int64) *Noise {
	return &Noise{Sigma: sigma, rng: rand.New(rand.NewSource(seed))}
}

// Sample draws one noise sample.
func (n *Noise) Sample() float64 {
	if n == nil || n.Sigma == 0 {
		return 0
	}
	return n.rng.NormFloat64() * n.Sigma
}

// Model selects how recorded intermediate values map to leakage.
type Model uint8

const (
	// ModelHW leaks the Hamming weight of each value.
	ModelHW Model = iota
	// ModelHD leaks the Hamming distance to the previous value.
	ModelHD
	// ModelIdentity leaks the value directly (idealized probe).
	ModelIdentity
)

// Probe describes the physical measurement channel.
type Probe struct {
	Model Model
	// Gain scales the signal; EM probes typically capture less signal
	// than a shunt resistor in the power rail.
	Gain float64
	// Noise is the measurement noise floor.
	Noise *Noise
	// JitterMax, when non-zero, inserts up to JitterMax random dummy
	// samples before each real one — temporal misalignment as produced by
	// hiding countermeasures (random delays) or an unstable trigger.
	JitterMax int

	jrng *rand.Rand
}

// PowerProbe returns a shunt-resistor power probe at the given noise level.
func PowerProbe(sigma float64, seed int64) *Probe {
	return &Probe{Model: ModelHW, Gain: 1.0, Noise: NewNoise(sigma, seed)}
}

// EMProbe returns a near-field EM probe: weaker coupling, noisier.
func EMProbe(sigma float64, seed int64) *Probe {
	return &Probe{Model: ModelHW, Gain: 0.6, Noise: NewNoise(sigma*1.8, seed)}
}

// Recorder captures one trace into an Arena: a sequence of leakage
// samples, quantized onto the acquisition ADC's grid (see Quantize) and
// appended to the arena's contiguous backing. Arena.BeginTrace hands
// out the arena's own Recorder.
type Recorder struct {
	Probe *Probe
	prev  uint32
	arena *Arena
}

// record appends one quantized sample to the arena backing.
func (r *Recorder) record(x float64) {
	r.arena.qs = append(r.arena.qs, Quantize(x))
}

// Leak records the leakage of one intermediate value.
func (r *Recorder) Leak(v uint32) {
	p := r.Probe
	if p.JitterMax > 0 {
		for i, n := 0, p.jrng.Intn(p.JitterMax+1); i < n; i++ {
			r.record(p.Noise.Sample())
		}
	}
	var sig float64
	switch p.Model {
	case ModelHD:
		sig = HD(r.prev, v)
	case ModelIdentity:
		sig = float64(v)
	default:
		sig = HW(v)
	}
	r.prev = v
	r.record(sig*p.Gain + p.Noise.Sample())
}
