package physical

import (
	"math/rand"

	"github.com/intrust-sim/intrust/internal/power"
	"github.com/intrust-sim/intrust/internal/softcrypto"
)

// AESVictim produces power traces for chosen plaintexts. Implementations
// wrap the unprotected, masked and hiding-protected AES variants.
type AESVictim interface {
	// EncryptTraced encrypts pt while leaking into rec.
	EncryptTraced(pt []byte, rec *power.Recorder) [16]byte
}

// UnprotectedAES leaks every S-box output of the reference implementation.
type UnprotectedAES struct {
	rk softcrypto.RoundKeys
	// hooks and rec are built once at construction so EncryptTraced stays
	// allocation-free — the arena collection path pins AllocsPerRun==0
	// across adaptive Extend passes.
	hooks *softcrypto.Hooks
	rec   *power.Recorder
	st    [16]byte
}

// NewUnprotectedAES builds the victim.
func NewUnprotectedAES(key []byte) (*UnprotectedAES, error) {
	rk, err := softcrypto.ExpandKey(key)
	if err != nil {
		return nil, err
	}
	u := &UnprotectedAES{rk: rk}
	u.hooks = &softcrypto.Hooks{SBoxOut: func(round, i int, v byte) {
		if u.rec != nil {
			u.rec.Leak(uint32(v))
		}
	}}
	return u, nil
}

// EncryptTraced implements AESVictim.
func (u *UnprotectedAES) EncryptTraced(pt []byte, rec *power.Recorder) [16]byte {
	u.rec = rec
	defer func() { u.rec = nil }()
	softcrypto.EncryptTo(&u.st, &u.rk, pt, u.hooks)
	return u.st
}

// MaskedAESVictim leaks the masked implementation's intermediates.
type MaskedAESVictim struct {
	m   *softcrypto.MaskedAES
	rec *power.Recorder
}

// NewMaskedAESVictim builds the masking-countermeasure victim.
func NewMaskedAESVictim(key []byte, seed int64) (*MaskedAESVictim, error) {
	m, err := softcrypto.NewMaskedAES(key, seed)
	if err != nil {
		return nil, err
	}
	v := &MaskedAESVictim{m: m}
	m.Hooks = &softcrypto.Hooks{SBoxOut: func(round, i int, val byte) {
		if v.rec != nil {
			v.rec.Leak(uint32(val))
		}
	}}
	return v, nil
}

// EncryptTraced implements AESVictim.
func (v *MaskedAESVictim) EncryptTraced(pt []byte, rec *power.Recorder) [16]byte {
	v.rec = rec
	defer func() { v.rec = nil }()
	return v.m.Encrypt(pt)
}

// CollectTraces gathers n traces of random plaintexts on the given probe.
func CollectTraces(v AESVictim, probe *power.Probe, n int, rng *rand.Rand) *power.TraceSet {
	ts := &power.TraceSet{}
	ExtendTraces(ts, v, probe, n, rng)
	return ts
}

// ExtendTraces adds n more traces to an existing set — the sequential
// sampling hook: extending a set in increments consumes the RNG and the
// probe's noise stream exactly like one larger CollectTraces call, so the
// cumulative statistic at any checkpoint matches a fixed-budget
// collection of the same size.
func ExtendTraces(ts *power.TraceSet, v AESVictim, probe *power.Probe, n int, rng *rand.Rand) {
	for i := 0; i < n; i++ {
		pt := make([]byte, 16)
		rng.Read(pt)
		rec := power.NewRecorder(probe)
		v.EncryptTraced(pt, rec)
		ts.Add(rec.Samples, pt)
	}
}

// CPAByte recovers one key byte by Pearson correlation against the
// HW(SBox(pt^k)) hypothesis.
func CPAByte(ts *power.TraceSet, byteIdx int) (byte, float64) {
	bestK, bestC := byte(0), -1.0
	h := make([]float64, ts.Len())
	for k := 0; k < 256; k++ {
		for i := range h {
			h[i] = power.HW(uint32(softcrypto.SBox(ts.Inputs[i][byteIdx] ^ byte(k))))
		}
		if c := ts.MaxAbsPearson(h); c > bestC {
			bestK, bestC = byte(k), c
		}
	}
	return bestK, bestC
}

// CPAKey recovers all 16 key bytes.
func CPAKey(ts *power.TraceSet) [16]byte {
	var out [16]byte
	for i := 0; i < 16; i++ {
		out[i], _ = CPAByte(ts, i)
	}
	return out
}

// DPAByte recovers one key byte with Kocher's original difference-of-means
// distinguisher on bit 0 of the S-box output.
//
// The partition of a guess k depends on trace i only through the
// plaintext byte ts.Inputs[i][byteIdx], so the traces are grouped into
// per-byte-value class sums once and each of the 256 guesses combines at
// most 256 presummed vectors instead of re-walking the whole trace
// matrix — the same distinguisher at a fraction of the arithmetic.
func DPAByte(ts *power.TraceSet, byteIdx int) (byte, float64) {
	cs := ts.ClassSums(func(i int) uint8 { return ts.Inputs[i][byteIdx] })
	bestK, bestD := byte(0), -1.0
	for k := 0; k < 256; k++ {
		d := cs.DifferenceOfMeans(func(v uint8) bool {
			return softcrypto.SBox(v^byte(k))&1 == 1
		})
		if d > bestD {
			bestK, bestD = byte(k), d
		}
	}
	return bestK, bestD
}

// DPAKey recovers all 16 key bytes with difference of means.
func DPAKey(ts *power.TraceSet) [16]byte {
	var out [16]byte
	for i := 0; i < 16; i++ {
		out[i], _ = DPAByte(ts, i)
	}
	return out
}

// CorrectBytes counts matching bytes between a recovered and true key.
func CorrectBytes(got [16]byte, want []byte) int {
	n := 0
	for i := range got {
		if got[i] == want[i] {
			n++
		}
	}
	return n
}

// TracesToDisclosure doubles the trace budget until CPA recovers the full
// key (or the cap is hit) and returns the budget needed — the standard
// countermeasure-strength metric. Every doubling records a fresh
// campaign into one reused arena and runs the batched CPA on it.
func TracesToDisclosure(v AESVictim, probe *power.Probe, key []byte, cap int, rng *rand.Rand) (int, bool) {
	a := power.NewArena(16)
	for n := 32; n <= cap; n *= 2 {
		a.Reset()
		ExtendArena(a, v, probe, n, rng)
		if CorrectBytes(CPAKeyArena(a), key) == 16 {
			return n, true
		}
	}
	return cap, false
}
