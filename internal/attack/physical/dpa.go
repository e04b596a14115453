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
// countermeasure-strength metric. The budgets run 32, 64, 128, … and
// the last one is the cap itself, so a cap that is not 32·2ᵏ is still
// measured. Every budget records a fresh campaign into one reused arena
// and runs the batched CPA on it.
func TracesToDisclosure(v AESVictim, probe *power.Probe, key []byte, cap int, rng *rand.Rand) (int, bool) {
	a := power.NewArena(16)
	for n := min(32, cap); n > 0; n = min(2*n, cap) {
		a.Reset()
		ExtendArena(a, v, probe, n, rng)
		if CorrectBytes(CPAKeyArena(a), key) == 16 {
			return n, true
		}
		if n == cap {
			break
		}
	}
	return cap, false
}
