package softcrypto

import "fmt"

// Hooks instruments an AES encryption for side-channel experiments.
type Hooks struct {
	// SBoxOut observes every S-box output: round (1-based), state byte
	// index, and the value. Power-analysis recorders attach here.
	SBoxOut func(round, index int, value byte)
	// RoundIn observes (and may tamper with) the state at the input of
	// each round, before SubBytes. Fault-injection campaigns attach here:
	// flipping a byte at the input of round 9 is the Piret–Quisquater
	// fault model.
	RoundIn func(round int, state *[16]byte)
}

// RoundKeys holds the expanded AES-128 key schedule: 11 round keys in the
// same column-major byte order as the state.
type RoundKeys [11][16]byte

// ExpandKey computes the AES-128 key schedule.
func ExpandKey(key []byte) (RoundKeys, error) {
	return expandKey(key, func(t *[4]byte) {
		*t = [4]byte{sbox[t[0]], sbox[t[1]], sbox[t[2]], sbox[t[3]]}
	})
}

// expandKey is ExpandKey with the key schedule's SubWord supplied, so the
// constant-time AES can expand its key without a key-indexed lookup.
func expandKey(key []byte, subWord func(*[4]byte)) (RoundKeys, error) {
	var rk RoundKeys
	if len(key) != 16 {
		return rk, fmt.Errorf("softcrypto: AES-128 key must be 16 bytes, got %d", len(key))
	}
	var w [44][4]byte
	for i := 0; i < 4; i++ {
		copy(w[i][:], key[4*i:4*i+4])
	}
	for i := 4; i < 44; i++ {
		t := w[i-1]
		if i%4 == 0 {
			t = [4]byte{t[1], t[2], t[3], t[0]}
			subWord(&t)
			t[0] ^= rcon[i/4]
		}
		for j := 0; j < 4; j++ {
			w[i][j] = w[i-4][j] ^ t[j]
		}
	}
	for r := 0; r < 11; r++ {
		for c := 0; c < 4; c++ {
			copy(rk[r][4*c:4*c+4], w[4*r+c][:])
		}
	}
	return rk, nil
}

// MustExpandKey is ExpandKey for fixed test keys; it panics on bad input.
func MustExpandKey(key []byte) RoundKeys {
	rk, err := ExpandKey(key)
	if err != nil {
		panic(err)
	}
	return rk
}

// InvertKeySchedule recovers the original cipher key from the last round
// key — the final step of the DFA and of last-round-key CPA attacks.
func InvertKeySchedule(rk10 [16]byte) [16]byte {
	var w [44][4]byte
	for c := 0; c < 4; c++ {
		copy(w[40+c][:], rk10[4*c:4*c+4])
	}
	for i := 43; i >= 4; i-- {
		t := w[i-1]
		if i%4 == 0 {
			t = w[i-1]
			t = [4]byte{sbox[t[1]], sbox[t[2]], sbox[t[3]], sbox[t[0]]}
			t[0] ^= rcon[i/4]
		}
		for j := 0; j < 4; j++ {
			w[i-4][j] = w[i][j] ^ t[j]
		}
	}
	var key [16]byte
	for c := 0; c < 4; c++ {
		copy(key[4*c:4*c+4], w[c][:])
	}
	return key
}

func addRoundKey(s *[16]byte, rk *[16]byte) {
	for i := range s {
		s[i] ^= rk[i]
	}
}

func subBytes(s *[16]byte, round int, h *Hooks) {
	for i := range s {
		s[i] = sbox[s[i]]
		if h != nil && h.SBoxOut != nil {
			h.SBoxOut(round, i, s[i])
		}
	}
}

// shiftRows rotates row r left by r (state is column-major: s[4c+r]).
func shiftRows(s *[16]byte) {
	var t [16]byte
	for c := 0; c < 4; c++ {
		for r := 0; r < 4; r++ {
			t[4*c+r] = s[4*((c+r)%4)+r]
		}
	}
	*s = t
}

func mixColumns(s *[16]byte) {
	for c := 0; c < 4; c++ {
		a0, a1, a2, a3 := s[4*c], s[4*c+1], s[4*c+2], s[4*c+3]
		s[4*c] = xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3
		s[4*c+1] = a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3
		s[4*c+2] = a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3)
		s[4*c+3] = (xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3)
	}
}

// Encrypt performs one AES-128 block encryption with instrumentation.
// pt and the returned ciphertext are 16 bytes.
func Encrypt(rk *RoundKeys, pt []byte, h *Hooks) [16]byte {
	var s [16]byte
	EncryptTo(&s, rk, pt, h)
	return s
}

// EncryptTo is Encrypt with a caller-supplied state buffer, which doubles
// as the ciphertext output. Because hooks see &s, a per-call state array
// always escapes to the heap; trace-capture loops that encrypt thousands
// of blocks reuse one buffer and stay allocation-free.
func EncryptTo(s *[16]byte, rk *RoundKeys, pt []byte, h *Hooks) {
	copy(s[:], pt)
	addRoundKey(s, &rk[0])
	for round := 1; round <= 9; round++ {
		if h != nil && h.RoundIn != nil {
			h.RoundIn(round, s)
		}
		subBytes(s, round, h)
		shiftRows(s)
		mixColumns(s)
		addRoundKey(s, &rk[round])
	}
	if h != nil && h.RoundIn != nil {
		h.RoundIn(10, s)
	}
	subBytes(s, 10, h)
	shiftRows(s)
	addRoundKey(s, &rk[10])
}

// ShiftRowsIndex returns the output byte position that round-10-input
// position (row, col) reaches after the final ShiftRows. The DFA uses it
// to locate the four faulted ciphertext bytes of a column.
func ShiftRowsIndex(row, col int) int {
	// shiftRows reads s[4*((c+r)%4)+r] into s'[4c+r]; so input (r, col)
	// appears at output column c where (c+r)%4 == col.
	c := (col - row + 4) % 4
	return 4*c + row
}
