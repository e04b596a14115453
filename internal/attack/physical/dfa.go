package physical

import (
	"fmt"

	"github.com/intrust-sim/intrust/internal/softcrypto"
)

// This file implements the Piret–Quisquater differential fault attack
// (CHES'03), the workhorse of glitch-based key recovery against AES
// ([5]'s line of work applied to symmetric ciphers): a single-byte fault
// injected at the input of round 9 spreads through MixColumns into a
// 4-byte ciphertext difference with a structure that filters the last
// round key down to one candidate after about two faulty ciphertexts per
// column.

// mcCoeff is the AES MixColumns matrix.
var mcCoeff = [4][4]byte{
	{2, 3, 1, 1},
	{1, 2, 3, 1},
	{1, 1, 2, 3},
	{3, 1, 1, 2},
}

// FaultOracle produces ciphertexts with an optional single-byte fault
// injected at the input of round `Round` at state position `Pos`.
// Attack code treats it as a black box returning faulty ciphertexts.
type FaultSpec struct {
	Round int
	Pos   int
	XOR   byte
}

// Oracle encrypts a plaintext, optionally injecting a fault.
type Oracle func(pt []byte, fault *FaultSpec) [16]byte

// NewFaultOracle wraps a key into an oracle (the "device under glitch").
func NewFaultOracle(key []byte) (Oracle, error) {
	rk, err := softcrypto.ExpandKey(key)
	if err != nil {
		return nil, err
	}
	return func(pt []byte, fault *FaultSpec) [16]byte {
		var hooks *softcrypto.Hooks
		if fault != nil {
			f := *fault
			hooks = &softcrypto.Hooks{RoundIn: func(round int, s *[16]byte) {
				if round == f.Round {
					s[f.Pos] ^= f.XOR
				}
			}}
		}
		return softcrypto.Encrypt(&rk, pt, hooks)
	}, nil
}

// diffBuckets groups the 256 guesses k for one last-round key byte by the
// round-10-input difference InvSBox(cb^k)^InvSBox(fb^k) they imply for
// the clean/faulty ciphertext byte pair (cb, fb): the guesses for
// difference d are keys[start[d]:start[d+1]], in ascending order.
type diffBuckets struct {
	start [257]uint16
	keys  [256]byte
}

// fill buckets the guesses for the byte pair (cb, fb) into a zero table.
func (t *diffBuckets) fill(cb, fb byte) {
	var diff [256]byte
	var count [256]uint16
	for k := range diff {
		d := softcrypto.InvSBox(cb^byte(k)) ^ softcrypto.InvSBox(fb^byte(k))
		diff[k] = d
		count[d]++
	}
	for d := 0; d < 256; d++ {
		t.start[d+1] = t.start[d] + count[d]
	}
	next := t.start
	for k, d := range diff {
		t.keys[next[d]] = byte(k)
		next[d]++
	}
}

func (t *diffBuckets) guesses(d byte) []byte {
	return t.keys[t.start[d]:t.start[int(d)+1]]
}

// columnCandidates returns the set of 4-byte round-10 key candidates for
// MixColumns column c consistent with one clean/faulty ciphertext pair.
func columnCandidates(clean, faulty [16]byte, c int) map[[4]byte]bool {
	// Per output byte of round-10-input column c (after ShiftRows), the
	// key-byte guesses bucketed by the difference each implies; they
	// depend only on the ciphertext pair, so they are built once and
	// looked up for every (rf, delta) guess below.
	var tables [4]diffBuckets
	for r := range tables {
		p := softcrypto.ShiftRowsIndex(r, c)
		tables[r].fill(clean[p], faulty[p])
	}
	out := map[[4]byte]bool{}
	// The faulted byte sat in some row rf of the column; the S-box output
	// difference was some delta; enumerate both.
	for delta := 1; delta < 256; delta++ {
		// delta times each MixColumns coefficient (1, 2 or 3).
		mul := [4]byte{1: byte(delta), 2: gmulByte(2, byte(delta)), 3: gmulByte(3, byte(delta))}
		for rf := 0; rf < 4; rf++ {
			// Per-position key candidates: those whose difference is the
			// one MixColumns spreads (rf, delta) into at that position.
			var cands [4][]byte
			ok := true
			for i := range cands {
				cands[i] = tables[i].guesses(mul[mcCoeff[i][rf]])
				if len(cands[i]) == 0 {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for _, k0 := range cands[0] {
				for _, k1 := range cands[1] {
					for _, k2 := range cands[2] {
						for _, k3 := range cands[3] {
							out[[4]byte{k0, k1, k2, k3}] = true
						}
					}
				}
			}
		}
	}
	return out
}

func gmulByte(a, b byte) byte {
	var p byte
	for b != 0 {
		if b&1 != 0 {
			p ^= a
		}
		hi := a & 0x80
		a <<= 1
		if hi != 0 {
			a ^= 0x1b
		}
		b >>= 1
	}
	return p
}

// FaultedColumn identifies which MixColumns column a faulty ciphertext
// affected by looking at the 4-byte difference pattern; it returns -1 for
// unusable faults (wrong multiplicity — glitches that hit other rounds).
func FaultedColumn(clean, faulty [16]byte) int {
	var diffPos []int
	for i := 0; i < 16; i++ {
		if clean[i] != faulty[i] {
			diffPos = append(diffPos, i)
		}
	}
	if len(diffPos) != 4 {
		return -1
	}
	for c := 0; c < 4; c++ {
		match := 0
		for r := 0; r < 4; r++ {
			p := softcrypto.ShiftRowsIndex(r, c)
			for _, dp := range diffPos {
				if dp == p {
					match++
				}
			}
		}
		if match == 4 {
			return c
		}
	}
	return -1
}

// PiretQuisquater runs the full DFA: for each column it gathers faulty
// ciphertexts until the candidate intersection is a single 4-byte tuple,
// then inverts the key schedule. faultsPerColumn controls the injection
// budget (2 is the published requirement).
func PiretQuisquater(oracle Oracle, faultsPerColumn int) ([16]byte, int, error) {
	pt := []byte("DFA attack block")
	clean := oracle(pt, nil)
	var k10 [16]byte
	faults := 0
	for c := 0; c < 4; c++ {
		// Fault row 0 of the round-9 input column that lands in output
		// column c: input position (0, c) = state index 4c.
		var inter map[[4]byte]bool
		for f := 0; f < faultsPerColumn; f++ {
			faults++
			faulty := oracle(pt, &FaultSpec{Round: 9, Pos: 4 * c, XOR: byte(0x11 + 0x33*f)})
			cands := columnCandidates(clean, faulty, c)
			if inter == nil {
				inter = cands
				continue
			}
			next := map[[4]byte]bool{}
			for t := range cands {
				if inter[t] {
					next[t] = true
				}
			}
			inter = next
		}
		if len(inter) != 1 {
			return k10, faults, fmt.Errorf("physical: DFA column %d left %d candidates (need more faults)", c, len(inter))
		}
		for t := range inter {
			for r := 0; r < 4; r++ {
				k10[softcrypto.ShiftRowsIndex(r, c)] = t[r]
			}
		}
	}
	return softcrypto.InvertKeySchedule(k10), faults, nil
}

// RedundantOracle wraps an oracle with the fault countermeasure: compute
// twice and compare; on mismatch suppress the output (return an error
// marker). DFA is starved of faulty ciphertexts.
func RedundantOracle(o Oracle) func(pt []byte, fault *FaultSpec) ([16]byte, bool) {
	return func(pt []byte, fault *FaultSpec) ([16]byte, bool) {
		a := o(pt, fault)
		b := o(pt, nil) // the second computation is unaffected by the glitch
		if a != b {
			return [16]byte{}, false // fault detected: no output released
		}
		return a, true
	}
}
