package physical

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/intrust-sim/intrust/internal/softcrypto"
)

// Property: the Piret–Quisquater key filter recovers the correct column
// key bytes for arbitrary keys and arbitrary nonzero fault values.
func TestDFAColumnCandidatesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := func() bool {
		key := make([]byte, 16)
		rng.Read(key)
		rk := softcrypto.MustExpandKey(key)
		pt := make([]byte, 16)
		rng.Read(pt)
		clean := softcrypto.Encrypt(&rk, pt, nil)
		col := rng.Intn(4)
		xor := byte(1 + rng.Intn(255))
		faulty := softcrypto.Encrypt(&rk, pt, &softcrypto.Hooks{
			RoundIn: func(round int, s *[16]byte) {
				if round == 9 {
					s[4*col] ^= xor
				}
			},
		})
		cands := columnCandidates(clean, faulty, col)
		// The true round-10 key bytes for this column must be among the
		// candidates.
		var want [4]byte
		for r := 0; r < 4; r++ {
			want[r] = rk[10][softcrypto.ShiftRowsIndex(r, col)]
		}
		return cands[want]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: FaultedColumn classifies round-9 faults by column and rejects
// fault patterns from other rounds.
func TestFaultedColumnClassification(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	key := make([]byte, 16)
	rng.Read(key)
	rk := softcrypto.MustExpandKey(key)
	pt := make([]byte, 16)
	rng.Read(pt)
	clean := softcrypto.Encrypt(&rk, pt, nil)
	for trial := 0; trial < 40; trial++ {
		pos := rng.Intn(16)
		xor := byte(1 + rng.Intn(255))
		round := 9
		if trial%4 == 0 {
			round = 7 // unusable: fault spreads to all 16 bytes
		}
		faulty := softcrypto.Encrypt(&rk, pt, &softcrypto.Hooks{
			RoundIn: func(r int, s *[16]byte) {
				if r == round {
					s[pos] ^= xor
				}
			},
		})
		col := FaultedColumn(clean, faulty)
		if round == 7 {
			if col != -1 {
				t.Fatalf("round-7 fault classified as column %d", col)
			}
			continue
		}
		// Round-9 fault at state position (r0, c0): lands in output
		// column (c0 - r0) mod 4 after round 9's ShiftRows.
		r0, c0 := pos%4, pos/4
		want := (c0 - r0 + 4) % 4
		if col != want {
			t.Fatalf("round-9 fault at pos %d classified as column %d, want %d", pos, col, want)
		}
	}
}

// Property: DFA recovers arbitrary random keys via the oracle interface.
func TestDFARandomKeysQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	f := func() bool {
		key := make([]byte, 16)
		rng.Read(key)
		oracle, err := NewFaultOracle(key)
		if err != nil {
			return false
		}
		got, _, err := PiretQuisquater(oracle, 2)
		if err != nil {
			return false
		}
		return CorrectBytes(got, key) == 16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 4}); err != nil {
		t.Fatal(err)
	}
}

// columnCandidatesBrute is the reference enumeration columnCandidates
// must agree with: for each (rf, delta) guess it recomputes every key
// byte's inverse-S-box difference at each of the column's four positions.
func columnCandidatesBrute(clean, faulty [16]byte, c int) map[[4]byte]bool {
	out := map[[4]byte]bool{}
	for rf := 0; rf < 4; rf++ {
		for delta := 1; delta < 256; delta++ {
			var cands [4][]byte
			ok := true
			for i := 0; i < 4; i++ {
				want := gmulByte(mcCoeff[i][rf], byte(delta))
				p := softcrypto.ShiftRowsIndex(i, c)
				cb, fb := clean[p], faulty[p]
				for k := 0; k < 256; k++ {
					if softcrypto.InvSBox(cb^byte(k))^softcrypto.InvSBox(fb^byte(k)) == want {
						cands[i] = append(cands[i], byte(k))
					}
				}
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

// Property: the bucket-table filter returns exactly the brute-force
// candidate set, for genuine round-9 faults and for arbitrary ciphertext
// pairs, in every column.
func TestColumnCandidatesMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	f := func(clean, noise [16]byte, genuine bool) bool {
		faulty := noise
		if genuine {
			rk := softcrypto.MustExpandKey(noise[:])
			pos, xor := rng.Intn(16), byte(1+rng.Intn(255))
			pt := clean
			clean = softcrypto.Encrypt(&rk, pt[:], nil)
			faulty = softcrypto.Encrypt(&rk, pt[:], &softcrypto.Hooks{
				RoundIn: func(r int, s *[16]byte) {
					if r == 9 {
						s[pos] ^= xor
					}
				},
			})
		}
		for c := 0; c < 4; c++ {
			got, want := columnCandidates(clean, faulty, c), columnCandidatesBrute(clean, faulty, c)
			if len(got) != len(want) {
				t.Logf("column %d: %d candidates, brute force %d", c, len(got), len(want))
				return false
			}
			for k := range want {
				if !got[k] {
					t.Logf("column %d: candidate %x missing", c, k)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(25))}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkColumnCandidates(b *testing.B) {
	key := []byte("bench DFA key 16")
	oracle, err := NewFaultOracle(key)
	if err != nil {
		b.Fatal(err)
	}
	pt := []byte("DFA attack block")
	clean := oracle(pt, nil)
	faulty := oracle(pt, &FaultSpec{Round: 9, Pos: 0, XOR: 0x11})
	col := FaultedColumn(clean, faulty)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchCandidates = columnCandidates(clean, faulty, col)
	}
}

var benchCandidates map[[4]byte]bool
