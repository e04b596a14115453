package physical

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/intrust-sim/intrust/internal/power"
)

// TestGradeKeyArenaMatchesExhaustive pins GradeKeyArena's contract
// against the exhaustive CorrectBytes count over the full recovered key,
// on the DPA and CPA guesses from arenas of the unprotected, masked and
// jittered victims at several trace counts:
//
//   - the graded count reaches 16-maxMiss exactly when the exhaustive
//     count does, and then the two are equal;
//   - at maxMiss = 16 they always match;
//   - grading stops at the (maxMiss+1)-th miss, or after byte 15.
//
// The corpus must also reach the boundaries the miss budget decides on,
// or the test would not see an off-by-one in the stopping rule.
func TestGradeKeyArenaMatchesExhaustive(t *testing.T) {
	victims := []struct {
		name   string
		v      func() (AESVictim, error)
		sigma  float64
		jitter int
		seed   int64
	}{
		{"unprotected", func() (AESVictim, error) { return NewUnprotectedAES(aesKey) }, 0.8, 0, 2},
		{"noisy", func() (AESVictim, error) { return NewUnprotectedAES(aesKey) }, 2.5, 0, 1},
		{"noisy", func() (AESVictim, error) { return NewUnprotectedAES(aesKey) }, 2.5, 0, 2},
		{"masked", func() (AESVictim, error) { return NewMaskedAESVictim(aesKey, 21) }, 0.8, 0, 1},
		{"jittered", func() (AESVictim, error) { return NewUnprotectedAES(aesKey) }, 0.8, 6, 1},
	}
	kernels := []struct {
		name   string
		byteFn func(*power.Arena, int) (byte, float64)
		keyFn  func(*power.Arena) [16]byte
	}{
		{"dpa", DPAByteArena, DPAKeyArena},
		{"cpa", CPAByteArena, CPAKeyArena},
	}
	seen := map[int]bool{}
	for _, vc := range victims {
		v, err := vc.v()
		if err != nil {
			t.Fatal(err)
		}
		probe := power.PowerProbe(vc.sigma, vc.seed)
		probe.JitterMax = vc.jitter
		rng := rand.New(rand.NewSource(vc.seed))
		a := power.NewArena(16)
		done := 0
		for _, n := range []int{24, 32, 48, 64, 96, 128, 160, 256} {
			ExtendArena(a, v, probe, n-done, rng)
			done = n
			for _, k := range kernels {
				guess := k.keyFn(a)
				want := CorrectBytes(guess, aesKey)
				seen[want] = true
				for _, maxMiss := range []int{0, 1, 2, 16} {
					// Grade the distinguisher's own guesses, counting the
					// bytes the grader asks for.
					calls := 0
					got := GradeKeyArena(a, func(_ *power.Arena, i int) (byte, float64) {
						calls++
						return guess[i], 0
					}, aesKey, maxMiss)
					at := fmt.Sprintf("%s seed %d %s n=%d maxMiss=%d", vc.name, vc.seed, k.name, n, maxMiss)
					if (got >= 16-maxMiss) != (want >= 16-maxMiss) {
						t.Errorf("%s: graded %d, exhaustive %d: disagree on reaching %d", at, got, want, 16-maxMiss)
					}
					if want >= 16-maxMiss && got != want {
						t.Errorf("%s: graded %d, exhaustive %d", at, got, want)
					}
					if got > want {
						t.Errorf("%s: graded %d exceeds exhaustive %d", at, got, want)
					}
					// It stops at the miss that settles the verdict, not
					// before and not after.
					misses := 0
					for i := 0; i < calls; i++ {
						if guess[i] != aesKey[i] {
							misses++
						}
					}
					if misses != min(16-want, maxMiss+1) || (calls < 16 && guess[calls-1] == aesKey[calls-1]) {
						t.Errorf("%s: graded %d bytes with %d misses; want a stop at miss %d", at, calls, misses, maxMiss+1)
					}
				}
			}
		}
	}
	for _, c := range []int{0, 13, 14, 15, 16} {
		if !seen[c] {
			t.Errorf("no arena in the corpus recovers exactly %d/16 bytes; the miss budget's boundary is untested", c)
		}
	}
}
