package physical

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/intrust-sim/intrust/internal/power"
)

// TestArenaKeyRecovery pins that the batched path actually breaks the
// unprotected victim — full 16-byte CPA recovery at a realistic budget.
func TestArenaKeyRecovery(t *testing.T) {
	key := []byte("sixteen byte key")
	v, err := NewUnprotectedAES(key)
	if err != nil {
		t.Fatal(err)
	}
	a := power.NewArena(16)
	ExtendArena(a, v, power.PowerProbe(0.5, 7), 400, rand.New(rand.NewSource(3)))
	if got := CorrectBytes(CPAKeyArena(a), key); got != 16 {
		t.Fatalf("arena CPA recovered %d/16 key bytes", got)
	}
	if got := CorrectBytes(DPAKeyArena(a), key); got < 12 {
		t.Fatalf("arena DPA recovered %d/16 key bytes, want >= 12", got)
	}
}

// TestExtendArenaZeroAlloc is the alloc-regression pin for the adaptive
// escalation path: after Grow pre-reserves the backing, an Extend pass —
// plaintext generation, AES victim, probe noise, quantized capture —
// touches the heap zero times.
func TestExtendArenaZeroAlloc(t *testing.T) {
	v, err := NewUnprotectedAES([]byte("sixteen byte key"))
	if err != nil {
		t.Fatal(err)
	}
	probe := power.PowerProbe(0.8, 7)
	rng := rand.New(rand.NewSource(5))
	a := power.NewArena(16)

	const perPass, passes = 32, 20
	ExtendArena(a, v, probe, perPass, rng) // warm victim, probe RNGs, arena
	a.Grow((passes+2)*perPass, 160)

	allocs := testing.AllocsPerRun(passes, func() {
		ExtendArena(a, v, probe, perPass, rng)
	})
	if allocs != 0 {
		t.Fatalf("ExtendArena allocated %.1f objects/pass, want 0", allocs)
	}
}

// TestArenaAnalysisZeroAlloc pins the regrade path: once the arena's
// caches exist, a full 256-guess DPA+CPA regrade of one byte does not
// allocate — the per-checkpoint analysis cost that was triggering GC
// storms in the adaptive sweep.
func TestArenaAnalysisZeroAlloc(t *testing.T) {
	v, err := NewUnprotectedAES([]byte("sixteen byte key"))
	if err != nil {
		t.Fatal(err)
	}
	a := power.NewArena(16)
	ExtendArena(a, v, power.PowerProbe(0.8, 7), 200, rand.New(rand.NewSource(5)))
	DPAByteArena(a, 0) // build grouping + scratch
	CPAByteArena(a, 0) // build column caches + scratch

	allocs := testing.AllocsPerRun(10, func() {
		DPAByteArena(a, 0)
		CPAByteArena(a, 0)
	})
	if allocs != 0 {
		t.Fatalf("arena regrade allocated %.1f objects/run, want 0", allocs)
	}
}

// benchSink keeps the benchmarked kernels' results live.
var benchSink byte

// benchByteArena times one key byte of an all-guess arena kernel at the
// sweep's reference budget (96 traces) and at a large campaign (1500).
// The byte index rotates, so each call regroups the class sums as a
// sweep checkpoint does.
func benchByteArena(b *testing.B, kernel func(*power.Arena, int) (byte, float64)) {
	for _, n := range []int{96, 1500} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			v, err := NewUnprotectedAES([]byte("sixteen byte key"))
			if err != nil {
				b.Fatal(err)
			}
			a := power.NewArena(16)
			ExtendArena(a, v, power.PowerProbe(0.8, 7), n, rand.New(rand.NewSource(5)))
			kernel(a, 15) // build the caches and scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink, _ = kernel(a, i%16)
			}
		})
	}
}

func BenchmarkDPAByteArena(b *testing.B) { benchByteArena(b, DPAByteArena) }

func BenchmarkCPAByteArena(b *testing.B) { benchByteArena(b, CPAByteArena) }
