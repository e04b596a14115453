package physical

import (
	"math/big"
	"math/bits"
	"math/rand"
	"testing"

	"github.com/intrust-sim/intrust/internal/softcrypto"
)

// raceDetectorEnabled is set by race_test.go under `go test -race`.
var raceDetectorEnabled bool

// kocherVictim pairs one machine-word victim with its math/big reference
// collector.
type kocherVictim struct {
	name string
	v    victim
	ref  func(exp, mod *big.Int, n int, rng *rand.Rand) []refTimingSample
}

var kocherVictims = []kocherVictim{
	{"square-multiply", softcrypto.ModExpSquareMultiply, refCollectTimingSamples},
	{"ladder", softcrypto.ModExpLadder, refCollectLadderSamples},
}

// TestKocherMatchesReference holds the machine-word Kocher pipeline to
// the math/big one it replaced, for both victims, over 200 seeds and
// every budget in ns: the same (message, time) sequence, the same
// recovered exponent, the same RNG position afterwards, and collecting
// in steps equals collecting at once. Each seed attacks the grid's
// 61-bit target and, up to 75 timings, a small odd modulus, where an
// intermediate lands exactly on half the modulus often enough to pin
// the strict extra-reduction test.
func TestKocherMatchesReference(t *testing.T) {
	ns := []int{0, 1, 2, 75, 600}
	steps := []int{75, 75, 150, 300}
	for _, kv := range kocherVictims {
		kv := kv
		t.Run(kv.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 200; seed++ {
				pick := rand.New(rand.NewSource(-seed))
				targets := []struct {
					mod, exp uint64
					ns       []int
				}{
					{1<<61 - 1, 0xB6D5, ns},
					{uint64(5 + 2*pick.Intn(200)), 1<<15 | uint64(pick.Intn(1<<15)), ns[:4]},
				}
				for _, tg := range targets {
					checkKocherTarget(t, kv, seed, tg.mod, tg.exp, tg.ns, steps)
				}
			}
		})
	}
}

// checkKocherTarget runs TestKocherMatchesReference's checks for one
// victim, seed and (modulus, exponent) target.
func checkKocherTarget(t *testing.T, kv kocherVictim, seed int64, mod, exp uint64, ns, steps []int) {
	t.Helper()
	bigMod, bigExp := new(big.Int).SetUint64(mod), new(big.Int).SetUint64(exp)
	for _, n := range ns {
		rng, refRNG := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		got := extendSamples(nil, kv.v, exp, mod, n, rng)
		want := kv.ref(bigExp, bigMod, n, refRNG)
		if len(got) != len(want) {
			t.Fatalf("seed %d mod %d n %d: %d samples, want %d", seed, mod, n, len(got), len(want))
		}
		for i := range got {
			if got[i].Msg != want[i].Msg.Uint64() || got[i].Time != want[i].Time {
				t.Fatalf("seed %d mod %d n %d: sample %d = (%d, %d), want (%v, %d)",
					seed, mod, n, i, got[i].Msg, got[i].Time, want[i].Msg, want[i].Time)
			}
		}
		if a, b := rng.Int63(), refRNG.Int63(); a != b {
			t.Fatalf("seed %d mod %d n %d: RNG after collection at %d, want %d", seed, mod, n, a, b)
		}
		rec := KocherTiming(got, mod, bits.Len64(exp))
		if w := refKocherTiming(want, bigMod, bigExp.BitLen()); !w.IsUint64() || rec != w.Uint64() {
			t.Fatalf("seed %d mod %d n %d: recovered %#x, want %#x", seed, mod, n, rec, w)
		}
	}
	rng, oneRNG := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	var stepped []TimingSample
	for _, k := range steps {
		stepped = extendSamples(stepped, kv.v, exp, mod, k, rng)
	}
	once := extendSamples(nil, kv.v, exp, mod, 600, oneRNG)
	if len(stepped) != len(once) {
		t.Fatalf("seed %d mod %d: %d samples in steps, %d at once", seed, mod, len(stepped), len(once))
	}
	for i := range once {
		if stepped[i] != once[i] {
			t.Fatalf("seed %d mod %d: stepped sample %d = %+v, at once %+v", seed, mod, i, stepped[i], once[i])
		}
	}
}

// TestKocherPublicCollectors pins the exported collectors to the
// victims they name: CollectTimingSamples and ExtendTimingSamples time
// square-and-multiply, CollectLadderSamples the ladder.
func TestKocherPublicCollectors(t *testing.T) {
	const mod, exp = 1<<61 - 1, 0xB6D5
	for _, c := range []struct {
		name string
		got  []TimingSample
		v    victim
	}{
		{"CollectTimingSamples", CollectTimingSamples(exp, mod, 75, rand.New(rand.NewSource(3))), softcrypto.ModExpSquareMultiply},
		{"ExtendTimingSamples", ExtendTimingSamples(nil, exp, mod, 75, rand.New(rand.NewSource(3))), softcrypto.ModExpSquareMultiply},
		{"CollectLadderSamples", CollectLadderSamples(exp, mod, 75, rand.New(rand.NewSource(3))), softcrypto.ModExpLadder},
	} {
		want := extendSamples(nil, c.v, exp, mod, 75, rand.New(rand.NewSource(3)))
		if len(c.got) != len(want) {
			t.Fatalf("%s: %d samples, want %d", c.name, len(c.got), len(want))
		}
		for i := range want {
			if c.got[i] != want[i] {
				t.Fatalf("%s: sample %d = %+v, want %+v", c.name, i, c.got[i], want[i])
			}
		}
	}
}

// TestKocherTimingAllocs pins the attacker's allocation count: its
// per-message state lives in five buffers made once per call (the two
// hypotheses' values and costs, and the measured times), so the count
// does not grow with the number of timings. A per-message or per-bit
// allocation would make n=600 allocate more than n=75.
func TestKocherTimingAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race runtime allocates on its own account")
	}
	const bound = 5
	const mod, exp = 1<<61 - 1, 0xB6D5
	samples := CollectTimingSamples(exp, mod, 600, rand.New(rand.NewSource(1)))
	small := testing.AllocsPerRun(20, func() { KocherTiming(samples[:75], mod, bits.Len64(exp)) })
	large := testing.AllocsPerRun(20, func() { KocherTiming(samples, mod, bits.Len64(exp)) })
	if small != large || large > bound {
		t.Errorf("KocherTiming allocates %v objects at 75 timings and %v at 600, want the same, at most %d", small, large, bound)
	}
}

// TestExtendTimingSamplesAllocs pins the collection path: a victim run
// allocates nothing, so extending a sample set with spare capacity costs
// at most the one reused message Int per call, whatever the count.
func TestExtendTimingSamplesAllocs(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("the race runtime allocates on its own account")
	}
	const mod, exp = 1<<61 - 1, 0xB6D5
	rng := rand.New(rand.NewSource(1))
	samples := make([]TimingSample, 0, 600)
	if n := testing.AllocsPerRun(20, func() {
		samples = ExtendTimingSamples(samples[:0], exp, mod, 600, rng)
	}); n > 1 {
		t.Errorf("ExtendTimingSamples allocates %v objects per call of 600, want at most 1", n)
	}
}

// kocherSink keeps BenchmarkKocherTiming's call from being optimized away.
var kocherSink uint64

// BenchmarkKocherTiming times the attacker on the grid's 61-bit target
// at the kocher-timing floor of 600 timings.
func BenchmarkKocherTiming(b *testing.B) {
	const mod, exp = 1<<61 - 1, 0xB6D5
	samples := CollectTimingSamples(exp, mod, 600, rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kocherSink = KocherTiming(samples, mod, bits.Len64(exp))
	}
}

// BenchmarkExtendTimingSamples times collecting 600 square-and-multiply
// timings into a sample set with room for them.
func BenchmarkExtendTimingSamples(b *testing.B) {
	const mod, exp = 1<<61 - 1, 0xB6D5
	rng := rand.New(rand.NewSource(1))
	samples := make([]TimingSample, 0, 600)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		samples = ExtendTimingSamples(samples[:0], exp, mod, 600, rng)
	}
}
