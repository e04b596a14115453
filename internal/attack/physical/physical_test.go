package physical

import (
	"math/big"
	"math/rand"
	"testing"

	"github.com/intrust-sim/intrust/internal/power"
	"github.com/intrust-sim/intrust/internal/softcrypto"
)

func TestKocherTimingRecoversExponent(t *testing.T) {
	mod := big.NewInt(1)
	mod.Lsh(mod, 61)
	mod.Sub(mod, big.NewInt(1))
	exp := big.NewInt(0xB6D5) // 16-bit secret exponent
	rng := rand.New(rand.NewSource(1))
	samples := CollectTimingSamples(exp, mod, 600, rng)
	rec := KocherTiming(samples, mod, exp.BitLen())
	if rec.Cmp(exp) != 0 {
		match := MatchingBits(rec, exp, exp.BitLen())
		t.Fatalf("recovered %#x want %#x (%d/%d bits)", rec, exp, match, exp.BitLen())
	}
}

func TestKocherTimingDefeatedByLadder(t *testing.T) {
	mod := big.NewInt(1)
	mod.Lsh(mod, 61)
	mod.Sub(mod, big.NewInt(1))
	exp := big.NewInt(0xB6D5)
	rng := rand.New(rand.NewSource(2))
	samples := CollectLadderSamples(exp, mod, 600, rng)
	rec := KocherTiming(samples, mod, exp.BitLen())
	if rec.Cmp(exp) == 0 {
		t.Fatal("timing attack succeeded against the Montgomery ladder")
	}
}

var aesKey = []byte("correct horse ba")

func TestCPARecoversFullKey(t *testing.T) {
	v, err := NewUnprotectedAES(aesKey)
	if err != nil {
		t.Fatal(err)
	}
	a := power.NewArena(16)
	ExtendArena(a, v, power.PowerProbe(0.8, 3), 256, rand.New(rand.NewSource(3)))
	got := CPAKeyArena(a)
	if n := CorrectBytes(got, aesKey); n != 16 {
		t.Fatalf("CPA recovered %d/16 bytes", n)
	}
}

func TestDPARecoversKeyBytes(t *testing.T) {
	v, err := NewUnprotectedAES(aesKey)
	if err != nil {
		t.Fatal(err)
	}
	a := power.NewArena(16)
	ExtendArena(a, v, power.PowerProbe(0.5, 4), 1500, rand.New(rand.NewSource(4)))
	got := DPAKeyArena(a)
	if n := CorrectBytes(got, aesKey); n < 12 {
		t.Fatalf("DPA recovered only %d/16 bytes", n)
	}
}

func TestEMProbeAlsoWorks(t *testing.T) {
	// EM side channel: weaker coupling, more traces, same result shape.
	v, _ := NewUnprotectedAES(aesKey)
	a := power.NewArena(16)
	ExtendArena(a, v, power.EMProbe(0.8, 5), 1024, rand.New(rand.NewSource(5)))
	got := CPAKeyArena(a)
	if n := CorrectBytes(got, aesKey); n < 14 {
		t.Fatalf("EM CPA recovered %d/16 bytes", n)
	}
}

func TestMaskingDefeatsFirstOrderCPA(t *testing.T) {
	v, err := NewMaskedAESVictim(aesKey, 99)
	if err != nil {
		t.Fatal(err)
	}
	a := power.NewArena(16)
	ExtendArena(a, v, power.PowerProbe(0.8, 6), 512, rand.New(rand.NewSource(6)))
	got := CPAKeyArena(a)
	if n := CorrectBytes(got, aesKey); n > 2 {
		t.Fatalf("masked implementation leaked %d/16 bytes to first-order CPA", n)
	}
}

func TestHidingRaisesTraceBudget(t *testing.T) {
	v, _ := NewUnprotectedAES(aesKey)
	rng := rand.New(rand.NewSource(7))
	plain, okPlain := TracesToDisclosure(v, power.PowerProbe(0.8, 8), aesKey, 2048, rng)
	if !okPlain {
		t.Fatal("CPA never recovered the unprotected key")
	}
	hidden := power.PowerProbe(0.8, 9)
	hidden.JitterMax = 6 // random-delay hiding countermeasure
	hiddenN, okHidden := TracesToDisclosure(v, hidden, aesKey, 2048, rng)
	if okHidden && hiddenN <= plain {
		t.Fatalf("hiding did not raise the trace budget: %d (plain) vs %d (hidden)", plain, hiddenN)
	}
}

// countingVictim counts the traces a campaign records.
type countingVictim struct {
	AESVictim
	traces int
}

func (c *countingVictim) EncryptTraced(pt []byte, rec *power.Recorder) [16]byte {
	c.traces++
	return c.AESVictim.EncryptTraced(pt, rec)
}

// TestTracesToDisclosureMeasuresAtCap pins the budget ladder's last rung:
// a cap that is not 32·2ᵏ is itself measured before the cap is reported,
// and a cap below the first rung is measured once.
func TestTracesToDisclosureMeasuresAtCap(t *testing.T) {
	for _, tc := range []struct{ cap, traces int }{
		{100, 32 + 64 + 100},
		{20, 20},
		{128, 32 + 64 + 128},
	} {
		mv, err := NewMaskedAESVictim(aesKey, 99)
		if err != nil {
			t.Fatal(err)
		}
		v := &countingVictim{AESVictim: mv}
		n, ok := TracesToDisclosure(v, power.PowerProbe(0.8, 6), aesKey, tc.cap, rand.New(rand.NewSource(6)))
		if ok || n != tc.cap {
			t.Errorf("cap %d: masked victim gave (%d, %v), want (%d, false)", tc.cap, n, ok, tc.cap)
		}
		if v.traces != tc.traces {
			t.Errorf("cap %d: recorded %d traces, want %d", tc.cap, v.traces, tc.traces)
		}
	}
}

func TestPiretQuisquaterDFA(t *testing.T) {
	for seed := 0; seed < 3; seed++ {
		key := make([]byte, 16)
		rand.New(rand.NewSource(int64(seed + 100))).Read(key)
		oracle, err := NewFaultOracle(key)
		if err != nil {
			t.Fatal(err)
		}
		got, faults, err := PiretQuisquater(oracle, 2)
		if err != nil {
			t.Fatal(err)
		}
		if CorrectBytes(got, key) != 16 {
			t.Fatalf("DFA recovered wrong key for seed %d", seed)
		}
		if faults != 8 {
			t.Fatalf("faults used = %d, want 8 (2 per column)", faults)
		}
	}
}

func TestDFAStarvedByRedundancy(t *testing.T) {
	key := []byte("redundant aes ky")
	oracle, _ := NewFaultOracle(key)
	protected := RedundantOracle(oracle)
	// Every faulty computation is detected and suppressed.
	released := 0
	for i := 0; i < 20; i++ {
		_, ok := protected([]byte("DFA attack block"), &FaultSpec{Round: 9, Pos: i % 16, XOR: 0x42})
		if ok {
			released++
		}
	}
	if released != 0 {
		t.Fatalf("redundancy released %d faulty ciphertexts", released)
	}
	// Clean computations still work.
	if _, ok := protected([]byte("DFA attack block"), nil); !ok {
		t.Fatal("redundancy blocked a clean computation")
	}
}

func TestBellcoreFactorsModulus(t *testing.T) {
	key, err := softcrypto.GenerateRSAFrom(rand.New(rand.NewSource(23)), 512)
	if err != nil {
		t.Fatal(err)
	}
	msg := big.NewInt(0xFEEDC0FFEE)
	good := key.SignCRT(msg, nil)
	bad := key.SignCRT(msg, &softcrypto.CRTFault{Half: 0, XORMask: 2})
	p, q, ok := Bellcore(key.N, good, bad)
	if !ok {
		t.Fatal("Bellcore failed")
	}
	if new(big.Int).Mul(p, q).Cmp(key.N) != 0 {
		t.Fatal("factors do not multiply to N")
	}
	// Single-signature variant.
	p2, q2, ok := BellcoreSingle(key.N, key.E, msg, bad)
	if !ok || new(big.Int).Mul(p2, q2).Cmp(key.N) != 0 {
		t.Fatal("single-signature Bellcore failed")
	}
	// No fault, no factorization.
	if _, _, ok := Bellcore(key.N, good, good); ok {
		t.Fatal("Bellcore 'succeeded' without a fault")
	}
}

func TestGlitchCampaignFindsSweetSpot(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, kind := range []GlitchKind{GlitchClock, GlitchVoltage, GlitchEM, GlitchOptical} {
		points := GlitchCampaign(kind, 21, 200, rng)
		best, faults := BestGlitchStrength(points)
		if faults <= 0 {
			t.Fatalf("%v: no faults found in campaign", kind)
		}
		want := profiles[kind].sweetSpot
		if best < want-0.15 || best > want+0.15 {
			t.Errorf("%v: sweet spot found at %.2f, expected near %.2f", kind, best, want)
		}
		// Low strengths are silent; extreme strengths mostly crash.
		if points[0].Faults != 0 {
			t.Errorf("%v: faults at zero strength", kind)
		}
		last := points[len(points)-1]
		if last.Crashes < last.Faults {
			t.Errorf("%v: extreme strength should mostly crash (crashes=%d faults=%d)",
				kind, last.Crashes, last.Faults)
		}
	}
}

func TestCLKSCREWEndToEnd(t *testing.T) {
	res, err := CLKSCREW(42)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Success {
		t.Fatalf("CLKSCREW did not recover the secure-world key: %+v", res)
	}
	if res.NominalFaults != 0 {
		t.Fatalf("faults at nominal operating point: %d", res.NominalFaults)
	}
	if res.FaultProb <= 0 {
		t.Fatal("overclocked operating point reports zero fault probability")
	}
	if res.UsableFaults < 8 {
		t.Fatalf("usable faults = %d", res.UsableFaults)
	}
}
