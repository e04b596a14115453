package softcrypto

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestModExpMatchesBigExp(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func() bool {
		base := new(big.Int).Rand(rng, big.NewInt(1<<62))
		exp := new(big.Int).Rand(rng, big.NewInt(1<<62))
		mod := new(big.Int).Add(new(big.Int).Rand(rng, big.NewInt(1<<62)), big.NewInt(3))
		want := new(big.Int).Exp(base, exp, mod)
		sm, _ := ModExpSquareMultiply(base, exp, mod)
		ladder, _ := ModExpLadder(base, exp, mod)
		return sm.Cmp(want) == 0 && ladder.Cmp(want) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSquareMultiplyTimingLeaksKeyBits(t *testing.T) {
	mod := big.NewInt(1)
	mod.Lsh(mod, 127)
	mod.Sub(mod, big.NewInt(1)) // Mersenne-ish odd modulus
	base := big.NewInt(0x1234567)
	heavy, _ := new(big.Int).SetString("ffffffffffffffff", 16) // all ones
	light := big.NewInt(0x8000000000000000 >> 1)               // single one... plus MSB
	light.SetBit(light, 63, 1)
	_, tHeavy := ModExpSquareMultiply(base, heavy, mod)
	_, tLight := ModExpSquareMultiply(base, light, mod)
	if tHeavy.Total <= tLight.Total {
		t.Fatalf("timing does not reflect key weight: heavy %d <= light %d",
			tHeavy.Total, tLight.Total)
	}
}

func TestLadderTimingConstantPerBit(t *testing.T) {
	mod := big.NewInt(1)
	mod.Lsh(mod, 127)
	mod.Sub(mod, big.NewInt(1))
	base := big.NewInt(99991)
	rng := rand.New(rand.NewSource(7))
	var total int
	for trial := 0; trial < 20; trial++ {
		exp := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 64))
		exp.SetBit(exp, 63, 1) // fixed bit length
		_, tm := ModExpLadder(base, exp, mod)
		if trial == 0 {
			total = tm.Total
		} else if tm.Total != total {
			t.Fatalf("ladder timing varies: %d vs %d", tm.Total, total)
		}
		for _, c := range tm.PerBit {
			if c != tm.PerBit[0] {
				t.Fatal("ladder per-bit cost varies")
			}
		}
	}
}

func TestSquareMultiplyTimingVariesAcrossMessages(t *testing.T) {
	// The Kocher attack needs message-dependent timing for a FIXED key.
	mod := big.NewInt(1)
	mod.Lsh(mod, 127)
	mod.Sub(mod, big.NewInt(1))
	exp, _ := new(big.Int).SetString("deadbeefcafe1234", 16)
	rng := rand.New(rand.NewSource(8))
	seen := map[int]bool{}
	for i := 0; i < 50; i++ {
		msg := new(big.Int).Rand(rng, mod)
		_, tm := ModExpSquareMultiply(msg, exp, mod)
		seen[tm.Total] = true
	}
	if len(seen) < 5 {
		t.Fatalf("timing nearly constant across messages: %d distinct values", len(seen))
	}
}

func TestRSACRTSignVerify(t *testing.T) {
	key, err := GenerateRSAFrom(rand.New(rand.NewSource(21)), 512)
	if err != nil {
		t.Fatal(err)
	}
	msg := big.NewInt(0x48656c6c6f) // "Hello"
	sig := key.SignCRT(msg, nil)
	if !key.Verify(msg, sig) {
		t.Fatal("valid CRT signature does not verify")
	}
	// CRT result matches direct exponentiation.
	direct := new(big.Int).Exp(msg, key.D, key.N)
	if sig.Cmp(direct) != 0 {
		t.Fatal("CRT signature differs from direct signature")
	}
}

func TestRSACRTFaultBreaksSignature(t *testing.T) {
	key, err := GenerateRSAFrom(rand.New(rand.NewSource(22)), 512)
	if err != nil {
		t.Fatal(err)
	}
	msg := big.NewInt(1234567891011)
	sig := key.SignCRT(msg, &CRTFault{Half: 0, XORMask: 0x4})
	if key.Verify(msg, sig) {
		t.Fatal("faulty signature verifies")
	}
	// But it is still correct modulo q — the Bellcore precondition.
	good := key.SignCRT(msg, nil)
	if new(big.Int).Mod(sig, key.Q).Cmp(new(big.Int).Mod(good, key.Q)) != 0 {
		t.Fatal("fault in p-half corrupted the q-half too")
	}
	if new(big.Int).Mod(sig, key.P).Cmp(new(big.Int).Mod(good, key.P)) == 0 {
		t.Fatal("fault in p-half did not change the p-half")
	}
}

// TestGenerateRSAFromDeterministic pins the reproducibility contract the
// experiment engine relies on: the same reader bytes yield the same key,
// and the key signs correctly via CRT.
func TestGenerateRSAFromDeterministic(t *testing.T) {
	k1, err := GenerateRSAFrom(rand.New(rand.NewSource(11)), 512)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := GenerateRSAFrom(rand.New(rand.NewSource(11)), 512)
	if err != nil {
		t.Fatal(err)
	}
	if k1.N.Cmp(k2.N) != 0 || k1.D.Cmp(k2.D) != 0 {
		t.Error("same seed produced different RSA keys")
	}
	k3, err := GenerateRSAFrom(rand.New(rand.NewSource(12)), 512)
	if err != nil {
		t.Fatal(err)
	}
	if k1.N.Cmp(k3.N) == 0 {
		t.Error("different seeds produced the same RSA key")
	}
	// The generated key is a working CRT signer: s^e mod n == msg.
	msg := big.NewInt(0xC0FFEE)
	sig := k1.SignCRT(msg, nil)
	if got := new(big.Int).Exp(sig, k1.E, k1.N); got.Cmp(msg) != 0 {
		t.Errorf("CRT signature does not verify: got %v", got)
	}
}
