package softcrypto

import (
	"bytes"
	"crypto/aes"
	"math/rand"
	"testing"
	"testing/quick"
)

// refEncrypt encrypts with the Go standard library as ground truth.
func refEncrypt(t *testing.T, key, pt []byte) []byte {
	t.Helper()
	blk, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 16)
	blk.Encrypt(out, pt)
	return out
}

func TestEncryptMatchesStdlibFIPSVector(t *testing.T) {
	// FIPS-197 Appendix B vector.
	key := []byte{0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
		0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c}
	pt := []byte{0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d,
		0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34}
	want := []byte{0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb,
		0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a, 0x0b, 0x32}
	rk := MustExpandKey(key)
	got := Encrypt(&rk, pt, nil)
	if !bytes.Equal(got[:], want) {
		t.Fatalf("FIPS vector: got %x want %x", got, want)
	}
}

func randBlock(rng *rand.Rand) []byte {
	b := make([]byte, 16)
	rng.Read(b)
	return b
}

func TestEncryptMatchesStdlibQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		key, pt := randBlock(rng), randBlock(rng)
		rk := MustExpandKey(key)
		got := Encrypt(&rk, pt, nil)
		return bytes.Equal(got[:], refEncrypt(t, key, pt))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTableAESMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func() bool {
		key, pt := randBlock(rng), randBlock(rng)
		ta, err := NewTableAES(key)
		if err != nil {
			return false
		}
		got := ta.Encrypt(pt)
		return bytes.Equal(got[:], refEncrypt(t, key, pt))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMaskedAESMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ma, err := NewMaskedAES([]byte("0123456789abcdef"), 99)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		pt := randBlock(rng)
		got := ma.Encrypt(pt)
		want := refEncrypt(t, []byte("0123456789abcdef"), pt)
		if !bytes.Equal(got[:], want) {
			t.Fatalf("masked encrypt #%d: got %x want %x", i, got, want)
		}
	}
}

func TestCTAESMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func() bool {
		key, pt := randBlock(rng), randBlock(rng)
		ct, err := NewCTAES(key)
		if err != nil {
			return false
		}
		got := ct.Encrypt(pt)
		return bytes.Equal(got[:], refEncrypt(t, key, pt))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestCTSboxMatchesTable runs every input through every lane of the
// bitsliced S-box: call x puts byte x+37i in lane i, so over 256 calls
// each lane sees all 256 inputs while its neighbours hold other values.
func TestCTSboxMatchesTable(t *testing.T) {
	for x := 0; x < 256; x++ {
		var s, in [16]byte
		for i := range s {
			s[i] = byte(x + 37*i)
		}
		in = s
		subBytesCT(&s)
		for i := range s {
			if s[i] != sbox[in[i]] {
				t.Fatalf("lane %d: subBytesCT(%#x) = %#x, want %#x", i, in[i], s[i], sbox[in[i]])
			}
		}
	}
}

func TestCTAESEncryptAllocs(t *testing.T) {
	ct, err := NewCTAES([]byte("0123456789abcdef"))
	if err != nil {
		t.Fatal(err)
	}
	pt := []byte("constant-time pt")
	if avg := testing.AllocsPerRun(100, func() { ct.Encrypt(pt) }); avg != 0 {
		t.Errorf("CTAES.Encrypt allocates %v objects per block, want 0", avg)
	}
}

// ctSink keeps BenchmarkCTAESEncrypt's result live.
var ctSink [16]byte

func BenchmarkCTAESEncrypt(b *testing.B) {
	ct, err := NewCTAES([]byte("0123456789abcdef"))
	if err != nil {
		b.Fatal(err)
	}
	pt := []byte("constant-time pt")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctSink = ct.Encrypt(pt)
	}
}

func TestInvSboxRoundTrip(t *testing.T) {
	for x := 0; x < 256; x++ {
		if InvSBox(SBox(byte(x))) != byte(x) {
			t.Fatalf("inverse S-box broken at %#x", x)
		}
	}
}

func TestKeyScheduleInversion(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func() bool {
		key := randBlock(rng)
		rk := MustExpandKey(key)
		back := InvertKeySchedule(rk[10])
		return bytes.Equal(back[:], key)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestExpandKeyValidatesLength(t *testing.T) {
	if _, err := ExpandKey([]byte("short")); err == nil {
		t.Error("short key accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustExpandKey did not panic")
		}
	}()
	MustExpandKey(nil)
}

func TestHooksObserveAndTamper(t *testing.T) {
	key := []byte("yellow submarine")
	rk := MustExpandKey(key)
	var sboxCalls, roundCalls int
	h := &Hooks{
		SBoxOut: func(round, i int, v byte) { sboxCalls++ },
		RoundIn: func(round int, s *[16]byte) { roundCalls++ },
	}
	pt := make([]byte, 16)
	Encrypt(&rk, pt, h)
	if sboxCalls != 160 { // 10 rounds x 16 bytes
		t.Errorf("SBoxOut calls = %d", sboxCalls)
	}
	if roundCalls != 10 {
		t.Errorf("RoundIn calls = %d", roundCalls)
	}
	// Tampering at round 9 changes exactly 4 ciphertext bytes (one
	// MixColumns column) — the Piret–Quisquater fault propagation.
	clean := Encrypt(&rk, pt, nil)
	faulty := Encrypt(&rk, pt, &Hooks{RoundIn: func(round int, s *[16]byte) {
		if round == 9 {
			s[0] ^= 0x42
		}
	}})
	diff := 0
	for i := range clean {
		if clean[i] != faulty[i] {
			diff++
		}
	}
	if diff != 4 {
		t.Errorf("round-9 single-byte fault changed %d ciphertext bytes, want 4", diff)
	}
}

func TestShiftRowsIndexConsistency(t *testing.T) {
	// Faulting round-10-input byte (r, c) must change exactly the
	// ciphertext byte ShiftRowsIndex(r, c).
	key := []byte("0123456789abcdef")
	rk := MustExpandKey(key)
	pt := make([]byte, 16)
	clean := Encrypt(&rk, pt, nil)
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			pos := 4*c + r
			faulty := Encrypt(&rk, pt, &Hooks{RoundIn: func(round int, s *[16]byte) {
				if round == 10 {
					s[pos] ^= 0xff
				}
			}})
			changed := -1
			count := 0
			for i := range clean {
				if clean[i] != faulty[i] {
					changed = i
					count++
				}
			}
			if count != 1 || changed != ShiftRowsIndex(r, c) {
				t.Fatalf("fault at (%d,%d): changed byte %d (count %d), want %d",
					r, c, changed, count, ShiftRowsIndex(r, c))
			}
		}
	}
}

func TestTableHookSeesFirstRoundIndices(t *testing.T) {
	key := []byte("abcdefghijklmnop")
	ta, err := NewTableAES(key)
	if err != nil {
		t.Fatal(err)
	}
	var first16 []struct {
		table int
		idx   byte
	}
	ta.Hook = func(table int, idx byte) {
		if len(first16) < 16 {
			first16 = append(first16, struct {
				table int
				idx   byte
			}{table, idx})
		}
	}
	pt := []byte("PLAINTEXTBLOCK!!")
	ta.Encrypt(pt)
	if len(first16) != 16 {
		t.Fatalf("hook calls = %d", len(first16))
	}
	// Round 1 index for state byte i is pt[i]^key[i]; check the T0
	// accesses (state bytes 0, 4, 8, 12 in our lookup order).
	for n, stateIdx := range []int{0, 4 + 1, 8 + 2, 12 + 3} {
		_ = stateIdx
		if first16[n*4].table != 0 {
			t.Fatalf("lookup %d table = %d, want T0", n*4, first16[n*4].table)
		}
	}
	if first16[0].idx != pt[0]^key[0] {
		t.Errorf("first T0 index = %#x, want pt0^k0 = %#x", first16[0].idx, pt[0]^key[0])
	}
}

// mulLanes multiplies two 16-lane vectors with the bitsliced multiply.
func mulLanes(a, b [16]byte) [16]byte {
	pa, pb := toPlanes(&a), toPlanes(&b)
	p := gfMul(&pa, &pb)
	var out [16]byte
	fromPlanes(&p, &out)
	return out
}

func TestGFMultiplication(t *testing.T) {
	var a, b [16]byte
	for i := range a {
		a[i], b[i] = 0x57, 0x83
	}
	for i, v := range mulLanes(a, b) { // FIPS-197 example
		if v != 0xc1 {
			t.Errorf("lane %d: 0x57*0x83 = %#x, want 0xc1", i, v)
		}
	}
	if Mul2(0x80) != 0x1b || Mul3(0x80) != 0x9b {
		t.Errorf("Mul2/Mul3 at 0x80: %#x %#x", Mul2(0x80), Mul3(0x80))
	}
	// Distributivity: a*(b^c) == a*b ^ a*c, lane by lane.
	f := func(a, b, c [16]byte) bool {
		var bc [16]byte
		ab, ac := mulLanes(a, b), mulLanes(a, c)
		for i := range bc {
			bc[i] = b[i] ^ c[i]
		}
		got := mulLanes(a, bc)
		for i := range got {
			if got[i] != ab[i]^ac[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
