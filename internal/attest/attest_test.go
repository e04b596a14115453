package attest

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestMeasureAndExtend(t *testing.T) {
	m1 := Measure([]byte("code A"))
	m2 := Measure([]byte("code A"))
	if m1 != m2 {
		t.Fatal("measurement not deterministic")
	}
	if m1 == Measure([]byte("code B")) {
		t.Fatal("distinct code measured equal")
	}
	// Extension order matters.
	a := Measure([]byte("stage1")).Extend([]byte("stage2"))
	b := Measure([]byte("stage2")).Extend([]byte("stage1"))
	if a == b {
		t.Fatal("extension order invisible")
	}
}

func TestReportMACRoundTrip(t *testing.T) {
	key := []byte("device-secret-key")
	m := Measure([]byte("firmware"))
	r := NewReport(key, m, []byte("nonce1"), []byte("app"))
	if !VerifyReport(key, r) {
		t.Fatal("genuine report rejected")
	}
	if VerifyReport([]byte("wrong-key"), r) {
		t.Fatal("wrong key accepted")
	}
	// Any field tamper breaks the MAC.
	r2 := *r
	r2.AppData = []byte("apP")
	if VerifyReport(key, &r2) {
		t.Fatal("tampered app data accepted")
	}
	r3 := *r
	r3.Measurement[0] ^= 1
	if VerifyReport(key, &r3) {
		t.Fatal("tampered measurement accepted")
	}
}

func TestReportMACQuick(t *testing.T) {
	key := []byte("k")
	f := func(code, nonce, app []byte) bool {
		r := NewReport(key, Measure(code), nonce, app)
		return VerifyReport(key, r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuoteSignVerify(t *testing.T) {
	seed := DeriveKey([32]byte{7}, "test/quoting")
	qk := NewQuotingKey(seed)
	m := Measure([]byte("enclave"))
	r := NewReport([]byte("local"), m, []byte("n"), nil)
	q := qk.Sign(r)
	if !VerifyQuote(qk.Public(), q) {
		t.Fatal("genuine quote rejected")
	}
	// One seed, one key: a second key from the same seed signs the same
	// bytes (Ed25519 is deterministic) and exposes the seed itself.
	if again := NewQuotingKey(seed).Sign(r); !bytes.Equal(again.Signature, q.Signature) {
		t.Fatal("same seed produced a different signature")
	}
	if !bytes.Equal(qk.PrivateBytes(), seed[:]) {
		t.Fatalf("PrivateBytes = %x, want the seed %x", qk.PrivateBytes(), seed)
	}
	q.Report.AppData = []byte("evil")
	if VerifyQuote(qk.Public(), q) {
		t.Fatal("tampered quote accepted")
	}
}

func TestDeriveKey(t *testing.T) {
	root := [32]byte{1, 2, 3}
	k := DeriveKey(root, "sgx/mee")
	if k != DeriveKey(root, "sgx/mee") {
		t.Fatal("derivation not deterministic")
	}
	for _, other := range [][32]byte{DeriveKey(root, "sgx/platform"), DeriveKey([32]byte{1, 2, 4}, "sgx/mee")} {
		if k == other {
			t.Fatal("distinct label or root derived the same key")
		}
	}
	if k == ([32]byte{}) {
		t.Fatal("derived key is zero")
	}
}

func TestVerifierFlow(t *testing.T) {
	key := []byte("shared")
	v := NewVerifier()
	good := Measure([]byte("good code"))
	v.AllowMeasurement("app", good)

	nonce, err := v.Challenge()
	if err != nil {
		t.Fatal(err)
	}
	r := NewReport(key, good, nonce, nil)
	if err := v.CheckReport(key, r); err != nil {
		t.Fatalf("genuine report rejected: %v", err)
	}
	// Replay: same nonce again.
	if err := v.CheckReport(key, r); err == nil {
		t.Fatal("replayed report accepted")
	}
	// Unknown measurement.
	nonce2, _ := v.Challenge()
	bad := NewReport(key, Measure([]byte("malware")), nonce2, nil)
	if err := v.CheckReport(key, bad); err == nil {
		t.Fatal("unknown measurement accepted")
	}
	// A rejected report leaves its nonce pending for a genuine one.
	if err := v.CheckReport(key, NewReport(key, good, nonce2, nil)); err != nil {
		t.Fatalf("genuine report under a pending nonce rejected: %v", err)
	}
}

// TestVerifierRejectsUnissuedNonce pins nonce freshness: a correctly
// MACed report with an allowed measurement is still rejected when its
// nonce was chosen by the prover (precomputed) rather than issued by this
// verifier's Challenge.
func TestVerifierRejectsUnissuedNonce(t *testing.T) {
	key := []byte("shared")
	v := NewVerifier()
	good := Measure([]byte("good code"))
	v.AllowMeasurement("app", good)
	if _, err := v.Challenge(); err != nil {
		t.Fatal(err)
	}
	chosen := []byte("attacker-chosen!")
	r := NewReport(key, good, chosen, nil)
	err := v.CheckReport(key, r)
	if err == nil {
		t.Fatal("report under a self-chosen nonce accepted")
	}
	if !strings.Contains(err.Error(), "nonce") {
		t.Fatalf("rejected for %v, want the nonce check", err)
	}
	qk := NewQuotingKey([32]byte{9})
	if err := v.CheckQuote(qk.Public(), qk.Sign(r)); err == nil {
		t.Fatal("quote under a self-chosen nonce accepted")
	}
}

func TestVerifierQuotePath(t *testing.T) {
	qk := NewQuotingKey([32]byte{1})
	v := NewVerifier()
	m := Measure([]byte("enclave X"))
	v.AllowMeasurement("x", m)
	nonce, _ := v.Challenge()
	q := qk.Sign(NewReport(nil, m, nonce, nil))
	if err := v.CheckQuote(qk.Public(), q); err != nil {
		t.Fatalf("quote rejected: %v", err)
	}
	// A different key cannot impersonate the platform.
	qk2 := NewQuotingKey([32]byte{2})
	nonce2, _ := v.Challenge()
	forged := qk2.Sign(NewReport(nil, m, nonce2, nil))
	if err := v.CheckQuote(qk.Public(), forged); err == nil {
		t.Fatal("forged quote accepted")
	}
}

func TestSealUnseal(t *testing.T) {
	secret := []byte("platform fuse key")
	m := Measure([]byte("enclave"))
	data := []byte("monotonic counter = 7")
	blob, err := Seal(secret, m, data)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(blob, data) {
		t.Fatal("sealed blob contains plaintext")
	}
	out, err := Unseal(secret, m, blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatalf("unsealed = %q", out)
	}
	// Different code identity cannot unseal.
	if _, err := Unseal(secret, Measure([]byte("other enclave")), blob); err == nil {
		t.Fatal("foreign measurement unsealed the blob")
	}
	// Tampered blob rejected.
	blob[len(blob)-1] ^= 1
	if _, err := Unseal(secret, m, blob); err == nil {
		t.Fatal("tampered blob unsealed")
	}
	// Truncated blob rejected.
	if _, err := Unseal(secret, m, blob[:4]); err == nil {
		t.Fatal("truncated blob unsealed")
	}
}

func TestSealKeyBinding(t *testing.T) {
	s := []byte("secret")
	k1 := SealKey(s, Measure([]byte("a")))
	k2 := SealKey(s, Measure([]byte("b")))
	k3 := SealKey([]byte("other"), Measure([]byte("a")))
	if bytes.Equal(k1, k2) || bytes.Equal(k1, k3) {
		t.Fatal("seal keys not identity/platform bound")
	}
}
