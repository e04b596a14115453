package attest

import (
	"bytes"
	"strings"
	"sync"
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

// testQuote builds an unsigned quote for measurement m under nonce.
func testQuote(m Measurement, nonce []byte) *Quote {
	return &Quote{Report: Report{Measurement: m, Nonce: nonce}, Arch: "sgx", Config: "none", TCBVersion: 1}
}

func TestQuoteSignVerify(t *testing.T) {
	seed := DeriveKey([32]byte{7}, "test/quoting")
	qk := NewQuotingKey(seed)
	q := testQuote(Measure([]byte("enclave")), []byte("n"))
	if err := qk.Sign(q); err != nil {
		t.Fatal(err)
	}
	if !q.SignedBy(qk.Public()) {
		t.Fatal("genuine quote rejected")
	}
	// One seed, one key: a second key from the same seed signs the same
	// bytes (Ed25519 is deterministic) and exposes the seed itself.
	again := *q
	if err := NewQuotingKey(seed).Sign(&again); err != nil || !bytes.Equal(again.Signature, q.Signature) {
		t.Fatal("same seed produced a different signature")
	}
	if !bytes.Equal(qk.PrivateBytes(), seed[:]) {
		t.Fatalf("PrivateBytes = %x, want the seed %x", qk.PrivateBytes(), seed)
	}
	// The signature covers every field of the canonical body.
	for name, tamper := range map[string]func(*Quote){
		"report data": func(q *Quote) { q.AppData = []byte("evil") },
		"arch":        func(q *Quote) { q.Arch = "sanctum" },
		"config":      func(q *Quote) { q.Config = "stock" },
		"tcb":         func(q *Quote) { q.TCBVersion = 2 },
		"nonce":       func(q *Quote) { q.Nonce = []byte("m") },
	} {
		bad := *q
		tamper(&bad)
		if bad.SignedBy(qk.Public()) {
			t.Fatalf("quote with tampered %s accepted", name)
		}
	}
	sgxKey := QuotingKeyFor([32]byte{7}, "sgx")
	if want := DeriveKey([32]byte{7}, "sgx/quoting"); !bytes.Equal(sgxKey.PrivateBytes(), want[:]) {
		t.Fatal("QuotingKeyFor is not DeriveKey(fuse, arch+\"/quoting\")")
	}
	if bytes.Equal(sgxKey.PrivateBytes(), QuotingKeyFor([32]byte{7}, "sanctum").PrivateBytes()) {
		t.Fatal("two architectures share a quoting key")
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
	v := NewVerifier(Policy{Freshness: true})
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
	v := NewVerifier(Policy{Freshness: true})
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
	v.Trust("sgx", qk.Public())
	q := testQuote(good, chosen)
	if err := qk.Sign(q); err != nil {
		t.Fatal(err)
	}
	wire, _ := q.Encode()
	if vd := v.Verify(wire, nil); vd.Code != VerdictNonceUnissued {
		t.Fatalf("quote under a self-chosen nonce: %+v", vd)
	}
	// Registering the nonce makes it the verifier's own: it passes once,
	// and a second use is a replay.
	v.Register(chosen)
	if vd := v.Verify(wire, nil); !vd.OK {
		t.Fatalf("quote under a registered nonce: %+v", vd)
	}
	if vd := v.Verify(wire, nil); vd.Code != VerdictNonceReplayed {
		t.Fatalf("second use of a nonce: %+v", vd)
	}
}

func TestVerifierQuotePath(t *testing.T) {
	qk := NewQuotingKey([32]byte{1})
	v := NewVerifier(Policy{Freshness: true})
	v.Trust("sgx", qk.Public())
	m := Measure([]byte("enclave X"))
	v.AllowMeasurement("x", m)
	nonce, _ := v.Challenge()
	q := testQuote(m, nonce)
	if err := qk.Sign(q); err != nil {
		t.Fatal(err)
	}
	if err := v.CheckQuote(q); err != nil {
		t.Fatalf("quote rejected: %v", err)
	}
	// A different key cannot impersonate the platform.
	qk2 := NewQuotingKey([32]byte{2})
	nonce2, _ := v.Challenge()
	forged := testQuote(m, nonce2)
	if err := qk2.Sign(forged); err != nil {
		t.Fatal(err)
	}
	if err := v.CheckQuote(forged); err == nil || err.Error() != "attest: quote signature invalid" {
		t.Fatalf("forged quote: %v", err)
	}
}

// TestVerifyRejectionPaths walks every typed verdict of the wire pipeline
// under a policy-enforcing verifier with freshness off, where a verdict
// is a pure function of (quote, challenge, policy).
func TestVerifyRejectionPaths(t *testing.T) {
	qk := QuotingKeyFor([32]byte{3}, "sgx")
	good := Measure([]byte("canonical"))
	v := NewVerifier(Policy{Accepted: map[Measurement]string{good: "sgx/none@1"}, MinTCB: map[string]uint32{"sgx": 1}, EnforceTCB: true})
	v.Trust("sgx", qk.Public())
	nonce := []byte("n1")
	sign := func(q *Quote) []byte {
		t.Helper()
		if err := qk.Sign(q); err != nil {
			t.Fatal(err)
		}
		w, err := q.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	wire := sign(testQuote(good, nonce))
	for i := 0; i < 2; i++ {
		if vd := v.Verify(wire, nonce); !vd.OK || vd.Code != VerdictAccepted || vd.MinTCB != 1 {
			t.Fatalf("clean verify %d: %+v", i, vd)
		}
	}
	if vd := v.Verify(wire, []byte("different")); vd.Code != VerdictNonceMismatch {
		t.Fatalf("challenge binding: %+v", vd)
	}
	if vd := v.Verify(wire[:len(wire)-3], nonce); vd.Code != VerdictBadEncoding {
		t.Fatalf("truncated quote: %+v", vd)
	}
	bad := append([]byte(nil), wire...)
	bad[len(bad)-1] ^= 0xff
	if vd := v.Verify(bad, nonce); vd.Code != VerdictBadSignature {
		t.Fatalf("tampered signature: %+v", vd)
	}
	if vd := v.Verify(sign(testQuote(Measure([]byte("other")), nonce)), nonce); vd.Code != VerdictUnknownMeasurement {
		t.Fatalf("unlisted measurement: %+v", vd)
	}
	foreign := testQuote(good, nonce)
	foreign.Arch = "sanctum"
	if vd := v.Verify(sign(foreign), nonce); vd.Code != VerdictUnknownArch {
		t.Fatalf("untrusted arch: %+v", vd)
	}
	p := v.Policy()
	p.MinTCB = map[string]uint32{"sgx": 2}
	v.SetPolicy(p)
	if vd := v.Verify(wire, nonce); vd.Code != VerdictTCBRevoked || vd.MinTCB != 2 {
		t.Fatalf("revoked TCB: %+v", vd)
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

// TestQuoteCodecStrict pins the wire format: a signed quote round-trips
// byte for byte, the body is the wire minus the 64 trailing signature
// bytes, and out-of-bound fields neither encode, sign nor decode.
func TestQuoteCodecStrict(t *testing.T) {
	qk := QuotingKeyFor([32]byte{5}, "sgx")
	q := testQuote(Measure([]byte("codec")), []byte("nonce"))
	q.AppData = []byte("report data")
	if err := qk.Sign(q); err != nil {
		t.Fatal(err)
	}
	wire, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	body, _ := q.encode(false)
	if !bytes.Equal(wire[:len(wire)-signatureSize], body) || !bytes.HasPrefix(wire, []byte(quoteMagic)) {
		t.Fatal("wire is not magic ‖ body ‖ signature")
	}
	dec, err := DecodeQuote(wire)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := dec.Encode(); !bytes.Equal(again, wire) || !dec.SignedBy(qk.Public()) {
		t.Fatal("decoded quote does not round-trip or verify")
	}
	for name, bad := range map[string]func(*Quote){
		"empty arch":  func(q *Quote) { q.Arch = "" },
		"long arch":   func(q *Quote) { q.Arch = strings.Repeat("a", maxArchLen+1) },
		"long config": func(q *Quote) { q.Config = strings.Repeat("c", maxConfigLen+1) },
		"long nonce":  func(q *Quote) { q.Nonce = make([]byte, maxNonceLen+1) },
		"long data":   func(q *Quote) { q.AppData = make([]byte, maxReportData+1) },
	} {
		b := *dec
		bad(&b)
		if _, err := b.Encode(); err == nil {
			t.Errorf("%s: encoded", name)
		}
		if err := qk.Sign(&b); err == nil {
			t.Errorf("%s: signed", name)
		}
	}
	// A report-data length past the bound is rejected on decode too.
	over := append([]byte(nil), wire...)
	off := len(body) - len(q.AppData) - 2
	over[off], over[off+1] = 0xff, 0xff
	if _, err := DecodeQuote(over); err == nil {
		t.Fatal("over-long report data decoded")
	}
	short := *dec
	short.Signature = short.Signature[:10]
	if _, err := short.Encode(); err == nil || short.SignedBy(qk.Public()) {
		t.Fatal("short signature encoded or verified")
	}
}

// TestImageSignature pins secure boot's signature check: the vendor's
// signature over an image verifies for that image and arch only.
func TestImageSignature(t *testing.T) {
	vendor := NewQuotingKey([32]byte{8})
	img := []byte("secure-world image")
	sig := vendor.SignImage("trustzone", img)
	if !ImageSignedBy(vendor.Public(), "trustzone", img, sig) {
		t.Fatal("genuine image signature rejected")
	}
	if ImageSignedBy(vendor.Public(), "tytan", img, sig) {
		t.Fatal("signature accepted for another arch")
	}
	if ImageSignedBy(vendor.Public(), "trustzone", []byte("patched image"), sig) {
		t.Fatal("signature accepted for another image")
	}
	if ImageSignedBy(NewQuotingKey([32]byte{9}).Public(), "trustzone", img, sig) {
		t.Fatal("signature accepted under another vendor key")
	}
	if vendor.SignImage(strings.Repeat("x", maxArchLen+1), img) != nil {
		t.Fatal("over-long arch signed")
	}
}

// TestVerifierConcurrentFreshness presents one registered quote from many
// goroutines while the policy is swapped: the nonce is accepted exactly
// once, every other presentation is a replay.
func TestVerifierConcurrentFreshness(t *testing.T) {
	qk := QuotingKeyFor([32]byte{4}, "sgx")
	m := Measure([]byte("shared"))
	p := Policy{Accepted: map[Measurement]string{m: "x"}, Freshness: true}
	v := NewVerifier(p)
	v.Trust("sgx", qk.Public())
	v.Register([]byte("once"))
	q := testQuote(m, []byte("once"))
	if err := qk.Sign(q); err != nil {
		t.Fatal(err)
	}
	wire, _ := q.Encode()
	const n = 16
	codes := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v.SetPolicy(p)
			codes[i] = v.Verify(wire, nil).Code
		}(i)
	}
	wg.Wait()
	accepted := 0
	for _, c := range codes {
		switch c {
		case VerdictAccepted:
			accepted++
		case VerdictNonceReplayed:
		default:
			t.Fatalf("unexpected verdict %s", c)
		}
	}
	if accepted != 1 {
		t.Fatalf("nonce accepted %d times, want once", accepted)
	}
}
