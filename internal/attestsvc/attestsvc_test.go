package attestsvc

import (
	"bytes"
	"strings"
	"testing"

	"github.com/intrust-sim/intrust/internal/attest"
	"github.com/intrust-sim/intrust/internal/platform"
)

func testService(t *testing.T) *Service {
	t.Helper()
	return NewService(platform.FuseFromSeed(1))
}

func TestImageDeterminismAndIdentity(t *testing.T) {
	a, err := BuildImage("sgx", ConfigNone, TCBBaseline)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildImage("sgx", ConfigNone, TCBBaseline)
	if err != nil {
		t.Fatal(err)
	}
	if a.Measurement() != b.Measurement() {
		t.Fatal("same (arch, config, tcb) must measure identically")
	}
	// Identity must separate on every header axis and on page content.
	variants := []*Image{}
	for _, mk := range []func() (*Image, error){
		func() (*Image, error) { return BuildImage("sanctum", ConfigNone, TCBBaseline) },
		func() (*Image, error) { return BuildImage("sgx", ConfigStock, TCBBaseline) },
		func() (*Image, error) { return BuildImage("sgx", ConfigNone, TCBStock) },
	} {
		v, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		variants = append(variants, v)
	}
	seen := map[string]bool{a.Measurement().Hex(): true}
	for _, v := range variants {
		h := v.Measurement().Hex()
		if seen[h] {
			t.Fatalf("measurement collision for %s/%s@%d", v.Arch, v.Config, v.TCBVersion)
		}
		seen[h] = true
	}
	// Tampering with one byte of one page changes the measurement.
	tampered, _ := BuildImage("sgx", ConfigNone, TCBBaseline)
	tampered.Pages[1][17] ^= 0x80
	if tampered.Measurement() == a.Measurement() {
		t.Fatal("page tampering must change the measurement")
	}
	if _, err := BuildImage("riscv-unknown", ConfigNone, TCBBaseline); err == nil {
		t.Fatal("unknown architecture must not build an image")
	}
}

func TestQuoteRoundTripAndDeterminism(t *testing.T) {
	s := testService(t)
	nonce := []byte("nonce-000000001")
	q1, err := s.Quote("sanctum", ConfigStock, TCBStock, nonce, []byte("report data"))
	if err != nil {
		t.Fatal(err)
	}
	q2, err := s.Quote("sanctum", ConfigStock, TCBStock, nonce, []byte("report data"))
	if err != nil {
		t.Fatal(err)
	}
	w1, err := q1.Encode()
	if err != nil {
		t.Fatal(err)
	}
	w2, _ := q2.Encode()
	if !bytes.Equal(w1, w2) {
		t.Fatal("quotes must be byte-identical on replay (deterministic ed25519)")
	}
	dec, err := attest.DecodeQuote(w1)
	if err != nil {
		t.Fatalf("canonical quote failed to decode: %v", err)
	}
	if dec.Arch != "sanctum" || dec.Config != ConfigStock || dec.TCBVersion != TCBStock ||
		!bytes.Equal(dec.Nonce, nonce) || dec.Measurement != q1.Measurement {
		t.Fatalf("decode round-trip mismatch: %+v", dec)
	}
	// A different fuse must produce a different signature.
	other := NewService(platform.FuseFromSeed(2))
	q3, _ := other.Quote("sanctum", ConfigStock, TCBStock, nonce, []byte("report data"))
	if bytes.Equal(q1.Signature, q3.Signature) {
		t.Fatal("different fuses must derive different quoting keys")
	}
	if s.Verify(w1, nonce).OK != true {
		t.Fatal("own quote must verify")
	}
	w3, _ := q3.Encode()
	if vd := s.Verify(w3, nonce); vd.OK || vd.Code != attest.VerdictBadSignature {
		t.Fatalf("foreign-fuse quote must fail signature check, got %+v", vd)
	}
	// The service signs with the fuse's per-arch quoting key, the key a
	// TEE model on the same fuse holds.
	if !q1.SignedBy(attest.QuotingKeyFor(platform.FuseFromSeed(1), "sanctum").Public()) {
		t.Fatal("service quote not signed by QuotingKeyFor(fuse, arch)")
	}
}

func TestVerifyRejectionPaths(t *testing.T) {
	s := testService(t)
	nonce := []byte("n1")
	q, err := s.Quote("sgx", ConfigNone, TCBBaseline, nonce, nil)
	if err != nil {
		t.Fatal(err)
	}
	wire, _ := q.Encode()

	if vd := s.Verify(wire, nonce); !vd.OK || vd.Code != attest.VerdictAccepted {
		t.Fatalf("clean verify: %+v", vd)
	}
	if vd := s.Verify(wire, []byte("different")); vd.OK || vd.Code != attest.VerdictNonceMismatch {
		t.Fatalf("challenge binding: %+v", vd)
	}
	if vd := s.Verify(wire[:len(wire)-3], nonce); vd.OK || vd.Code != attest.VerdictBadEncoding {
		t.Fatalf("truncated quote: %+v", vd)
	}
	// Flip a signature byte: decodes (layout intact) but fails the check.
	bad := append([]byte(nil), wire...)
	bad[len(bad)-1] ^= 0xff
	if vd := s.Verify(bad, nonce); vd.OK || vd.Code != attest.VerdictBadSignature {
		t.Fatalf("tampered signature: %+v", vd)
	}
	// A correctly signed quote over a non-canonical measurement must be
	// rejected by the allow-list, not the signature check.
	im, _ := BuildImage("sgx", ConfigNone, TCBBaseline)
	im.Pages[0][0] ^= 1
	qBad := im.Quote(nonce, nil)
	if err := s.keys["sgx"].Sign(qBad); err != nil {
		t.Fatal(err)
	}
	wBad, _ := qBad.Encode()
	if vd := s.Verify(wBad, nonce); vd.OK || vd.Code != attest.VerdictUnknownMeasurement {
		t.Fatalf("tampered image: %+v", vd)
	}
}

func TestSweepDrivenRevocation(t *testing.T) {
	s := testService(t)
	nonce := []byte("n-rev")
	stale, _ := s.Quote("trustzone", ConfigNone, TCBBaseline, nonce, nil)
	staleWire, _ := stale.Encode()
	stock, _ := s.Quote("trustzone", ConfigStock, TCBStock, nonce, nil)
	stockWire, _ := stock.Encode()

	if vd := s.Verify(staleWire, nonce); !vd.OK {
		t.Fatalf("baseline quote must verify before revocation: %+v", vd)
	}

	// One broken none-defense cell for trustzone revokes its baseline TCB.
	rev := Revoke([]Cell{
		{Scenario: "prime+probe", Arch: "trustzone", Defense: ConfigNone, Class: ClassBroken},
		{Scenario: "prime+probe", Arch: "trustzone", Defense: "cache-coloring", Class: ClassBroken}, // defended cell: ignored
		{Scenario: "dfa", Arch: "sgx", Defense: ConfigNone, Class: "mitigated"},                     // not broken: ignored
	})
	if !rev.Revoked("trustzone") || rev.Revoked("sgx") {
		t.Fatalf("revocation scope wrong: %+v", rev.Statuses())
	}
	if got := rev.BrokenScenarios("trustzone"); len(got) != 1 || got[0] != "prime+probe" {
		t.Fatalf("broken evidence: %v", got)
	}
	s.SetRevocations(rev)

	if vd := s.Verify(staleWire, nonce); vd.OK || vd.Code != attest.VerdictTCBRevoked {
		t.Fatalf("stale-TCB quote must be rejected after revocation: %+v", vd)
	}
	if vd := s.Verify(stockWire, nonce); !vd.OK {
		t.Fatalf("stock-claiming quote must be accepted after revocation: %+v", vd)
	}

	// Fingerprints separate distinct revocation states and agree on equal ones.
	if rev.Fingerprint() == Revoke(nil).Fingerprint() {
		t.Fatal("fingerprint must change when revocation state changes")
	}
	again := Revoke([]Cell{{Scenario: "prime+probe", Arch: "trustzone", Defense: ConfigNone, Class: ClassBroken}})
	if rev.Fingerprint() != again.Fingerprint() {
		t.Fatal("equal revocation states must fingerprint identically")
	}
	if n := len(s.Revocations().Statuses()); n != len(platform.Architectures) {
		t.Fatalf("TCB table rows = %d", n)
	}
}

func TestFreshnessVerifier(t *testing.T) {
	fuse := platform.FuseFromSeed(3)
	qk := attest.QuotingKeyFor(fuse, "sancus")
	p := CanonicalPolicy(nil)
	p.Freshness = true
	v := attest.NewVerifier(p)
	v.Trust("sancus", qk.Public())
	v.Register([]byte("one-shot"))
	im, _ := BuildImage("sancus", ConfigNone, TCBBaseline)
	q := im.Quote([]byte("one-shot"), nil)
	if err := qk.Sign(q); err != nil {
		t.Fatal(err)
	}
	wire, _ := q.Encode()
	if vd := v.Verify(wire, []byte("one-shot")); !vd.OK {
		t.Fatalf("first presentation: %+v", vd)
	}
	if vd := v.Verify(wire, []byte("one-shot")); vd.OK || vd.Code != attest.VerdictNonceReplayed {
		t.Fatalf("replayed presentation: %+v", vd)
	}
}

func TestPolicyDumpDeterministic(t *testing.T) {
	p := CanonicalPolicy(nil)
	if len(p.Accepted) != 2*len(platform.Architectures) {
		t.Fatalf("allow-list size = %d", len(p.Accepted))
	}
	a := p.AcceptedList()
	b := p.AcceptedList()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("AcceptedList must be deterministic")
		}
	}
	if !strings.Contains(a[0].Identity, "/") {
		t.Fatalf("identity label shape: %q", a[0].Identity)
	}
	// The allow-list is computed once and handed out as a copy.
	p.Accepted[attest.Measurement{}] = "scribble"
	if len(CanonicalPolicy(nil).Accepted) != 2*len(platform.Architectures) {
		t.Fatal("CanonicalPolicy shares its allow-list with callers")
	}
}
