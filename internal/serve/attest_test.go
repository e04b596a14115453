package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/url"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/intrust-sim/intrust/internal/attest"
	"github.com/intrust-sim/intrust/internal/attestsvc"
	"github.com/intrust-sim/intrust/internal/core"
)

// newAttestServer builds a server whose revocation grid is one cell:
// flush+reload on undefended SGX, a broken cell, so exactly one
// architecture revokes.
func newAttestServer(opts Options) *Server {
	s := newTestServer(opts)
	s.attest = newAttestState(s.opts.Seed, []string{"sgx"}, []string{"flush+reload"})
	return s
}

func quoteFrom(t *testing.T, s *Server, target string) attestQuoteBody {
	t.Helper()
	rec := get(t, s, target)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s = %d %s", target, rec.Code, rec.Body.String())
	}
	var q attestQuoteBody
	if err := json.Unmarshal(rec.Body.Bytes(), &q); err != nil {
		t.Fatalf("%s: %v", target, err)
	}
	return q
}

func verifyQuote(t *testing.T, s *Server, wire, nonce string) attestVerifyBody {
	t.Helper()
	target := "/attest/verify?quote=" + url.QueryEscape(wire)
	if nonce != "" {
		target += "&nonce=" + nonce
	}
	rec := get(t, s, target)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s = %d %s", target, rec.Code, rec.Body.String())
	}
	var v attestVerifyBody
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestAttestRevocationFlipsVerify is the issue's end-to-end acceptance
// path: a grid with a broken none-defense cell for SGX flips
// /attest/verify for SGX's stale-TCB quote from accept (policy-free
// service) to reject, while a quote claiming the stock defense is
// accepted again — and an unrevoked architecture is untouched.
func TestAttestRevocationFlipsVerify(t *testing.T) {
	s := newAttestServer(Options{})

	// Before the grid feeds the policy, the baseline quote verifies
	// (checked directly against the service, pre-revocation).
	staleQ := quoteFrom(t, s, "/attest/quote?arch=sgx&config=none&nonce=0a0b")
	wire, err := quoteWire.DecodeString(staleQ.Quote)
	if err != nil {
		t.Fatal(err)
	}
	if vd := s.attest.svc.Verify(wire, nil); !vd.OK {
		t.Fatalf("pre-revocation baseline verify: %+v", vd)
	}

	// /attest/verify computes the revocation grid, then rejects.
	vd := verifyQuote(t, s, staleQ.Quote, "0a0b")
	if vd.OK || vd.Code != attest.VerdictTCBRevoked {
		t.Fatalf("stale-TCB quote after broken sweep cell = %+v, want tcb-revoked", vd)
	}
	if vd.MinTCB != attestsvc.TCBStock {
		t.Fatalf("MinTCB = %d, want %d", vd.MinTCB, attestsvc.TCBStock)
	}

	// A quote claiming the stock defense configuration is accepted again.
	stockQ := quoteFrom(t, s, "/attest/quote?arch=sgx&config=stock")
	if vd := verifyQuote(t, s, stockQ.Quote, ""); !vd.OK {
		t.Fatalf("stock-claiming quote rejected: %+v", vd)
	}

	// The one-cell grid revoked only SGX: sanctum's baseline still flies.
	sancQ := quoteFrom(t, s, "/attest/quote?arch=sanctum&config=none")
	if vd := verifyQuote(t, s, sancQ.Quote, ""); !vd.OK {
		t.Fatalf("unrevoked arch rejected: %+v", vd)
	}

	// /attest/tcb agrees and names the evidence.
	rec := get(t, s, "/attest/tcb")
	var tcb attestTCBBody
	if err := json.Unmarshal(rec.Body.Bytes(), &tcb); err != nil {
		t.Fatal(err)
	}
	if tcb.GridCells != 1 {
		t.Fatalf("grid cells = %d", tcb.GridCells)
	}
	for _, st := range tcb.Statuses {
		wantRevoked := st.Arch == "sgx"
		if st.Revoked != wantRevoked {
			t.Fatalf("tcb status %+v", st)
		}
		if st.Arch == "sgx" && (len(st.BrokenScenarios) != 1 || st.BrokenScenarios[0] != "flush+reload") {
			t.Fatalf("sgx evidence = %v", st.BrokenScenarios)
		}
	}

	// The serve-derived state matches an independent engine computation
	// at a different parallelism — the determinism the revocation
	// feedback loop stands on.
	rev, err := core.ComputeRevocations(context.Background(),
		[]string{"sgx"}, []string{"flush+reload"}, core.CellOptions{Samples: 64}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if rev.Fingerprint() != tcb.RevocationFP {
		t.Fatalf("revocation fingerprint drifted: engine %s vs serve %s", rev.Fingerprint(), tcb.RevocationFP)
	}
}

// TestAttestByteIdenticalReplay pins the cache soundness of the attest
// endpoints: quote and verify bodies are byte-identical cold vs warm,
// with the X-Cache disposition flipping miss -> hit.
func TestAttestByteIdenticalReplay(t *testing.T) {
	s := newAttestServer(Options{})
	target := "/attest/quote?arch=trustzone&config=none&nonce=beef"
	cold := get(t, s, target)
	warm := get(t, s, target)
	if cold.Header().Get("X-Cache") != "miss" || warm.Header().Get("X-Cache") != "hit" {
		t.Fatalf("quote dispositions = %q, %q", cold.Header().Get("X-Cache"), warm.Header().Get("X-Cache"))
	}
	if !bytes.Equal(cold.Body.Bytes(), warm.Body.Bytes()) {
		t.Fatal("warm quote body differs from cold")
	}

	var q attestQuoteBody
	json.Unmarshal(cold.Body.Bytes(), &q)
	vt := "/attest/verify?quote=" + url.QueryEscape(q.Quote) + "&nonce=beef"
	vcold := get(t, s, vt)
	vwarm := get(t, s, vt)
	if vcold.Header().Get("X-Cache") != "miss" || vwarm.Header().Get("X-Cache") != "hit" {
		t.Fatalf("verify dispositions = %q, %q", vcold.Header().Get("X-Cache"), vwarm.Header().Get("X-Cache"))
	}
	if !bytes.Equal(vcold.Body.Bytes(), vwarm.Body.Bytes()) {
		t.Fatal("warm verify body differs from cold")
	}
}

// TestAttestVerifyRejectsGarbage pins the error surface: malformed
// base64 and malformed wire bytes are client errors or clean rejections,
// never 500s.
func TestAttestVerifyRejectsGarbage(t *testing.T) {
	s := newAttestServer(Options{})
	if rec := get(t, s, "/attest/verify?quote=%2Bnot-base64%2B"); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad base64 = %d", rec.Code)
	}
	if rec := get(t, s, "/attest/verify"); rec.Code != http.StatusBadRequest {
		t.Fatalf("missing quote = %d", rec.Code)
	}
	// Valid base64, garbage wire: 200 with a bad-encoding verdict.
	vd := verifyQuote(t, s, quoteWire.EncodeToString([]byte("junk")), "")
	if vd.OK || vd.Code != attest.VerdictBadEncoding {
		t.Fatalf("garbage wire = %+v", vd)
	}
	if rec := get(t, s, "/attest/quote?arch=nope"); rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown arch quote = %d", rec.Code)
	}
	if rec := get(t, s, "/attest/quote?arch=sgx&config=weird"); rec.Code != http.StatusBadRequest {
		t.Fatalf("non-canonical config = %d", rec.Code)
	}
}

// TestAttestMetricsMove pins the attestation counters into the /metrics
// exposition.
func TestAttestMetricsMove(t *testing.T) {
	s := newAttestServer(Options{})
	q := quoteFrom(t, s, "/attest/quote?arch=sgx&config=none")
	verifyQuote(t, s, q.Quote, "") // rejected: revoked
	stock := quoteFrom(t, s, "/attest/quote?arch=sgx&config=stock")
	verifyQuote(t, s, stock.Quote, "") // accepted
	body := get(t, s, "/metrics").Body.String()
	for _, want := range []string{
		"intrust_attest_quotes_total 2",
		`intrust_attest_verifies_total{result="accepted"} 1`,
		`intrust_attest_verifies_total{result="rejected"} 1`,
		"intrust_attest_revoked_archs 1",
	} {
		if !bytes.Contains([]byte(body), []byte(want)) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestRevocationGridComputesInParallel pins that the revocation grid's
// cold cells compute concurrently (fetchCells' worker pool), not one
// after another: under GOMAXPROCS(2) two cold computes must overlap.
// Each stalled compute waits up to ~2s for a partner, so a serial walk
// fails with a peak of 1 instead of hanging.
func TestRevocationGridComputesInParallel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	s := newTestServer(Options{})
	s.attest = newAttestState(s.opts.Seed, []string{"sgx"}, []string{"flush+reload", "prime+probe"})

	var mu sync.Mutex
	active, peak := 0, 0
	testComputeStall = func(core.CellKey) {
		mu.Lock()
		active++
		if active > peak {
			peak = active
		}
		mu.Unlock()
		for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			mu.Lock()
			p := peak
			mu.Unlock()
			if p >= 2 {
				break
			}
		}
		mu.Lock()
		active--
		mu.Unlock()
	}
	defer func() { testComputeStall = nil }()

	if rec := get(t, s, "/attest/tcb"); rec.Code != http.StatusOK {
		t.Fatalf("/attest/tcb = %d %s", rec.Code, rec.Body.String())
	}
	mu.Lock()
	defer mu.Unlock()
	if peak < 2 {
		t.Fatalf("peak concurrent revocation computes = %d, want >= 2", peak)
	}
}
