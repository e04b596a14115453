package serve

import (
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"

	"github.com/intrust-sim/intrust/internal/attest"
	"github.com/intrust-sim/intrust/internal/attestsvc"
	"github.com/intrust-sim/intrust/internal/core"
	"github.com/intrust-sim/intrust/internal/platform"
)

// The attestation endpoints make the serve tier a quote/verify service
// riding the existing machinery: quote bodies and verify verdicts are
// pure functions of their inputs (deterministic Ed25519 signing, and a
// verifier that is stateless with respect to nonces), so both cache in
// the same content-addressed LRU as grid cells; the revocation grid the
// verify policy derives from computes through fetchCells, so its cells
// are shared with /cell and /sweep traffic and ride admission when cold.

// attestState is the server's attestation lifecycle state: the service
// (one fuse's quoting keys + policy) and the lazily computed sweep-driven
// revocation grid behind it.
type attestState struct {
	svc    *attestsvc.Service
	keys   []core.CellKey
	keyErr error
	fp     atomic.Pointer[string] // set once the grid is folded into the policy
}

// revocationSamples is the fixed per-cell budget of the revocation
// grid: fixed rather than adaptive so the derived TCB state never
// depends on an adaptive policy default.
const revocationSamples = 64

// newAttestState roots the quoting keys in the fuse seed names
// (platform.FuseFromSeed) and selects the none-defense grid slice
// revocation derives from (New selects the full grid: "all" architectures
// and attacks). The slice computes lazily on
// the first /attest/verify or /attest/tcb request, through the same
// content-addressed cell cache as any /cell request, so a warm grid
// revokes in microseconds.
func newAttestState(seed int64, archs, attacks []string) *attestState {
	st := &attestState{svc: attestsvc.NewService(platform.FuseFromSeed(seed))}
	st.keys, st.keyErr = core.RevocationCellKeys(archs, attacks, core.CellOptions{Samples: revocationSamples, Seed: seed})
	return st
}

// revocationReady reports whether the revocation grid has been folded
// into the service's policy (and its fingerprint when it has).
func (a *attestState) revocationReady() (string, bool) {
	if fp := a.fp.Load(); fp != nil {
		return *fp, true
	}
	return "", false
}

// revocations returns the revocation fingerprint /attest/verify and
// /attest/tcb decide under. On first use it fetches the revocation grid
// through fetchCells — under the request's compute deadline and, when
// any grid cell is cold, one admission slot — and folds it into the
// policy; concurrent first uses collapse into one flight. On failure it
// has written the error response and reports false.
func (s *Server) revocations(w http.ResponseWriter, r *http.Request) (string, bool) {
	a := s.attest
	if fp, ok := a.revocationReady(); ok {
		return fp, true
	}
	ctx, cancel := s.computeCtx(r)
	defer cancel()
	release, err := s.admitCold(ctx, a.keys)
	if err != nil {
		s.writeAdmissionError(w, err)
		return "", false
	}
	defer release()
	if err = a.keyErr; err == nil {
		_, err, _ = s.flight.do("attest|revocations", func() ([]byte, error) {
			if _, ok := a.revocationReady(); ok {
				return nil, nil
			}
			cells := make([]attestsvc.Cell, len(a.keys))
			err := s.fetchCells(ctx, a.keys, func(i int, body []byte, _ tier) error {
				var c Cell
				if err := json.Unmarshal(body, &c); err != nil {
					return fmt.Errorf("revocation cell %s: %w", a.keys[i].Encode(), err)
				}
				cells[i] = attestsvc.Cell{Scenario: c.Scenario, Arch: c.Arch, Defense: c.Defense, Class: c.Class}
				return nil
			})
			if err != nil {
				return nil, err
			}
			rev := attestsvc.Revoke(cells)
			a.svc.SetRevocations(rev)
			revoked := 0
			for _, st := range rev.Statuses() {
				if st.Revoked {
					revoked++
				}
			}
			s.met.attestRevoked.Store(int64(revoked))
			fp := rev.Fingerprint()
			a.fp.Store(&fp)
			return nil, nil
		})
	}
	if err != nil {
		s.writeComputeError(w, err)
		return "", false
	}
	return a.revocationReady()
}

// quoteWire is the URL-safe text encoding of a wire quote: unpadded
// base64url survives query strings without '+'-mangling (see axisToken
// for the axis-side version of that hazard).
var quoteWire = base64.RawURLEncoding

// attestQuoteBody is the /attest/quote response.
type attestQuoteBody struct {
	Arch        string `json:"arch"`
	Config      string `json:"config"`
	TCBVersion  uint32 `json:"tcb_version"`
	Measurement string `json:"measurement"`
	Nonce       string `json:"nonce,omitempty"`
	Quote       string `json:"quote"`
}

// handleAttestQuote mints the canonical quote for (arch, config, tcb),
// optionally bound to a challenger nonce and report data (hex). Quotes
// are deterministic, so they cache like grid cells.
func (s *Server) handleAttestQuote(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	arch := axisToken(q.Get("arch"))
	config := q.Get("config")
	if config == "" {
		config = attestsvc.ConfigStock
	}
	if config != attestsvc.ConfigNone && config != attestsvc.ConfigStock {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("config: %q is not a canonical configuration (none, stock)", config))
		return
	}
	tcb := attestsvc.TCBForConfig(config)
	if v := q.Get("tcb"); v != "" {
		n, err := strconv.ParseUint(v, 10, 32)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("tcb: %q is not an unsigned integer", v))
			return
		}
		tcb = uint32(n)
	}
	nonce, err := hexParam(q.Get("nonce"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "nonce: "+err.Error())
		return
	}
	data, err := hexParam(q.Get("data"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "data: "+err.Error())
		return
	}
	addr := fmt.Sprintf("attest|quote|v1|%s|%s|%d|%x|%x", arch, config, tcb, nonce, data)
	if body, ok := s.cache.get(addr); ok {
		writeCell(w, body, "hit")
		return
	}
	qt, err := s.attest.svc.Quote(arch, config, tcb, nonce, data)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	wire, err := qt.Encode()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.met.attestQuotes.Add(1)
	body := marshalLine(attestQuoteBody{
		Arch:        arch,
		Config:      config,
		TCBVersion:  tcb,
		Measurement: qt.Measurement.Hex(),
		Nonce:       hex.EncodeToString(nonce),
		Quote:       quoteWire.EncodeToString(wire),
	})
	s.cache.put(addr, body)
	writeCell(w, body, "miss")
}

// attestVerifyBody is the /attest/verify response: the verdict plus the
// revocation-state fingerprint it was decided under.
type attestVerifyBody struct {
	attest.Verdict
	RevocationFP string `json:"revocation_fp"`
}

// handleAttestVerify verifies a wire quote (base64url `quote` param)
// against the sweep-driven policy, optionally binding a challenge nonce
// (hex). The verdict is a pure function of (quote, nonce, revocation
// state), so it caches keyed by the revocation fingerprint; rejected
// quotes are still 200s — the HTTP layer reports transport problems,
// the body reports attestation ones.
func (s *Server) handleAttestVerify(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	wire, err := quoteWire.DecodeString(q.Get("quote"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "quote: not valid base64url: "+err.Error())
		return
	}
	if len(wire) == 0 {
		writeError(w, http.StatusBadRequest, "quote: required (base64url wire quote)")
		return
	}
	nonce, err := hexParam(q.Get("nonce"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "nonce: "+err.Error())
		return
	}
	fp, ok := s.revocations(w, r)
	if !ok {
		return
	}
	sum := sha256.Sum256(wire)
	addr := fmt.Sprintf("attest|verify|v1|%s|%x|%x", fp, sum[:16], nonce)
	if body, ok := s.cache.get(addr); ok {
		writeCell(w, body, "hit")
		return
	}
	vd := s.attest.svc.Verify(wire, nonce)
	if vd.OK {
		s.met.attestAccepted.Add(1)
	} else {
		s.met.attestRejected.Add(1)
	}
	body := marshalLine(attestVerifyBody{Verdict: vd, RevocationFP: fp})
	s.cache.put(addr, body)
	writeCell(w, body, "miss")
}

// attestTCBBody is the /attest/tcb response: the per-arch revocation
// table plus the grid slice it derives from.
type attestTCBBody struct {
	RevocationFP string                `json:"revocation_fp"`
	GridCells    int                   `json:"grid_cells"`
	Statuses     []attestsvc.TCBStatus `json:"statuses"`
}

// handleAttestTCB reports the sweep-driven TCB state, computing the
// revocation grid on first use. No refresh knob: the grid is a pure
// function of the configured slice and seed, so recomputing could never
// change the answer within one process lifetime.
func (s *Server) handleAttestTCB(w http.ResponseWriter, r *http.Request) {
	fp, ok := s.revocations(w, r)
	if !ok {
		return
	}
	body := marshalLine(attestTCBBody{
		RevocationFP: fp,
		GridCells:    len(s.attest.keys),
		Statuses:     s.attest.svc.Revocations().Statuses(),
	})
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// hexParam decodes an optional hex query value ("" decodes to nil).
func hexParam(v string) ([]byte, error) {
	if v == "" {
		return nil, nil
	}
	b, err := hex.DecodeString(v)
	if err != nil {
		return nil, fmt.Errorf("%q is not valid hex", v)
	}
	return b, nil
}
