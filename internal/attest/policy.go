package attest

import "sort"

// Verdict codes. Every rejection path is typed so scenarios and callers
// can assert *why* a quote failed, not just that it did.
const (
	VerdictAccepted           = "accepted"
	VerdictBadEncoding        = "bad-encoding"
	VerdictUnknownArch        = "unknown-arch"
	VerdictBadSignature       = "bad-signature"
	VerdictUnknownMeasurement = "unknown-measurement"
	VerdictTCBRevoked         = "tcb-revoked"
	VerdictNonceMismatch      = "nonce-mismatch"
	VerdictNonceUnissued      = "nonce-unissued"
	VerdictNonceReplayed      = "nonce-replayed"
)

// Verdict is the result of verifying one quote.
type Verdict struct {
	OK          bool   `json:"ok"`
	Code        string `json:"code"`
	Reason      string `json:"reason,omitempty"`
	Arch        string `json:"arch,omitempty"`
	TCBVersion  uint32 `json:"tcb_version,omitempty"`
	MinTCB      uint32 `json:"min_tcb,omitempty"`
	Config      string `json:"config,omitempty"`
	Measurement string `json:"measurement,omitempty"`
}

// Policy is a verifier's explicit acceptance policy: the measurement
// allow-list, the per-architecture minimum TCB version (raised by
// sweep-driven revocation), and whether nonce freshness is enforced.
type Policy struct {
	// Accepted maps known-good measurements to a human-readable identity
	// label ("arch/config@tcb").
	Accepted map[Measurement]string
	// MinTCB maps an architecture to the minimum TCB version a quote must
	// claim. A missing entry sets no minimum.
	MinTCB map[string]uint32
	// EnforceTCB gates the MinTCB check; a verifier that never refreshes
	// its TCB info (the stale-tcb scenario's victim) leaves it off.
	EnforceTCB bool
	// Freshness makes every nonce single-use and verifier-chosen: a quote
	// or report passes only under a nonce this verifier issued
	// (Challenge) or registered (Register), and only once. A verifier
	// without it (the quote-replay scenario's victim) accepts replays,
	// and its verdicts are a pure function of (quote, challenge, policy).
	Freshness bool
}

// AcceptedList renders the allow-list deterministically (sorted by
// identity label) for policy dumps.
func (p Policy) AcceptedList() []PolicyEntry {
	out := make([]PolicyEntry, 0, len(p.Accepted))
	for m, id := range p.Accepted {
		out = append(out, PolicyEntry{Identity: id, Measurement: m.Hex()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Identity < out[j].Identity })
	return out
}

// PolicyEntry is one allow-list row in a policy dump.
type PolicyEntry struct {
	Identity    string `json:"identity"`
	Measurement string `json:"measurement"`
}
