// Package attest implements the attestation and sealed-storage primitives
// every surveyed architecture builds on: code measurement (hash chains),
// MAC-based attestation reports (SMART's HMAC over region‖params‖nonce),
// the one Ed25519-signed quote type with its strict wire codec (SGX's
// quoting model), the one policy verifier (allow-list, minimum TCB, nonce
// freshness, typed verdicts), key derivation from a platform's fused root
// secret, and measurement-bound sealing (AES-GCM under a key derived from
// the platform secret and the enclave identity).
//
// Every key comes from a caller-supplied secret, so a platform's keys
// replay exactly from its fuse; each architecture's quoting key is
// QuotingKeyFor(fuse, arch). crypto/rand supplies only freshness values —
// verifier nonces and sealing IVs — whose unpredictability is the
// property they exist for. This file is the only one that imports
// crypto/ed25519.
package attest

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// Measurement is a SHA-256 digest identifying code and initial data.
type Measurement [sha256.Size]byte

// Measure hashes a single blob.
func Measure(data []byte) Measurement { return sha256.Sum256(data) }

// Extend chains a new measurement onto an existing one (TPM-PCR style):
// m' = H(m ‖ H(data)). Load-order therefore matters, as it should.
func (m Measurement) Extend(data []byte) Measurement {
	h := sha256.New()
	h.Write(m[:])
	d := sha256.Sum256(data)
	h.Write(d[:])
	var out Measurement
	copy(out[:], h.Sum(nil))
	return out
}

// String renders the first 8 bytes, enough for logs.
func (m Measurement) String() string { return fmt.Sprintf("%x", m[:8]) }

// Hex renders the full digest.
func (m Measurement) Hex() string { return fmt.Sprintf("%x", m[:]) }

// MeasureChain folds an ordered sequence of blobs into one measurement
// the way enclave loaders build MRENCLAVE: start from the zero register
// and Extend once per blob. The empty chain is the zero measurement.
func MeasureChain(blobs ...[]byte) Measurement {
	var m Measurement
	for _, b := range blobs {
		m = m.Extend(b)
	}
	return m
}

// Report is a local attestation report: a MAC over the measurement, the
// challenger's nonce, and optional application data, keyed with a secret
// only the trusted hardware/ROM can access.
type Report struct {
	Measurement Measurement
	Nonce       []byte
	AppData     []byte
	MAC         []byte
}

func reportDigestInput(m Measurement, nonce, appData []byte) []byte {
	var buf bytes.Buffer
	buf.Write(m[:])
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(nonce)))
	buf.Write(n[:])
	buf.Write(nonce)
	binary.LittleEndian.PutUint32(n[:], uint32(len(appData)))
	buf.Write(n[:])
	buf.Write(appData)
	return buf.Bytes()
}

// NewReport MACs (measurement, nonce, appData) under key.
func NewReport(key []byte, m Measurement, nonce, appData []byte) *Report {
	mac := hmac.New(sha256.New, key)
	mac.Write(reportDigestInput(m, nonce, appData))
	return &Report{Measurement: m, Nonce: nonce, AppData: appData, MAC: mac.Sum(nil)}
}

// VerifyReport checks the MAC with the shared key.
func VerifyReport(key []byte, r *Report) bool {
	mac := hmac.New(sha256.New, key)
	mac.Write(reportDigestInput(r.Measurement, r.Nonce, r.AppData))
	return hmac.Equal(mac.Sum(nil), r.MAC)
}

// signatureSize is the length of a quote signature on the wire.
const signatureSize = ed25519.SignatureSize

// QuotingKey is a platform's attestation key pair.
type QuotingKey struct {
	priv ed25519.PrivateKey
}

// NewQuotingKey expands a 32-byte seed into an Ed25519 attestation key.
// The quote body layout is public (it is part of the attestation
// protocol), so anyone holding the seed signs quotes the platform's
// verifiers accept — which is exactly what the Foreshadow experiment
// demonstrates with a stolen one.
func NewQuotingKey(seed [32]byte) *QuotingKey {
	return &QuotingKey{priv: ed25519.NewKeyFromSeed(seed[:])}
}

// QuotingKeyFor is the one quoting-key derivation: an architecture's
// quoting key is the Ed25519 key seeded by DeriveKey(fuse, arch+"/quoting").
// The SGX model stores that seed in its quoting enclave's EPC, and the
// attestation service and scenarios sign with the same key, so the key
// Foreshadow steals is the key every verifier checks.
func QuotingKeyFor(fuse [32]byte, arch string) *QuotingKey {
	return NewQuotingKey(DeriveKey(fuse, arch+"/quoting"))
}

// Public returns the verification key.
func (k *QuotingKey) Public() ed25519.PublicKey { return k.priv.Public().(ed25519.PublicKey) }

// PrivateBytes returns the 32-byte seed the quoting enclave stores in
// EPC — the asset the Foreshadow experiment extracts.
func (k *QuotingKey) PrivateBytes() []byte { return k.priv.Seed() }

// Sign signs the quote's canonical body and stores the signature in it.
// Ed25519 is deterministic (RFC 8032), so the same quote signs to the
// same bytes. It fails only for a quote the wire format cannot carry.
func (k *QuotingKey) Sign(q *Quote) error {
	body, err := q.encode(false)
	if err != nil {
		return err
	}
	q.Signature = ed25519.Sign(k.priv, body)
	return nil
}

// SignedBy reports whether the quote's signature verifies over its
// canonical body under pub.
func (q *Quote) SignedBy(pub ed25519.PublicKey) bool {
	body, err := q.encode(false)
	return err == nil && len(q.Signature) == signatureSize && ed25519.Verify(pub, body, q.Signature)
}

// bootQuote is the statement a vendor signs over a boot image for arch:
// the image's measurement under the fixed nonce "boot".
func bootQuote(arch string, img []byte) *Quote {
	return &Quote{Report: Report{Measurement: Measure(img), Nonce: []byte("boot")}, Arch: arch}
}

// SignImage is the vendor provisioning step of secure boot: it signs a
// boot quote over the image for arch (nil if arch is too long for the
// wire format, which no signature check accepts).
func (k *QuotingKey) SignImage(arch string, img []byte) []byte {
	q := bootQuote(arch, img)
	if k.Sign(q) != nil {
		return nil
	}
	return q.Signature
}

// ImageSignedBy reports whether sig is pub's SignImage signature over the
// image for arch — the check secure boot makes before loading it.
func ImageSignedBy(pub ed25519.PublicKey, arch string, img, sig []byte) bool {
	q := bootQuote(arch, img)
	q.Signature = sig
	return q.SignedBy(pub)
}

// Verifier is the one remote challenger: it trusts one quoting key per
// architecture, checks quotes (and local MAC reports) against a Policy,
// and, when the policy enforces freshness, tracks the nonces it issued or
// registered and those already accepted. It is safe for concurrent use.
type Verifier struct {
	mu      sync.Mutex
	keys    map[string]ed25519.PublicKey
	policy  Policy
	pending map[string]bool // issued or registered, not yet accepted
	used    map[string]bool // accepted once
}

// NewVerifier creates a verifier under the policy, trusting no quoting
// key yet.
func NewVerifier(p Policy) *Verifier {
	return &Verifier{keys: map[string]ed25519.PublicKey{}, policy: p, pending: map[string]bool{}, used: map[string]bool{}}
}

// Trust registers an architecture's quote-verification key.
func (v *Verifier) Trust(arch string, pub ed25519.PublicKey) {
	v.mu.Lock()
	v.keys[arch] = pub
	v.mu.Unlock()
}

// AllowMeasurement adds a known-good measurement to the allow-list under
// an identity label.
func (v *Verifier) AllowMeasurement(name string, m Measurement) {
	v.mu.Lock()
	if v.policy.Accepted == nil {
		v.policy.Accepted = map[Measurement]string{}
	}
	v.policy.Accepted[m] = name
	v.mu.Unlock()
}

// Policy returns the verifier's current policy.
func (v *Verifier) Policy() Policy {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.policy
}

// SetPolicy swaps the policy (e.g. after a TCB refresh). Nonce history
// outlives policy updates.
func (v *Verifier) SetPolicy(p Policy) {
	v.mu.Lock()
	v.policy = p
	v.mu.Unlock()
}

// Challenge issues a fresh random nonce and records it as pending.
func (v *Verifier) Challenge() ([]byte, error) {
	n := make([]byte, 16)
	if _, err := rand.Read(n); err != nil {
		return nil, err
	}
	v.Register(n)
	return n, nil
}

// Register records a nonce the caller drew (from a deterministic source,
// say) as issued by this verifier.
func (v *Verifier) Register(nonce []byte) {
	v.mu.Lock()
	v.pending[string(nonce)] = true
	v.mu.Unlock()
}

// Verify runs the full pipeline over a wire quote: decode (strictly
// canonical) → architecture trusted → signature valid → measurement in
// the allow-list → TCB version ≥ the arch's minimum (when enforced) →
// nonce matches the challenge (when one is supplied) → nonce issued and
// unused (when freshness is enforced).
func (v *Verifier) Verify(wire, challenge []byte) Verdict {
	q, err := DecodeQuote(wire)
	if err != nil {
		return Verdict{Code: VerdictBadEncoding, Reason: err.Error()}
	}
	return v.verifyQuote(q, challenge)
}

func (v *Verifier) verifyQuote(q *Quote, challenge []byte) Verdict {
	v.mu.Lock()
	pub, ok := v.keys[q.Arch]
	v.mu.Unlock()
	if !ok {
		return Verdict{Code: VerdictUnknownArch, Reason: fmt.Sprintf("architecture %q not surveyed", q.Arch)}
	}
	vd := Verdict{Arch: q.Arch, TCBVersion: q.TCBVersion, Config: q.Config, Measurement: q.Measurement.Hex()}
	if !q.SignedBy(pub) {
		vd.Code, vd.Reason = VerdictBadSignature, "ed25519 signature does not verify under the arch quoting key"
		return vd
	}
	return v.admit(vd, q, challenge)
}

// admit applies the policy to an authenticated statement.
func (v *Verifier) admit(vd Verdict, q *Quote, challenge []byte) Verdict {
	v.mu.Lock()
	defer v.mu.Unlock()
	p := v.policy
	id, ok := p.Accepted[q.Measurement]
	if !ok {
		vd.Code, vd.Reason = VerdictUnknownMeasurement, "measurement not in the accepted allow-list"
		return vd
	}
	if p.EnforceTCB {
		vd.MinTCB = p.MinTCB[q.Arch]
		if q.TCBVersion < vd.MinTCB {
			vd.Code = VerdictTCBRevoked
			vd.Reason = fmt.Sprintf("quote claims TCB %d but %s requires ≥ %d (revoked until the stock defense is applied)", q.TCBVersion, q.Arch, vd.MinTCB)
			return vd
		}
	}
	if challenge != nil && string(q.Nonce) != string(challenge) {
		vd.Code, vd.Reason = VerdictNonceMismatch, "quote nonce does not match the challenge"
		return vd
	}
	if p.Freshness {
		n := string(q.Nonce)
		switch {
		case v.used[n]:
			vd.Code, vd.Reason = VerdictNonceReplayed, "nonce already accepted once"
			return vd
		case !v.pending[n]:
			vd.Code, vd.Reason = VerdictNonceUnissued, "nonce not issued by this verifier"
			return vd
		}
		delete(v.pending, n)
		v.used[n] = true
	}
	vd.OK = true
	vd.Code = VerdictAccepted
	vd.Reason = "measurement " + id + " accepted"
	return vd
}

// CheckReport validates a local report's MAC under the shared key, then
// applies the policy: allow-list membership and, under Freshness, a
// single use of a nonce this verifier issued.
func (v *Verifier) CheckReport(key []byte, r *Report) error {
	if !VerifyReport(key, r) {
		return errors.New("attest: report MAC invalid")
	}
	return checkErr(v.admit(Verdict{}, &Quote{Report: *r}, nil), r.Measurement)
}

// CheckQuote is Verify over a decoded quote, with the verdict as an error.
func (v *Verifier) CheckQuote(q *Quote) error {
	return checkErr(v.verifyQuote(q, nil), q.Measurement)
}

// checkErr renders a verdict as CheckReport's and CheckQuote's error.
func checkErr(vd Verdict, m Measurement) error {
	switch vd.Code {
	case VerdictAccepted:
		return nil
	case VerdictBadSignature:
		return errors.New("attest: quote signature invalid")
	case VerdictUnknownMeasurement:
		return fmt.Errorf("attest: measurement %s not in allow-list", m)
	case VerdictNonceUnissued, VerdictNonceReplayed:
		return errors.New("attest: nonce not issued by this verifier or already used")
	}
	return errors.New("attest: " + vd.Reason)
}

// DeriveKey derives the 256-bit key for label from a platform's root
// secret: HMAC-SHA256(root, "intrust-kdf-v1/" ‖ label). Every TEE model
// keys its hardware (MEE, report and sealing secrets, attestation keys)
// this way from platform.Platform.Fuse, so distinct labels give
// independent keys and one fuse value replays every key of the device.
func DeriveKey(root [32]byte, label string) [32]byte {
	mac := hmac.New(sha256.New, root[:])
	mac.Write([]byte("intrust-kdf-v1/"))
	mac.Write([]byte(label))
	var k [32]byte
	mac.Sum(k[:0])
	return k
}

// SealKey derives the sealing key for an identity from the platform
// secret: HMAC(platformSecret, "seal" ‖ measurement). Different code ⇒
// different key, binding sealed data to the enclave identity.
func SealKey(platformSecret []byte, m Measurement) []byte {
	mac := hmac.New(sha256.New, platformSecret)
	mac.Write([]byte("intrust-seal"))
	mac.Write(m[:])
	return mac.Sum(nil)[:16]
}

// Seal encrypts data under the identity-bound key with AES-GCM.
func Seal(platformSecret []byte, m Measurement, data []byte) ([]byte, error) {
	blk, err := aes.NewCipher(SealKey(platformSecret, m))
	if err != nil {
		return nil, err
	}
	gcm, err := cipher.NewGCM(blk)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, gcm.NonceSize())
	if _, err := rand.Read(nonce); err != nil {
		return nil, err
	}
	return gcm.Seal(nonce, nonce, data, m[:]), nil
}

// Unseal decrypts sealed data; it fails if the measurement (and hence the
// derived key or the bound AAD) differs from the sealer's.
func Unseal(platformSecret []byte, m Measurement, blob []byte) ([]byte, error) {
	blk, err := aes.NewCipher(SealKey(platformSecret, m))
	if err != nil {
		return nil, err
	}
	gcm, err := cipher.NewGCM(blk)
	if err != nil {
		return nil, err
	}
	if len(blob) < gcm.NonceSize() {
		return nil, errors.New("attest: sealed blob truncated")
	}
	pt, err := gcm.Open(nil, blob[:gcm.NonceSize()], blob[gcm.NonceSize():], m[:])
	if err != nil {
		return nil, fmt.Errorf("attest: unseal: %w", err)
	}
	return pt, nil
}
