// Package attest implements the attestation and sealed-storage primitives
// every surveyed architecture builds on: code measurement (hash chains),
// MAC-based attestation reports (SMART's HMAC over region‖params‖nonce),
// Ed25519-signed quotes for remote attestation (SGX's quoting model),
// nonce freshness tracking, key derivation from a platform's fused root
// secret, and measurement-bound sealing (AES-GCM under a key derived from
// the platform secret and the enclave identity).
//
// Every key comes from a caller-supplied secret, so a platform's keys
// replay exactly from its fuse. crypto/rand supplies only freshness
// values — verifier nonces and sealing IVs — whose unpredictability is
// the property they exist for.
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

// Quote is a remotely verifiable report: an Ed25519 signature instead of
// a shared-key MAC, so verification needs only the platform's public key —
// the SGX remote-attestation shape (Foreshadow's headline damage was
// extracting exactly these signing keys).
type Quote struct {
	Report    Report
	Signature []byte
}

// QuotingKey is the platform attestation key pair.
type QuotingKey struct {
	priv ed25519.PrivateKey
}

// NewQuotingKey expands a 32-byte seed into an Ed25519 attestation key.
// The quote digest layout is public (it is part of the attestation
// protocol), so anyone holding the seed signs quotes the platform's
// verifiers accept — which is exactly what the Foreshadow experiment
// demonstrates with a stolen one.
func NewQuotingKey(seed [32]byte) *QuotingKey {
	return &QuotingKey{priv: ed25519.NewKeyFromSeed(seed[:])}
}

// Public returns the verification key.
func (q *QuotingKey) Public() ed25519.PublicKey { return q.priv.Public().(ed25519.PublicKey) }

// PrivateBytes returns the 32-byte seed the quoting enclave stores in
// EPC — the asset the Foreshadow experiment extracts.
func (q *QuotingKey) PrivateBytes() []byte { return q.priv.Seed() }

// Sign produces a quote over the report contents.
func (q *QuotingKey) Sign(r *Report) *Quote {
	return &Quote{Report: *r, Signature: ed25519.Sign(q.priv, reportDigestInput(r.Measurement, r.Nonce, r.AppData))}
}

// VerifyQuote checks a quote against the platform public key.
func VerifyQuote(pub ed25519.PublicKey, q *Quote) bool {
	return ed25519.Verify(pub, reportDigestInput(q.Report.Measurement, q.Report.Nonce, q.Report.AppData), q.Signature)
}

// Verifier is a remote challenger: it issues nonces, tracks freshness, and
// checks reports against expected measurements.
type Verifier struct {
	expected map[string]Measurement
	// pending holds the nonces issued by Challenge and not yet consumed
	// by a check.
	pending map[string]bool
}

// NewVerifier creates a verifier with an allow-list of good measurements.
func NewVerifier() *Verifier {
	return &Verifier{expected: map[string]Measurement{}, pending: map[string]bool{}}
}

// AllowMeasurement registers a known-good measurement under a name.
func (v *Verifier) AllowMeasurement(name string, m Measurement) {
	v.expected[name] = m
}

// Challenge issues a fresh random nonce and records it as pending.
func (v *Verifier) Challenge() ([]byte, error) {
	n := make([]byte, 16)
	if _, err := rand.Read(n); err != nil {
		return nil, err
	}
	v.pending[string(n)] = true
	return n, nil
}

// CheckReport validates MAC, measurement allow-list membership and nonce
// freshness: the nonce must be one this verifier issued, and a passing
// check consumes it, so it is accepted once.
func (v *Verifier) CheckReport(key []byte, r *Report) error {
	if !VerifyReport(key, r) {
		return errors.New("attest: report MAC invalid")
	}
	return v.checkCommon(&r.Measurement, r.Nonce)
}

// CheckQuote validates signature, measurement and freshness.
func (v *Verifier) CheckQuote(pub ed25519.PublicKey, q *Quote) error {
	if !VerifyQuote(pub, q) {
		return errors.New("attest: quote signature invalid")
	}
	return v.checkCommon(&q.Report.Measurement, q.Report.Nonce)
}

func (v *Verifier) checkCommon(m *Measurement, nonce []byte) error {
	found := false
	for _, e := range v.expected {
		if e == *m {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("attest: measurement %s not in allow-list", m)
	}
	ns := string(nonce)
	if !v.pending[ns] {
		return errors.New("attest: nonce not issued by this verifier or already used")
	}
	delete(v.pending, ns)
	return nil
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
