// Package tytan implements TyTAN (Brasser et al., DAC'15) from Section
// 3.3: TrustLite extended for real-time systems. On top of TrustLite's
// EA-MPU isolation it adds, per the paper, "secure boot and secure
// storage", plus authenticated IPC and latency-bounded (interruptible)
// attestation so hard deadlines survive security operations.
//
// See docs/ARCHITECTURE.md for the full package map and the
// paper-section cross-reference.
package tytan

import (
	"crypto/hmac"
	"crypto/sha256"
	"fmt"

	"github.com/intrust-sim/intrust/internal/attest"
	"github.com/intrust-sim/intrust/internal/platform"
	"github.com/intrust-sim/intrust/internal/tee"
	"github.com/intrust-sim/intrust/internal/tee/trustlite"
)

// TyTAN wraps a TrustLite instance with the real-time extensions.
type TyTAN struct {
	tl *trustlite.TrustLite

	// ipcKeys holds pairwise MAC keys for authenticated IPC.
	ipcKeys map[[2]int][]byte

	// AttestChunk is the number of bytes MACed per scheduling slice; the
	// worst-case interrupt latency during attestation is the cost of one
	// chunk instead of the whole region (SMART's weakness fixed).
	AttestChunk int
}

// vendorKey is the trustlet vendor's image-signing key; its public part
// verifies trustlet images at load (secure boot). It is the vendor's, not
// the device's, so it derives from a fixed vendor label, not a platform
// fuse.
var vendorKey = attest.NewQuotingKey(attest.DeriveKey([32]byte{}, "vendor/tytan"))

// New builds TyTAN on a fresh TrustLite instance.
func New(p *platform.Platform) (*TyTAN, error) {
	tl, err := trustlite.New(p)
	if err != nil {
		return nil, err
	}
	return &TyTAN{tl: tl, ipcKeys: map[[2]int][]byte{}, AttestChunk: 256}, nil
}

// TrustLite exposes the underlying loader for trustlet management.
func (t *TyTAN) TrustLite() *trustlite.TrustLite { return t.tl }

// Name implements tee.Architecture.
func (t *TyTAN) Name() string { return "TyTAN (model)" }

// Platform implements tee.Architecture.
func (t *TyTAN) Platform() *platform.Platform { return t.tl.Platform() }

// Capabilities implements tee.Architecture: TrustLite plus secure boot,
// secure storage and real-time guarantees.
func (t *TyTAN) Capabilities() tee.Capabilities {
	c := t.tl.Capabilities()
	c.SealedStorage = true
	c.RealTime = true
	return c
}

// SignImage is the vendor provisioning step for secure boot.
func (t *TyTAN) SignImage(img []byte) []byte {
	return vendorKey.SignImage("tytan", img)
}

// CreateEnclave implements tee.Architecture. TyTAN requires signed images:
// use LoadSignedTrustlet; unsigned loading is refused.
func (t *TyTAN) CreateEnclave(cfg tee.EnclaveConfig) (tee.Enclave, error) {
	return nil, fmt.Errorf("tytan: unsigned trustlet refused (secure boot): %w", tee.ErrUnsupported)
}

// LoadSignedTrustlet verifies the image signature (secure boot), then
// loads it through the TrustLite Secure Loader.
func (t *TyTAN) LoadSignedTrustlet(cfg tee.EnclaveConfig, sig []byte) (*Trustlet, error) {
	if cfg.Program == nil || len(cfg.Program.Segments) != 1 {
		return nil, fmt.Errorf("tytan: trustlet needs a single-segment program")
	}
	img := cfg.Program.Segments[0].Data
	if !attest.ImageSignedBy(vendorKey.Public(), "tytan", img, sig) {
		return nil, fmt.Errorf("tytan: secure boot rejected trustlet %q (bad signature)", cfg.Name)
	}
	tr, err := t.tl.LoadTrustlet(cfg)
	if err != nil {
		return nil, err
	}
	return &Trustlet{Trustlet: tr, ty: t}, nil
}

// Trustlet decorates a TrustLite trustlet with TyTAN services.
type Trustlet struct {
	*trustlite.Trustlet
	ty *TyTAN
}

// Seal implements secure storage: data bound to the trustlet identity
// under the platform key.
func (tr *Trustlet) Seal(data []byte) ([]byte, error) {
	return attest.Seal(tr.ty.tl.PlatformKey(), tr.Measurement(), data)
}

// Unseal implements secure storage retrieval.
func (tr *Trustlet) Unseal(blob []byte) ([]byte, error) {
	return attest.Unseal(tr.ty.tl.PlatformKey(), tr.Measurement(), blob)
}

// IPCMessage is an authenticated inter-trustlet message.
type IPCMessage struct {
	From, To int
	Payload  []byte
	MAC      []byte
}

func (t *TyTAN) ipcKey(a, b int) []byte {
	if a > b {
		a, b = b, a
	}
	k, ok := t.ipcKeys[[2]int{a, b}]
	if !ok {
		h := hmac.New(sha256.New, t.tl.PlatformKey())
		h.Write([]byte{byte(a), byte(b), 'i', 'p', 'c'})
		k = h.Sum(nil)
		t.ipcKeys[[2]int{a, b}] = k
	}
	return k
}

// SendIPC produces an authenticated message from one trustlet to another.
func (t *TyTAN) SendIPC(from, to *Trustlet, payload []byte) *IPCMessage {
	mac := hmac.New(sha256.New, t.ipcKey(from.ID(), to.ID()))
	mac.Write([]byte{byte(from.ID()), byte(to.ID())})
	mac.Write(payload)
	return &IPCMessage{From: from.ID(), To: to.ID(), Payload: payload, MAC: mac.Sum(nil)}
}

// VerifyIPC checks message authenticity at the receiver.
func (t *TyTAN) VerifyIPC(msg *IPCMessage) bool {
	mac := hmac.New(sha256.New, t.ipcKey(msg.From, msg.To))
	mac.Write([]byte{byte(msg.From), byte(msg.To)})
	mac.Write(msg.Payload)
	return hmac.Equal(mac.Sum(nil), msg.MAC)
}

// RTAttestResult reports a latency-bounded attestation.
type RTAttestResult struct {
	Report *attest.Report
	// Chunks is how many preemption points the attestation offered.
	Chunks int
	// WorstCaseLatencyBytes is the longest uninterruptible span.
	WorstCaseLatencyBytes int
}

// AttestRT measures a memory region in chunks, yielding to interrupts
// between chunks: the worst-case interrupt latency is one chunk, not the
// whole region — the real-time property distinguishing TyTAN from SMART.
func (t *TyTAN) AttestRT(tr *Trustlet, regionBase, regionLen uint32, nonce []byte) (*RTAttestResult, error) {
	region := make([]byte, regionLen)
	if err := t.Platform().Mem.ReadRaw(regionBase, region); err != nil {
		return nil, err
	}
	chunks := 0
	// Incremental hash over chunks, a preemption point after each.
	h := sha256.New()
	for off := 0; off < len(region); off += t.AttestChunk {
		end := off + t.AttestChunk
		if end > len(region) {
			end = len(region)
		}
		h.Write(region[off:end])
		chunks++
		// Preemption point: pending interrupts would be serviced here.
	}
	var meas attest.Measurement
	copy(meas[:], h.Sum(nil))
	return &RTAttestResult{
		Report:                attest.NewReport(t.tl.PlatformKey(), meas, nonce, nil),
		Chunks:                chunks,
		WorstCaseLatencyBytes: t.AttestChunk,
	}, nil
}
