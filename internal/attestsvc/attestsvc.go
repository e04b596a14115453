// Package attestsvc simulates the remote-attestation lifecycle the
// paper's TEE survey implies but never exercises end to end, on top of
// internal/attest's one quote type and one verifier: canonical enclave
// images and their measurements (deterministic MRENCLAVE-style digests),
// the canonical verification policy, and TCB revocation driven by the
// sweep grid itself — any architecture with a broken `none`-defense cell
// is TCB-compromised, and verifiers reject its quotes until they claim
// the stock defense configuration. Service ties them to one platform
// fuse, whose per-architecture quoting keys (attest.QuotingKeyFor) are
// the keys the TEE models hold, so a key Foreshadow steals from the SGX
// model forges quotes this service accepts until revocation.
//
// Everything here is deterministic by construction: image bytes are a
// SHA-256 stream keyed by (arch, defense config, TCB version), quoting
// keys derive from the fuse, Ed25519 signatures are deterministic
// (RFC 8032), and the quote wire format is strictly canonical. The same
// inputs therefore produce byte-identical quotes and verdicts in the CLI,
// the scenario grid, and the serve tier.
package attestsvc

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"maps"
	"sync"

	"github.com/intrust-sim/intrust/internal/attest"
	"github.com/intrust-sim/intrust/internal/platform"
)

// TCB versions. The simulation models exactly two trusted-computing-base
// levels per architecture: the undefended baseline and the architecture's
// stock defense configuration. Sweep-driven revocation raises an arch's
// minimum accepted version from baseline to stock.
const (
	// TCBBaseline is the undefended ("none" defense) configuration.
	TCBBaseline uint32 = 1
	// TCBStock is the architecture's stock defense configuration.
	TCBStock uint32 = 2
)

// Defense-configuration labels an enclave image (and hence a quote) can
// claim. They mirror the sweep's defense axis spellings.
const (
	ConfigNone  = "none"
	ConfigStock = "stock"
)

// TCBForConfig maps a claimed defense configuration to the TCB version it
// corresponds to. Unknown configurations get the baseline version.
func TCBForConfig(cfg string) uint32 {
	if cfg == ConfigStock {
		return TCBStock
	}
	return TCBBaseline
}

// imagePages is the number of simulated pages per enclave image and
// imagePageSize their size; small enough to measure thousands of images
// per second, large enough that single-byte tampering is realistic.
const (
	imagePages    = 4
	imagePageSize = 256
)

// Image is a simulated enclave image: a few pages of deterministic
// content unique to (architecture, defense configuration, TCB version).
// The content stands in for code+initial data; its measurement is the
// MRENCLAVE-style identity everything downstream binds to.
type Image struct {
	Arch       string
	Config     string
	TCBVersion uint32
	Pages      [][]byte
}

// BuildImage deterministically constructs the canonical enclave image for
// an (arch, config, tcb) triple. Every holder of the same triple builds
// byte-identical pages, so measurement policy can be computed anywhere.
func BuildImage(arch, config string, tcb uint32) (*Image, error) {
	if _, ok := platform.ArchClass(arch); !ok {
		return nil, fmt.Errorf("attestsvc: unknown architecture %q", arch)
	}
	im := &Image{Arch: arch, Config: config, TCBVersion: tcb, Pages: make([][]byte, imagePages)}
	for p := range im.Pages {
		im.Pages[p] = imagePage(arch, config, tcb, p)
	}
	return im, nil
}

// imagePage derives one page of image content as a SHA-256 output stream
// keyed by the image identity and page index.
func imagePage(arch, config string, tcb uint32, page int) []byte {
	out := make([]byte, 0, imagePageSize)
	var ctr uint32
	for len(out) < imagePageSize {
		h := sha256.New()
		fmt.Fprintf(h, "intrust/attestsvc/image/v1|%s|%s|%d|%d|%d", arch, config, tcb, page, ctr)
		out = append(out, h.Sum(nil)...)
		ctr++
	}
	return out[:imagePageSize]
}

// header returns the measured image header: the identity fields that are
// part of the enclave's signed metadata (SIGSTRUCT-style), so two images
// with identical pages but different claimed TCB levels measure apart.
func (im *Image) header() []byte {
	h := make([]byte, 0, 64)
	h = append(h, "intrust/attestsvc/header/v1|"...)
	h = append(h, im.Arch...)
	h = append(h, '|')
	h = append(h, im.Config...)
	h = append(h, '|')
	h = binary.LittleEndian.AppendUint32(h, im.TCBVersion)
	return h
}

// Measurement computes the image's identity: a measurement chain over the
// header followed by each page in load order, exactly how enclave loaders
// build MRENCLAVE (and why load order matters).
func (im *Image) Measurement() attest.Measurement {
	blobs := make([][]byte, 0, 1+len(im.Pages))
	blobs = append(blobs, im.header())
	blobs = append(blobs, im.Pages...)
	return attest.MeasureChain(blobs...)
}

// CanonicalMeasurement returns the measurement of the canonical image for
// (arch, config, tcb) without exposing the image itself.
func CanonicalMeasurement(arch, config string, tcb uint32) (attest.Measurement, error) {
	im, err := BuildImage(arch, config, tcb)
	if err != nil {
		return attest.Measurement{}, err
	}
	return im.Measurement(), nil
}

// Quote returns the unsigned quote over the image's live measurement,
// its claimed configuration and TCB level, the challenger's nonce and
// caller report data; the architecture's quoting key signs it.
func (im *Image) Quote(nonce, reportData []byte) *attest.Quote {
	return &attest.Quote{
		Report:     attest.Report{Measurement: im.Measurement(), Nonce: nonce, AppData: reportData},
		Arch:       im.Arch,
		Config:     im.Config,
		TCBVersion: im.TCBVersion,
	}
}

// canonicalAccepted is the deployment-wide allow-list, computed once per
// process: for every surveyed architecture, the canonical baseline
// ("none" @ TCB 1) and stock ("stock" @ TCB 2) images.
var canonicalAccepted = sync.OnceValue(func() map[attest.Measurement]string {
	acc := make(map[attest.Measurement]string, 2*len(platform.Architectures))
	for _, arch := range platform.Architectures {
		for _, ic := range []struct {
			cfg string
			tcb uint32
		}{{ConfigNone, TCBBaseline}, {ConfigStock, TCBStock}} {
			m, err := CanonicalMeasurement(arch, ic.cfg, ic.tcb)
			if err != nil {
				panic(err) // every surveyed architecture builds an image
			}
			acc[m] = fmt.Sprintf("%s/%s@%d", arch, ic.cfg, ic.tcb)
		}
	}
	return acc
})

// CanonicalPolicy is the deployment-wide verification policy: the
// canonical allow-list with TCB enforcement on and freshness off, and
// every architecture's minimum TCB version taken from rev (nil means
// nothing revoked).
func CanonicalPolicy(rev *Revocations) attest.Policy {
	p := attest.Policy{
		Accepted:   maps.Clone(canonicalAccepted()),
		MinTCB:     make(map[string]uint32, len(platform.Architectures)),
		EnforceTCB: true,
	}
	for _, arch := range platform.Architectures {
		p.MinTCB[arch] = rev.MinTCB(arch)
	}
	return p
}
