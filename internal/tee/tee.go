// Package tee defines the common contract for the eight hardware-assisted
// security architectures surveyed in Section 3, plus the capability probes
// that regenerate the architecture-comparison matrix (TAB2) from measured
// behaviour instead of from claims.
package tee

import (
	"bytes"
	"fmt"

	"github.com/intrust-sim/intrust/internal/attest"
	"github.com/intrust-sim/intrust/internal/isa"
	"github.com/intrust-sim/intrust/internal/mem"
	"github.com/intrust-sim/intrust/internal/platform"
)

// CacheDefense names the cache side-channel defense an architecture
// provides for its enclaves (Section 4.1's comparison).
type CacheDefense string

const (
	// DefenseNone: no architectural defense (SGX, TrustZone, embedded).
	DefenseNone CacheDefense = "none"
	// DefenseLLCPartition: shared-LLC partitioning by page coloring
	// (Sanctum).
	DefenseLLCPartition CacheDefense = "llc-partition"
	// DefenseCacheExclusion: enclave memory excluded from shared caches
	// (Sanctuary).
	DefenseCacheExclusion CacheDefense = "cache-exclusion"
	// DefenseNotApplicable: the platform has no shared caches to attack.
	DefenseNotApplicable CacheDefense = "n/a (no shared cache)"
)

// Capabilities describes an architecture's mechanism set. TAB2 cross-
// checks every claim against a probe.
type Capabilities struct {
	MultipleEnclaves  bool
	MemoryEncryption  bool
	DMAProtection     bool
	CacheDefense      CacheDefense
	FlushOnSwitch     bool // flush core-exclusive caches at enclave switches
	HardwareOnlyTCB   bool
	RemoteAttestation bool
	SealedStorage     bool
	RealTime          bool
	SecurePeripherals bool
	CodeIsolation     bool // does the TEE isolate code at all (SMART: no)
}

// EnclaveConfig describes an enclave to create.
type EnclaveConfig struct {
	Name string
	// Program is the enclave's code; its entry point receives arguments
	// in a0..a3 and returns in a0/a1, ending with HLT (architectures
	// translate HLT into enclave exit).
	Program *isa.Program
	// DataSize reserves writable enclave memory beyond the image.
	DataSize uint32
}

// Enclave is a unit of isolated execution. Architectures without true
// enclaves (SMART, Sancus) implement the subset they support and return
// ErrUnsupported for the rest.
type Enclave interface {
	ID() int
	Name() string
	Measurement() attest.Measurement
	// Call runs the enclave's entry point with up to four arguments,
	// returning a0 and a1.
	Call(args ...uint32) ([2]uint32, error)
	// Attest produces a report bound to the challenger's nonce.
	Attest(nonce []byte) (*attest.Report, error)
	// Seal / Unseal bind data to the enclave identity.
	Seal(data []byte) ([]byte, error)
	Unseal(blob []byte) ([]byte, error)
	// Base and Size locate the enclave's physical memory, used by the
	// attack probes.
	Base() uint32
	Size() uint32
	Destroy() error
}

// Architecture is one hardware-assisted security architecture instance.
type Architecture interface {
	Name() string
	Platform() *platform.Platform
	Capabilities() Capabilities
	CreateEnclave(cfg EnclaveConfig) (Enclave, error)
}

// ErrUnsupported marks operations an architecture does not provide.
var ErrUnsupported = fmt.Errorf("tee: operation not supported by this architecture")

// ProbeResult is a measured verdict for one capability probe.
type ProbeResult struct {
	Name   string
	Secure bool
	Detail string
}

// ProbeDMA attempts a DMA read of the enclave's memory and reports whether
// the secret leaked. secretOff/secret locate a known plaintext byte the
// enclave wrote.
func ProbeDMA(a Architecture, e Enclave, secretOff uint32, secret byte) ProbeResult {
	buf := make([]byte, 1)
	err := a.Platform().DMA.ReadInto(e.Base()+secretOff, buf)
	switch {
	case err != nil:
		return ProbeResult{Name: "dma-attack", Secure: true,
			Detail: "DMA access denied by controller"}
	case buf[0] == secret:
		return ProbeResult{Name: "dma-attack", Secure: false,
			Detail: "DMA read returned enclave plaintext"}
	default:
		return ProbeResult{Name: "dma-attack", Secure: true,
			Detail: fmt.Sprintf("DMA read returned %#x (not the secret)", buf[0])}
	}
}

// ProbeBusSnoop models a physical bus/cold-boot probe reading raw memory
// cells: only memory encryption defeats it.
func ProbeBusSnoop(a Architecture, e Enclave, secretOff uint32, secret byte) ProbeResult {
	buf := make([]byte, 1)
	if err := a.Platform().Mem.ReadRaw(e.Base()+secretOff, buf); err != nil {
		return ProbeResult{Name: "bus-snoop", Secure: true, Detail: "region unreadable"}
	}
	if buf[0] == secret {
		return ProbeResult{Name: "bus-snoop", Secure: false,
			Detail: "raw memory holds enclave plaintext (no memory encryption)"}
	}
	return ProbeResult{Name: "bus-snoop", Secure: true,
		Detail: "raw memory holds ciphertext"}
}

// ProbeAttestation exercises the enclave's attestation path under a
// challenger nonce: the report must carry the enclave's measurement and
// echo the challenge, and re-attesting under a different nonce must
// change the authenticator — the freshness binding attest.Verifier's
// replay defense (Freshness: issued nonces, each accepted once) builds
// on. The probe checks binding structurally, without the report key: a
// verifier-side MAC check is the challenger's job, but an attestation
// routine that ignores its nonce is broken regardless of who holds the
// key.
func ProbeAttestation(a Architecture, e Enclave, nonce []byte) ProbeResult {
	r, err := e.Attest(nonce)
	if err != nil {
		return ProbeResult{Name: "attest-freshness", Secure: false,
			Detail: "attestation unavailable: " + err.Error()}
	}
	if r.Measurement != e.Measurement() {
		return ProbeResult{Name: "attest-freshness", Secure: false,
			Detail: "report measurement does not match the enclave identity"}
	}
	if !bytes.Equal(r.Nonce, nonce) {
		return ProbeResult{Name: "attest-freshness", Secure: false,
			Detail: "report does not echo the challenger's nonce"}
	}
	// A second challenge must yield a different authenticator, or a
	// recorded report replays against every future challenge.
	other := make([]byte, len(nonce)+1)
	copy(other, nonce)
	other[len(nonce)] ^= 0xa5
	r2, err := e.Attest(other)
	if err != nil {
		return ProbeResult{Name: "attest-freshness", Secure: false,
			Detail: "re-attestation failed: " + err.Error()}
	}
	if bytes.Equal(r.MAC, r2.MAC) {
		return ProbeResult{Name: "attest-freshness", Secure: false,
			Detail: "authenticator did not change across challenges (replayable)"}
	}
	return ProbeResult{Name: "attest-freshness", Secure: true,
		Detail: "report binds measurement and challenge; authenticator is challenge-fresh"}
}

// ProbeOSAccess attempts a privileged CPU read of enclave memory from the
// untrusted-software domain (the malicious-OS adversary). The probe runs
// as an actual supervisor program on core 0, so CPU-side protection units
// (TrustLite's EA-MPU) are exercised alongside bus-side filters.
func ProbeOSAccess(a Architecture, e Enclave, secretOff uint32, secret byte) ProbeResult {
	p := a.Platform()
	c := p.Core(0)
	prog := isa.MustAssemble(fmt.Sprintf(".org %#x\nlbu a0, 0(a1)\nhlt", p.ScratchBase))
	if err := p.Mem.LoadProgram(prog); err != nil {
		return ProbeResult{Name: "os-access", Secure: false, Detail: "probe setup failed: " + err.Error()}
	}
	saved := *c
	defer func() { *c = saved }()
	c.Reset(p.ScratchBase)
	c.Priv = isa.PrivSuper
	c.World = mem.WorldNormal // the OS runs in the normal world
	c.Domain = 0
	c.Regs[isa.RegA1] = e.Base() + secretOff
	_, err := c.Run(100)
	switch {
	case err != nil:
		return ProbeResult{Name: "os-access", Secure: true,
			Detail: "privileged read faulted: " + err.Error()}
	case byte(c.Regs[isa.RegA0]) == secret:
		return ProbeResult{Name: "os-access", Secure: false,
			Detail: "privileged software read enclave plaintext"}
	default:
		return ProbeResult{Name: "os-access", Secure: true,
			Detail: fmt.Sprintf("privileged read returned %#x (abort value or ciphertext)", byte(c.Regs[isa.RegA0]))}
	}
}
