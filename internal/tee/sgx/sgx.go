// Package sgx implements the Intel SGX model from Section 3.1: user-space
// enclaves in a processor-reserved, MEE-encrypted page cache (EPC) with
// per-page ownership checks (EPCM), abort-page semantics for outside
// accesses, local reports and Ed25519 quotes, sealed storage, and secure
// page swapping (EWB/ELD) — including ELD's property of decrypting enclave
// pages into the L1 cache, which Foreshadow abuses.
//
// The TCB is the CPU plus "microcode": enclave management runs as Go code
// below the architectural interface, matching SGX's microcode TCB.
//
// See docs/ARCHITECTURE.md for the full package map and the
// paper-section cross-reference.
package sgx

import (
	"encoding/binary"
	"fmt"

	"github.com/intrust-sim/intrust/internal/attest"
	"github.com/intrust-sim/intrust/internal/cpu"
	"github.com/intrust-sim/intrust/internal/isa"
	"github.com/intrust-sim/intrust/internal/mem"
	"github.com/intrust-sim/intrust/internal/platform"
	"github.com/intrust-sim/intrust/internal/tee"
)

const pageSize = 4096

// SGX is one SGX-enabled platform instance.
type SGX struct {
	plat *platform.Platform
	mee  *mem.MEE

	epcBase, epcSize uint32
	epcm             map[uint32]int // page number -> owner enclave ID (0 free)
	enclaves         map[int]*Enclave
	nextID           int

	platformSecret []byte
	reportKey      []byte
	qk             *attest.QuotingKey

	// quotingEnclave holds the attestation key material inside EPC — the
	// asset Foreshadow extracts.
	quotingEnclave *Enclave

	// MitigateL1TF enables the microcode fix: flush L1 on every enclave
	// exit so terminal faults find nothing to forward.
	MitigateL1TF bool

	swapKey []byte
	swapSeq uint64
}

// Enclave is one SGX enclave.
type Enclave struct {
	sgx  *SGX
	id   int
	name string
	meas attest.Measurement

	base, size uint32
	entry      uint32
	dataBase   uint32

	destroyed bool
}

// New reserves the EPC on the platform, keys the MEE over it, and installs
// the EPCM access filter. The MEE key, the platform secret and the
// attestation key all derive from the platform's fuse.
func New(p *platform.Platform) (*SGX, error) {
	const epcBase, epcSize = 0x1000000, 0x200000 // 2 MiB EPC at 16 MiB
	meeKey := attest.DeriveKey(p.Fuse, "sgx/mee")
	mee, err := mem.NewMEE(p.Mem, epcBase, epcSize, meeKey[:16])
	if err != nil {
		return nil, fmt.Errorf("sgx: attach MEE: %w", err)
	}
	if err := mee.Init(); err != nil {
		return nil, err
	}
	p.Ctrl.AttachMEE(mee)

	secret := attest.DeriveKey(p.Fuse, "sgx/platform")
	qk := attest.NewQuotingKey(attest.DeriveKey(p.Fuse, "sgx/quoting"))
	s := &SGX{
		plat: p, mee: mee,
		epcBase: epcBase, epcSize: epcSize,
		epcm:           map[uint32]int{},
		enclaves:       map[int]*Enclave{},
		nextID:         1,
		platformSecret: secret[:],
		reportKey:      attest.SealKey(secret[:], attest.Measure([]byte("sgx-report-key"))),
		swapKey:        secret[:16],
		qk:             qk,
	}
	p.Ctrl.AddFilter(mem.FuncFilter{FilterName: "sgx-epcm", Fn: s.epcmCheck})

	// The architectural quoting enclave: its data region holds the
	// Ed25519 attestation seed, in EPC, like the real quoting enclave's
	// sealed key material.
	qe, err := s.CreateEnclave(tee.EnclaveConfig{
		Name:     "quoting-enclave",
		Program:  isa.MustAssemble(".org 0\nhlt"),
		DataSize: pageSize,
	})
	if err != nil {
		return nil, fmt.Errorf("sgx: quoting enclave: %w", err)
	}
	s.quotingEnclave = qe.(*Enclave)
	kb := qk.PrivateBytes()
	if err := s.mee.WritePlain(s.quotingEnclave.dataBase, kb); err != nil {
		return nil, err
	}
	return s, nil
}

// epcmCheck is the hardware page-ownership check. Crucially, outside
// accesses get ActionAbort (reads return all-ones, no exception): the
// abort-page semantics that make SGX immune to plain Meltdown.
func (s *SGX) epcmCheck(a mem.Access) mem.Action {
	if a.Addr < s.epcBase || a.Addr-s.epcBase >= s.epcSize {
		return mem.ActionAllow
	}
	if a.Init.Type != mem.InitCPU {
		return mem.ActionAbort // DMA sees abort values
	}
	owner := s.epcm[a.Addr/pageSize]
	if owner != 0 && a.Domain == owner {
		return mem.ActionAllow
	}
	return mem.ActionAbort
}

// Name implements tee.Architecture.
func (s *SGX) Name() string { return "Intel SGX (model)" }

// Class implements tee.Architecture.
func (s *SGX) Class() platform.Class { return platform.ClassServer }

// Platform implements tee.Architecture.
func (s *SGX) Platform() *platform.Platform { return s.plat }

// Capabilities implements tee.Architecture.
func (s *SGX) Capabilities() tee.Capabilities {
	return tee.Capabilities{
		MultipleEnclaves:  true,
		MemoryEncryption:  true,
		DMAProtection:     true,
		CacheDefense:      tee.DefenseNone, // "SGX ... does not provide cache side-channel protection"
		FlushOnSwitch:     false,
		RemoteAttestation: true,
		SealedStorage:     true,
		RealTime:          false,
		SecurePeripherals: false, // no secure I/O paths, unlike TrustZone
		CodeIsolation:     true,
	}
}

// EPCBase returns the EPC range start (for attack harnesses).
func (s *SGX) EPCBase() uint32 { return s.epcBase }

// QuotingKeyAddress returns the physical address of the attestation key
// inside the quoting enclave — the Foreshadow target.
func (s *SGX) QuotingKeyAddress() (uint32, int) {
	return s.quotingEnclave.dataBase, len(s.qk.PrivateBytes())
}

// QuotingPublic exposes the platform verification key.
func (s *SGX) QuotingPublic() *attest.QuotingKey { return s.qk }

// QuotingEnclaveHandle exposes the quoting enclave for paging operations
// (the OS legitimately manages EPC paging for every enclave — that is the
// design decision Foreshadow abuses).
func (s *SGX) QuotingEnclaveHandle() *Enclave { return s.quotingEnclave }

func (s *SGX) allocPages(n int, owner int) (uint32, error) {
	pages := s.epcSize / pageSize
	for run := uint32(0); run+uint32(n) <= pages; run++ {
		free := true
		for i := uint32(0); i < uint32(n); i++ {
			if s.epcm[(s.epcBase+(run+i)*pageSize)/pageSize] != 0 {
				free = false
				break
			}
		}
		if free {
			for i := uint32(0); i < uint32(n); i++ {
				s.epcm[(s.epcBase+(run+i)*pageSize)/pageSize] = owner
			}
			return s.epcBase + run*pageSize, nil
		}
	}
	return 0, fmt.Errorf("sgx: EPC exhausted (%d pages requested)", n)
}

// CreateEnclave implements ECREATE/EADD/EEXTEND/EINIT: pages are
// allocated, the image is copied into encrypted EPC and measured.
func (s *SGX) CreateEnclave(cfg tee.EnclaveConfig) (tee.Enclave, error) {
	if cfg.Program == nil || len(cfg.Program.Segments) == 0 {
		return nil, fmt.Errorf("sgx: enclave %q has no program", cfg.Name)
	}
	id := s.nextID
	s.nextID++

	// Linearize the image from program segments (offsets are relative to
	// the first segment base).
	img, entryOff, err := linearize(cfg.Program)
	if err != nil {
		return nil, err
	}
	codePages := (uint32(len(img)) + pageSize - 1) / pageSize
	dataPages := (cfg.DataSize + pageSize - 1) / pageSize
	base, err := s.allocPages(int(codePages+dataPages), id)
	if err != nil {
		return nil, err
	}
	// EADD: copy through the MEE (plaintext never hits the bus).
	if err := s.mee.WritePlain(base, img); err != nil {
		return nil, err
	}
	meas := attest.Measure(img).Extend([]byte(cfg.Name))
	e := &Enclave{
		sgx: s, id: id, name: cfg.Name, meas: meas,
		base: base, size: (codePages + dataPages) * pageSize,
		entry:    base + entryOff,
		dataBase: base + codePages*pageSize,
	}
	s.enclaves[id] = e
	return e, nil
}

func linearize(p *isa.Program) ([]byte, uint32, error) {
	base := p.Segments[0].Base
	end := base
	for _, seg := range p.Segments {
		if seg.Base < base {
			base = seg.Base
		}
		if seg.Base+uint32(len(seg.Data)) > end {
			end = seg.Base + uint32(len(seg.Data))
		}
	}
	if end-base > 1<<20 {
		return nil, 0, fmt.Errorf("sgx: image too large (%d bytes)", end-base)
	}
	img := make([]byte, end-base)
	for _, seg := range p.Segments {
		copy(img[seg.Base-base:], seg.Data)
	}
	return img, p.Entry - base, nil
}

// ID implements tee.Enclave.
func (e *Enclave) ID() int { return e.id }

// Name implements tee.Enclave.
func (e *Enclave) Name() string { return e.name }

// Measurement implements tee.Enclave (MRENCLAVE).
func (e *Enclave) Measurement() attest.Measurement { return e.meas }

// Base implements tee.Enclave.
func (e *Enclave) Base() uint32 { return e.base }

// Size implements tee.Enclave.
func (e *Enclave) Size() uint32 { return e.size }

// Call implements EENTER/EEXIT: the core switches into the enclave's
// security domain, runs the enclave code in user mode, and switches back.
// On exit the L1 is flushed only when the L1TF mitigation is enabled.
func (e *Enclave) Call(args ...uint32) ([2]uint32, error) {
	if e.destroyed {
		return [2]uint32{}, fmt.Errorf("sgx: enclave %d destroyed", e.id)
	}
	c := e.sgx.plat.Core(0)
	saved := *c
	c.Reset(e.entry)
	c.Priv = isa.PrivUser
	c.Domain = e.id
	for i, a := range args {
		if i >= 4 {
			break
		}
		c.Regs[isa.RegA0+uint8(i)] = a
	}
	res, err := c.Run(2_000_000)
	ret := [2]uint32{c.Regs[isa.RegA0], c.Regs[isa.RegA1]}
	// AEX/EEXIT: restore the host context; domain drops to untrusted.
	cycles, instret := c.Cycles, c.Instret
	*c = saved
	c.Cycles, c.Instret = cycles, instret
	if e.sgx.MitigateL1TF {
		c.Hier.FlushL1()
	}
	if err != nil {
		return ret, fmt.Errorf("sgx: enclave %d faulted: %w", e.id, err)
	}
	if res.Reason != cpu.StopHalt {
		return ret, fmt.Errorf("sgx: enclave %d did not exit cleanly: %v", e.id, res.Reason)
	}
	return ret, nil
}

// ReadData / WriteData move plaintext between the host harness and the
// enclave's data region through the MEE (modeling in-enclave accesses by
// trusted code paths).
func (e *Enclave) ReadData(off uint32, buf []byte) error {
	return e.sgx.mee.ReadPlain(e.dataBase+off, buf)
}

// WriteData writes into the enclave data region.
func (e *Enclave) WriteData(off uint32, buf []byte) error {
	return e.sgx.mee.WritePlain(e.dataBase+off, buf)
}

// DataBase returns the physical base of the data region.
func (e *Enclave) DataBase() uint32 { return e.dataBase }

// Attest implements EREPORT: a local report MACed with the platform
// report key.
func (e *Enclave) Attest(nonce []byte) (*attest.Report, error) {
	return attest.NewReport(e.sgx.reportKey, e.meas, nonce, nil), nil
}

// Quote upgrades a local report to a remotely verifiable Ed25519 quote via
// the quoting enclave.
func (e *Enclave) Quote(nonce []byte) *attest.Quote {
	return e.sgx.qk.Sign(attest.NewReport(e.sgx.reportKey, e.meas, nonce, nil))
}

// ReportKey exposes the local-attestation key to verifiers on the same
// platform (local attestation's shared secret).
func (s *SGX) ReportKey() []byte { return s.reportKey }

// Seal implements tee.Enclave: AES-GCM under a key derived from the
// platform secret and MRENCLAVE.
func (e *Enclave) Seal(data []byte) ([]byte, error) {
	return attest.Seal(e.sgx.platformSecret, e.meas, data)
}

// Unseal implements tee.Enclave.
func (e *Enclave) Unseal(blob []byte) ([]byte, error) {
	return attest.Unseal(e.sgx.platformSecret, e.meas, blob)
}

// Destroy implements EREMOVE for all the enclave's pages.
func (e *Enclave) Destroy() error {
	for p := e.base / pageSize; p < (e.base+e.size)/pageSize; p++ {
		delete(e.sgx.epcm, p)
	}
	zero := make([]byte, e.size)
	if err := e.sgx.mee.WritePlain(e.base, zero); err != nil {
		return err
	}
	e.destroyed = true
	delete(e.sgx.enclaves, e.id)
	return nil
}

// SwapBlob is an encrypted, versioned evicted page.
type SwapBlob struct {
	Page    uint32
	Owner   int
	Seq     uint64
	Payload []byte // sealed page contents
}

// EWB evicts an enclave page to untrusted storage: the page is decrypted
// from the EPC, re-encrypted under the swapping key with a version number
// (anti-replay), and the EPC slot is freed.
func (s *SGX) EWB(e *Enclave, pageAddr uint32) (*SwapBlob, error) {
	if pageAddr%pageSize != 0 || s.epcm[pageAddr/pageSize] != e.id {
		return nil, fmt.Errorf("sgx: EWB of page %#x not owned by enclave %d", pageAddr, e.id)
	}
	pt := make([]byte, pageSize)
	if err := s.mee.ReadPlain(pageAddr, pt); err != nil {
		return nil, err
	}
	s.swapSeq++
	var aad [12]byte
	binary.LittleEndian.PutUint32(aad[0:], pageAddr)
	binary.LittleEndian.PutUint64(aad[4:], s.swapSeq)
	sealed, err := attest.Seal(s.swapKey, attest.Measure(aad[:]), pt)
	if err != nil {
		return nil, err
	}
	zero := make([]byte, pageSize)
	if err := s.mee.WritePlain(pageAddr, zero); err != nil {
		return nil, err
	}
	delete(s.epcm, pageAddr/pageSize)
	return &SwapBlob{Page: pageAddr, Owner: e.id, Seq: s.swapSeq, Payload: sealed}, nil
}

// ELD loads an evicted page back into the EPC. Faithfully to the hardware,
// the decrypted contents pass through the L1 data cache — the behaviour
// Foreshadow exploits to preload arbitrary enclave pages into L1
// ("arbitrary encrypted enclave pages can be externally forced to be
// decrypted to the L1 cache using SGX's secure page swapping").
func (s *SGX) ELD(blob *SwapBlob) error {
	if s.epcm[blob.Page/pageSize] != 0 {
		return fmt.Errorf("sgx: ELD target page %#x in use", blob.Page)
	}
	var aad [12]byte
	binary.LittleEndian.PutUint32(aad[0:], blob.Page)
	binary.LittleEndian.PutUint64(aad[4:], blob.Seq)
	pt, err := attest.Unseal(s.swapKey, attest.Measure(aad[:]), blob.Payload)
	if err != nil {
		return fmt.Errorf("sgx: ELD integrity/replay check failed: %w", err)
	}
	if err := s.mee.WritePlain(blob.Page, pt); err != nil {
		return err
	}
	s.epcm[blob.Page/pageSize] = blob.Owner
	// The decrypt path fills L1 lines with the page's plaintext, tagged
	// with the owner's domain.
	h := s.plat.Core(0).Hier
	for off := uint32(0); off < pageSize; off += 64 {
		h.Data(blob.Page+off, false, blob.Owner)
	}
	return nil
}
