package mem

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
)

// meeBlock is the MEE protection granule in bytes (one AES block).
const meeBlock = 16

// MEE is a memory encryption engine in the style of Intel SGX's MEE: data
// inside the protected range is stored in physical memory only as
// ciphertext, with per-block version counters (anti-replay) and MACs
// (integrity). CPU-initiated accesses are transparently decrypted and
// re-encrypted at the controller; every other observer of the physical
// cells — DMA engines, bus probes, cold-boot reads — sees ciphertext.
//
// Sanctum deliberately omits this engine; the TAB2 "bus snoop" probe
// observes the difference.
type MEE struct {
	// Base and Size delimit the protected physical range.
	Base, Size uint32
	// Latency is the extra access latency in cycles the engine adds to a
	// memory transaction (used by the MEE-cost ablation).
	Latency int

	mem *Memory
	// enc derives each block's keystream from its address and version;
	// macEnc is the independent MAC key (see mac).
	enc, macEnc cipher.Block
	versions    []uint64
	macs        [][8]byte // truncated 8-byte MACs
	// IntegrityFailures counts MAC mismatches observed on reads.
	IntegrityFailures uint64

	// Per-access scratch blocks. The engine feeds them to
	// cipher.Block.Encrypt, an interface call, so stack-local arrays
	// would escape and heap-allocate on every protected access; fields
	// reachable from the receiver do not. The engine is single-threaded
	// like the platform it serves.
	padIn, padOut, macBuf, blkCT [meeBlock]byte
}

// NewMEE creates an engine over [base, base+size) keyed with key (16 bytes).
// The range must be block-aligned.
func NewMEE(m *Memory, base, size uint32, key []byte) (*MEE, error) {
	if base%meeBlock != 0 || size%meeBlock != 0 {
		return nil, fmt.Errorf("mem: MEE range %#x+%#x not %d-byte aligned", base, size, meeBlock)
	}
	blk, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("mem: MEE key: %w", err)
	}
	mk := sha256.Sum256(append(append([]byte{}, key...), []byte("intrust-mee-mac")...))
	macBlk, err := aes.NewCipher(mk[:16])
	if err != nil {
		return nil, fmt.Errorf("mem: MEE MAC key: %w", err)
	}
	return &MEE{
		Base: base, Size: size, Latency: 12,
		mem:      m,
		enc:      blk,
		macEnc:   macBlk,
		versions: make([]uint64, size/meeBlock),
		macs:     make([][8]byte, size/meeBlock),
	}, nil
}

// Covers reports whether addr lies inside the protected range.
func (e *MEE) Covers(addr uint32) bool {
	return addr >= e.Base && addr-e.Base < e.Size
}

// Init encrypts the current contents of the protected range in place, a
// page at a time: every block gets version 1 and a MAC, so a block
// nothing has written since still detects tampering and replay. Call it
// after loading initial images and before first use. The range must lie
// inside one RAM region.
func (e *MEE) Init() error {
	rs := e.mem.span(e.Base, int(e.Size))
	if rs == nil || rs.Kind != RegionRAM {
		return fmt.Errorf("mem: MEE init: range %#x+%#x is not inside one RAM region", e.Base, e.Size)
	}
	var page [pageSize]byte
	for lo := uint32(0); lo < e.Size; lo += pageSize {
		buf := page[:min(pageSize, e.Size-lo)]
		rs.readAt(e.Base-rs.Base+lo, buf)
		for i := 0; i < len(buf); i += meeBlock {
			blk := buf[i : i+meeBlock]
			e.seal((lo+uint32(i))/meeBlock, blk, blk)
		}
		rs.writeAt(e.Base-rs.Base+lo, buf)
	}
	return nil
}

func (e *MEE) pad(block uint32, version uint64) [meeBlock]byte {
	binary.LittleEndian.PutUint32(e.padIn[0:], block)
	binary.LittleEndian.PutUint32(e.padIn[4:], 0)
	binary.LittleEndian.PutUint64(e.padIn[8:], version)
	e.enc.Encrypt(e.padOut[:], e.padIn[:])
	return e.padOut
}

// mac is a fixed-length, two-block AES CBC-MAC over the block's address
// and version, then its ciphertext, truncated to 8 bytes:
//
//	trunc8(E(E(LE32 block ‖ LE64 version ‖ 0⁴) ⊕ ct))
//
// Every message is exactly two blocks, so plain CBC-MAC is a secure MAC
// here, and a tag binds one block address at one version. Real SGX's
// engine likewise uses a cheap block-cipher-based MAC rather than a hash
// (Gueron, IACR ePrint 2016/204).
func (e *MEE) mac(block uint32, version uint64, ct []byte) [8]byte {
	binary.LittleEndian.PutUint32(e.macBuf[0:], block)
	binary.LittleEndian.PutUint64(e.macBuf[4:], version)
	binary.LittleEndian.PutUint32(e.macBuf[12:], 0)
	e.macEnc.Encrypt(e.macBuf[:], e.macBuf[:])
	subtle.XORBytes(e.macBuf[:], e.macBuf[:], ct[:meeBlock])
	e.macEnc.Encrypt(e.macBuf[:], e.macBuf[:])
	return [8]byte(e.macBuf[:8])
}

// seal encrypts the plaintext block pt into dst as block b under a fresh
// version and records its MAC. dst and pt may be the same slice.
func (e *MEE) seal(b uint32, dst, pt []byte) {
	e.versions[b]++
	pad := e.pad(b, e.versions[b])
	subtle.XORBytes(dst[:meeBlock], pt[:meeBlock], pad[:])
	e.macs[b] = e.mac(b, e.versions[b], dst)
}

// loadBlock fetches and authenticates block b, returning its plaintext.
func (e *MEE) loadBlock(b uint32) ([meeBlock]byte, error) {
	var pt [meeBlock]byte
	if err := e.mem.ReadRaw(e.Base+b*meeBlock, e.blkCT[:]); err != nil {
		return pt, err
	}
	want := e.mac(b, e.versions[b], e.blkCT[:])
	if e.macs[b] != want {
		e.IntegrityFailures++
		return pt, fmt.Errorf("mem: MEE integrity failure at block %#x (tampering or replay detected)", e.Base+b*meeBlock)
	}
	pad := e.pad(b, e.versions[b])
	for i := range pt {
		pt[i] = e.blkCT[i] ^ pad[i]
	}
	return pt, nil
}

// storeBlock encrypts pt into block b with a fresh version.
func (e *MEE) storeBlock(b uint32, pt []byte) error {
	e.seal(b, e.blkCT[:], pt)
	return e.mem.WriteRaw(e.Base+b*meeBlock, e.blkCT[:])
}

// Read decrypts and returns size bytes at addr.
func (e *MEE) Read(addr uint32, size int) (uint32, error) {
	b := (addr - e.Base) / meeBlock
	pt, err := e.loadBlock(b)
	if err != nil {
		return 0, err
	}
	off := (addr - e.Base) % meeBlock
	var v uint32
	for i := 0; i < size; i++ {
		v |= uint32(pt[off+uint32(i)]) << (8 * i)
	}
	return v, nil
}

// Write read-modify-writes size bytes at addr through the engine.
func (e *MEE) Write(addr uint32, size int, v uint32) error {
	b := (addr - e.Base) / meeBlock
	pt, err := e.loadBlock(b)
	if err != nil {
		return err
	}
	off := (addr - e.Base) % meeBlock
	for i := 0; i < size; i++ {
		pt[off+uint32(i)] = byte(v >> (8 * i))
	}
	return e.storeBlock(b, pt[:])
}

// checkRange rejects a non-empty plain-I/O range that leaves the
// protected range.
func (e *MEE) checkRange(addr uint32, n int) error {
	if n > 0 && (!e.Covers(addr) || uint64(addr-e.Base)+uint64(n) > uint64(e.Size)) {
		return fmt.Errorf("mem: MEE plain access %#x+%#x outside %#x+%#x", addr, n, e.Base, e.Size)
	}
	return nil
}

// ReadPlain decrypts len(buf) bytes starting at addr into buf, with one
// authenticated block load per block the range touches; it is the
// privileged path used by the enclave paging engine (EWB/ELD).
func (e *MEE) ReadPlain(addr uint32, buf []byte) error {
	if err := e.checkRange(addr, len(buf)); err != nil {
		return err
	}
	for len(buf) > 0 {
		rel := addr - e.Base
		pt, err := e.loadBlock(rel / meeBlock)
		if err != nil {
			return err
		}
		n := copy(buf, pt[rel%meeBlock:])
		buf = buf[n:]
		addr += uint32(n)
	}
	return nil
}

// WritePlain encrypts buf into the protected range starting at addr. Each
// block the range touches is loaded (and authenticated) once, merged and
// stored once under the next version — the load stays even when buf
// covers the whole block, so a write into a tampered block fails.
func (e *MEE) WritePlain(addr uint32, buf []byte) error {
	if err := e.checkRange(addr, len(buf)); err != nil {
		return err
	}
	for len(buf) > 0 {
		rel := addr - e.Base
		b := rel / meeBlock
		pt, err := e.loadBlock(b)
		if err != nil {
			return err
		}
		n := copy(pt[rel%meeBlock:], buf)
		if err := e.storeBlock(b, pt[:]); err != nil {
			return err
		}
		buf = buf[n:]
		addr += uint32(n)
	}
	return nil
}

// AccessLatency returns the extra cycles the controller charges for a
// memory transaction at addr (MEE crypto pipeline cost, 0 elsewhere).
func (c *Controller) AccessLatency(addr uint32) int {
	if m := c.meeFor(addr); m != nil {
		return m.Latency
	}
	return 0
}
