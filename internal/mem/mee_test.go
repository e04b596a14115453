package mem

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func meeSetup(t *testing.T) (*Memory, *Controller, *MEE) {
	t.Helper()
	m := NewMemory()
	m.MustAddRegion(Region{Name: "ram", Base: 0x1000, Size: 0x2000, Kind: RegionRAM})
	c := NewController(m)
	key := bytes.Repeat([]byte{0x42}, 16)
	mee, err := NewMEE(m, 0x1800, 0x800, key)
	if err != nil {
		t.Fatal(err)
	}
	if err := mee.Init(); err != nil {
		t.Fatal(err)
	}
	c.AttachMEE(mee)
	return m, c, mee
}

func TestMEETransparentForCPU(t *testing.T) {
	_, c, _ := meeSetup(t)
	if err := c.Write(cpuAccess(0x1800, 4, KindStore), 0xcafebabe); err != nil {
		t.Fatal(err)
	}
	v, err := c.Read(cpuAccess(0x1800, 4, KindLoad))
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xcafebabe {
		t.Fatalf("CPU read through MEE = %#x", v)
	}
}

func TestMEEStoresCiphertext(t *testing.T) {
	m, c, _ := meeSetup(t)
	secret := []byte("enclave secret!!") // 16 bytes, one block
	for i, b := range secret {
		if err := c.Write(cpuAccess(0x1800+uint32(i), 1, KindStore), uint32(b)); err != nil {
			t.Fatal(err)
		}
	}
	// A physical probe sees ciphertext, not the secret.
	raw := make([]byte, len(secret))
	if err := m.ReadRaw(0x1800, raw); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(raw, secret) {
		t.Fatal("plaintext visible to physical probe in MEE region")
	}
	if bytes.Contains(raw, []byte("secret")) {
		t.Fatal("secret substring visible in ciphertext")
	}
	// The unprotected part of RAM stays plaintext.
	if err := c.Write(cpuAccess(0x1000, 4, KindStore), 0x41414141); err != nil {
		t.Fatal(err)
	}
	plain := make([]byte, 4)
	if err := m.ReadRaw(0x1000, plain); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain, []byte("AAAA")) {
		t.Fatalf("unprotected RAM = %x", plain)
	}
}

func TestMEERoundTripQuick(t *testing.T) {
	_, c, _ := meeSetup(t)
	rng := rand.New(rand.NewSource(3))
	f := func(val uint32) bool {
		addr := 0x1800 + uint32(rng.Intn(0x200))*4
		if err := c.Write(cpuAccess(addr, 4, KindStore), val); err != nil {
			return false
		}
		got, err := c.Read(cpuAccess(addr, 4, KindLoad))
		return err == nil && got == val
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMEEDetectsTampering(t *testing.T) {
	m, c, mee := meeSetup(t)
	if err := c.Write(cpuAccess(0x1800, 4, KindStore), 0x11223344); err != nil {
		t.Fatal(err)
	}
	// Physical attacker flips a ciphertext bit.
	raw := make([]byte, 1)
	if err := m.ReadRaw(0x1800, raw); err != nil {
		t.Fatal(err)
	}
	raw[0] ^= 0x80
	if err := m.WriteRaw(0x1800, raw); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(cpuAccess(0x1800, 4, KindLoad)); err == nil {
		t.Fatal("tampered MEE block read succeeded")
	}
	if mee.IntegrityFailures == 0 {
		t.Error("integrity failure not counted")
	}
}

func TestMEEDetectsReplay(t *testing.T) {
	m, c, _ := meeSetup(t)
	// Capture old ciphertext, let the CPU update the block, then replay.
	if err := c.Write(cpuAccess(0x1810, 4, KindStore), 1); err != nil {
		t.Fatal(err)
	}
	old := make([]byte, meeBlock)
	if err := m.ReadRaw(0x1810, old); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(cpuAccess(0x1810, 4, KindStore), 2); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteRaw(0x1810, old); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(cpuAccess(0x1810, 4, KindLoad)); err == nil {
		t.Fatal("replayed MEE block accepted")
	}
}

func TestMEEPlainHelpers(t *testing.T) {
	_, _, mee := meeSetup(t)
	msg := []byte("page contents for EWB/ELD swap ")
	if err := mee.WritePlain(0x1900, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := mee.ReadPlain(0x1900, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("ReadPlain = %q", got)
	}
}

func TestMEEAlignmentAndKeyValidation(t *testing.T) {
	m := NewMemory()
	m.MustAddRegion(Region{Name: "ram", Base: 0, Size: 0x1000, Kind: RegionRAM})
	if _, err := NewMEE(m, 8, 64, bytes.Repeat([]byte{1}, 16)); err == nil {
		t.Error("misaligned MEE accepted")
	}
	if _, err := NewMEE(m, 0, 64, []byte("short")); err == nil {
		t.Error("bad key accepted")
	}
}

func TestMEEAccessLatency(t *testing.T) {
	_, c, mee := meeSetup(t)
	if got := c.AccessLatency(0x1800); got != mee.Latency {
		t.Errorf("latency in region = %d, want %d", got, mee.Latency)
	}
	if got := c.AccessLatency(0x1000); got != 0 {
		t.Errorf("latency outside region = %d", got)
	}
}

func TestDMAReadsCiphertextViaController(t *testing.T) {
	// Without an EPCM-style filter, DMA can read the MEE region through the
	// controller — but still only sees ciphertext because the MEE only
	// decrypts for CPU initiators. This is SGX's DMA-attack protection.
	_, c, _ := meeSetup(t)
	secret := uint32(0x5ec2e700)
	if err := c.Write(cpuAccess(0x1820, 4, KindStore), secret); err != nil {
		t.Fatal(err)
	}
	dma := NewDMA(c, 2)
	buf := make([]byte, 4)
	if err := dma.ReadInto(0x1820, buf); err != nil {
		t.Fatal(err)
	}
	got := uint32(buf[0]) | uint32(buf[1])<<8 | uint32(buf[2])<<16 | uint32(buf[3])<<24
	if got == secret {
		t.Fatal("DMA observed plaintext in MEE region")
	}
}

// Property: ReadPlain and WritePlain over unaligned ranges spanning
// several blocks agree with byte-at-a-time Read and Write through a
// second engine under the same key.
func TestMEEPlainMatchesByteReference(t *testing.T) {
	_, _, mee := meeSetup(t)
	_, _, ref := meeSetup(t)
	f := func(off uint16, data []byte, readOff uint16, readLen uint8) bool {
		if len(data) > 100 {
			data = data[:100]
		}
		addr := mee.Base + uint32(off)%(mee.Size-100)
		if err := mee.WritePlain(addr, data); err != nil {
			return false
		}
		for i, b := range data {
			if err := ref.Write(addr+uint32(i), 1, uint32(b)); err != nil {
				return false
			}
		}
		raddr := mee.Base + uint32(readOff)%(mee.Size-255)
		got := make([]byte, readLen)
		if err := mee.ReadPlain(raddr, got); err != nil {
			return false
		}
		for i := range got {
			v, err := ref.Read(raddr+uint32(i), 1)
			if err != nil || byte(v) != got[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
	whole, want := make([]byte, mee.Size), make([]byte, ref.Size)
	if err := mee.ReadPlain(mee.Base, whole); err != nil {
		t.Fatal(err)
	}
	if err := ref.ReadPlain(ref.Base, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(whole, want) {
		t.Fatal("block-granular and byte-granular engines hold different plaintext")
	}
	if mee.IntegrityFailures != 0 || ref.IntegrityFailures != 0 {
		t.Fatal("integrity failures on untampered engines")
	}
}

// A block only Init ever encrypted is authenticated like any other: a raw
// bit flip, a splice of another block's ciphertext and a replay of its
// Init-time ciphertext are all detected.
func TestMEEInitOnlyBlocksDetectTampering(t *testing.T) {
	m, c, mee := meeSetup(t)
	const blk = 0x1a00
	read := func() error {
		_, err := c.Read(cpuAccess(blk, 4, KindLoad))
		return err
	}
	if err := read(); err != nil {
		t.Fatalf("init-only block unreadable: %v", err)
	}
	orig := make([]byte, meeBlock)
	if err := m.ReadRaw(blk, orig); err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), orig...)
	flipped[5] ^= 0x01
	other := make([]byte, meeBlock)
	if err := m.ReadRaw(blk+meeBlock, other); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		ct   []byte
	}{{"bit flip", flipped}, {"splice", other}} {
		if err := m.WriteRaw(blk, tc.ct); err != nil {
			t.Fatal(err)
		}
		before := mee.IntegrityFailures
		if read() == nil {
			t.Errorf("%s of an init-only block accepted", tc.name)
		}
		if mee.IntegrityFailures != before+1 {
			t.Errorf("%s: integrity failures %d -> %d", tc.name, before, mee.IntegrityFailures)
		}
	}
	// Restore, let the CPU write the block, then replay the Init ciphertext.
	if err := m.WriteRaw(blk, orig); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(cpuAccess(blk, 4, KindStore), 7); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteRaw(blk, orig); err != nil {
		t.Fatal(err)
	}
	if read() == nil {
		t.Error("replayed Init-time ciphertext accepted")
	}
}

// WritePlain into a tampered block fails before storing anything, even
// when it would overwrite the whole block.
func TestMEEWritePlainIntoTamperedBlock(t *testing.T) {
	for _, n := range []int{3, meeBlock, 3 * meeBlock} {
		m, _, mee := meeSetup(t)
		const blk = 0x1840
		ct := make([]byte, meeBlock)
		if err := m.ReadRaw(blk, ct); err != nil {
			t.Fatal(err)
		}
		ct[0] ^= 0x10
		if err := m.WriteRaw(blk, ct); err != nil {
			t.Fatal(err)
		}
		if err := mee.WritePlain(blk, bytes.Repeat([]byte{0xee}, n)); err == nil {
			t.Errorf("%d-byte WritePlain into a tampered block succeeded", n)
		}
		if mee.IntegrityFailures != 1 {
			t.Errorf("%d-byte write: IntegrityFailures = %d, want 1", n, mee.IntegrityFailures)
		}
		after := make([]byte, meeBlock)
		if err := m.ReadRaw(blk, after); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, ct) {
			t.Errorf("%d-byte write changed the tampered block's ciphertext", n)
		}
	}
}

func TestMEEPlainRangeChecked(t *testing.T) {
	_, _, mee := meeSetup(t)
	buf := make([]byte, 32)
	for _, addr := range []uint32{mee.Base - 16, mee.Base + mee.Size - 16, mee.Base + mee.Size} {
		if err := mee.ReadPlain(addr, buf); err == nil {
			t.Errorf("ReadPlain at %#x+%d outside the engine succeeded", addr, len(buf))
		}
		if err := mee.WritePlain(addr, buf); err == nil {
			t.Errorf("WritePlain at %#x+%d outside the engine succeeded", addr, len(buf))
		}
	}
}

// TestMEEInitAllocs pins that Init allocates the range's missing pages
// and nothing else: no staging buffer or cipher scratch per call.
func TestMEEInitAllocs(t *testing.T) {
	_, _, mee := meeSetup(t) // its Init allocated the pages
	if n := testing.AllocsPerRun(5, func() {
		if err := mee.Init(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("MEE.Init over allocated pages: %v allocs, want 0", n)
	}
}

func BenchmarkMEEInit(b *testing.B) {
	const epcBase, epcSize = 0x1000000, 0x200000 // the SGX model's 2 MiB EPC
	m := NewMemory()
	m.MustAddRegion(Region{Name: "dram", Base: epcBase, Size: epcSize, Kind: RegionRAM})
	mee, err := NewMEE(m, epcBase, epcSize, bytes.Repeat([]byte{0x42}, 16))
	if err != nil {
		b.Fatal(err)
	}
	// The first Init allocates the EPC's pages; time the passes after it,
	// which allocate nothing.
	if err := mee.Init(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(epcSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mee.Init(); err != nil {
			b.Fatal(err)
		}
	}
}
