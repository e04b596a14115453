package mem

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/intrust-sim/intrust/internal/isa"
)

func testMemory(t *testing.T) *Memory {
	t.Helper()
	m := NewMemory()
	m.MustAddRegion(Region{Name: "ram", Base: 0x1000, Size: 0x4000, Kind: RegionRAM})
	m.MustAddRegion(Region{Name: "rom", Base: 0x0, Size: 0x400, Kind: RegionROM})
	return m
}

func cpuAccess(addr uint32, size int, kind AccessKind) Access {
	return Access{Addr: addr, Size: size, Kind: kind, Priv: isa.PrivMachine,
		Init: Initiator{Type: InitCPU}}
}

func TestMemoryReadWriteRoundTrip(t *testing.T) {
	m := testMemory(t)
	c := NewController(m)
	if err := c.Write(cpuAccess(0x1000, 4, KindStore), 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	v, err := c.Read(cpuAccess(0x1000, 4, KindLoad))
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xdeadbeef {
		t.Fatalf("read = %#x", v)
	}
	// Byte granularity.
	v, err = c.Read(cpuAccess(0x1003, 1, KindLoad))
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xde {
		t.Fatalf("byte read = %#x", v)
	}
}

func TestMemoryRoundTripQuick(t *testing.T) {
	m := testMemory(t)
	c := NewController(m)
	rng := rand.New(rand.NewSource(7))
	f := func(val uint32) bool {
		addr := 0x1000 + uint32(rng.Intn(0x1000))*4
		if err := c.Write(cpuAccess(addr, 4, KindStore), val); err != nil {
			return false
		}
		got, err := c.Read(cpuAccess(addr, 4, KindLoad))
		return err == nil && got == val
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestROMRejectsStores(t *testing.T) {
	m := testMemory(t)
	c := NewController(m)
	if err := c.Write(cpuAccess(0x0, 4, KindStore), 1); err == nil {
		t.Fatal("store to ROM succeeded")
	}
	// But LoadImage (provisioning) can write ROM.
	if err := m.LoadImage(0, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	v, err := c.Read(cpuAccess(0x0, 4, KindLoad))
	if err != nil {
		t.Fatal(err)
	}
	if v != 0x04030201 {
		t.Fatalf("ROM read = %#x", v)
	}
}

func TestUnmappedAndMisaligned(t *testing.T) {
	m := testMemory(t)
	c := NewController(m)
	if _, err := c.Read(cpuAccess(0x9000000, 4, KindLoad)); err == nil {
		t.Error("unmapped read succeeded")
	}
	if _, err := c.Read(cpuAccess(0x1002, 4, KindLoad)); err == nil {
		t.Error("misaligned read succeeded")
	}
	if _, err := c.Read(Access{Addr: 0x1000, Size: 3}); err == nil {
		t.Error("bad size accepted")
	}
}

func TestRegionOverlapRejected(t *testing.T) {
	m := testMemory(t)
	if err := m.AddRegion(Region{Name: "clash", Base: 0x2000, Size: 16, Kind: RegionRAM}); err == nil {
		t.Error("overlapping region accepted")
	}
	if err := m.AddRegion(Region{Name: "empty", Base: 0x100000, Size: 0}); err == nil {
		t.Error("zero-size region accepted")
	}
	if err := m.AddRegion(Region{Name: "wrap", Base: 0xfffffff0, Size: 0x100}); err == nil {
		t.Error("wrapping region accepted")
	}
}

type testDevice struct {
	regs [4]uint32
}

func (d *testDevice) Read32(off uint32) uint32     { return d.regs[off/4] }
func (d *testDevice) Write32(off uint32, v uint32) { d.regs[off/4] = v }

func TestMMIODevice(t *testing.T) {
	m := NewMemory()
	dev := &testDevice{}
	m.MustAddRegion(Region{Name: "dev", Base: 0xf000, Size: 16, Kind: RegionMMIO, Device: dev})
	c := NewController(m)
	if err := c.Write(cpuAccess(0xf004, 4, KindStore), 0x55); err != nil {
		t.Fatal(err)
	}
	if dev.regs[1] != 0x55 {
		t.Fatalf("device reg = %#x", dev.regs[1])
	}
	v, err := c.Read(cpuAccess(0xf004, 4, KindLoad))
	if err != nil || v != 0x55 {
		t.Fatalf("mmio read = %#x, %v", v, err)
	}
}

func TestFilterDenyAndAbort(t *testing.T) {
	m := testMemory(t)
	c := NewController(m)
	// Protect [0x2000,0x3000): deny non-machine, abort DMA.
	c.AddFilter(FuncFilter{FilterName: "guard", Fn: func(a Access) Action {
		if a.Addr < 0x2000 || a.Addr >= 0x3000 {
			return ActionAllow
		}
		if a.Init.Type == InitDMA {
			return ActionAbort
		}
		if a.Priv < isa.PrivMachine {
			return ActionDeny
		}
		return ActionAllow
	}})

	if err := c.Write(cpuAccess(0x2000, 4, KindStore), 0x1234); err != nil {
		t.Fatal(err)
	}
	// User-privilege read is denied.
	ua := cpuAccess(0x2000, 4, KindLoad)
	ua.Priv = isa.PrivUser
	if _, err := c.Read(ua); err == nil {
		t.Error("user read of guarded region succeeded")
	}
	// DMA read aborts: returns AbortValue, no error.
	dma := NewDMA(c, 1)
	buf := make([]byte, 4)
	if err := dma.ReadInto(0x2000, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, []byte{0xff, 0xff, 0xff, 0xff}) {
		t.Errorf("DMA abort read = %x", buf)
	}
	// DMA write is dropped.
	if err := dma.WriteFrom(0x2000, []byte{9, 9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	v, _ := c.Read(cpuAccess(0x2000, 4, KindLoad))
	if v != 0x1234 {
		t.Errorf("aborted DMA write modified memory: %#x", v)
	}
	st := c.Stats("guard")
	if st.Denied == 0 || st.Aborted == 0 {
		t.Errorf("filter stats not recorded: %+v", st)
	}
	// Removing the filter restores access.
	c.RemoveFilter("guard")
	if _, err := c.Read(ua); err != nil {
		t.Errorf("read after filter removal: %v", err)
	}
}

func TestDMACopyUnprotected(t *testing.T) {
	m := testMemory(t)
	c := NewController(m)
	want := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if err := m.LoadImage(0x1100, want); err != nil {
		t.Fatal(err)
	}
	dma := NewDMA(c, 0)
	if err := dma.Copy(0x1200, 0x1100, len(want)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := m.ReadRaw(0x1200, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("DMA copy = %x, want %x", got, want)
	}
}

func TestLoadProgram(t *testing.T) {
	m := testMemory(t)
	p := isa.MustAssemble(".org 0x1000\nstart: addi a0, zero, 7\nhlt")
	if err := m.LoadProgram(p); err != nil {
		t.Fatal(err)
	}
	c := NewController(m)
	w, err := c.Read(cpuAccess(0x1000, 4, KindFetch))
	if err != nil {
		t.Fatal(err)
	}
	in := isa.Decode(w)
	if in.Op != isa.OpADDI || in.Rd != isa.RegA0 || in.Imm != 7 {
		t.Errorf("loaded instruction = %v", in)
	}
}

// rawLayout maps ROM, RAM, MMIO and gaps next to one another, so raw
// ranges can start in one kind of region and run into another.
func rawLayout() *Memory {
	m := NewMemory()
	m.MustAddRegion(Region{Name: "rom", Base: 0x0, Size: 0x100, Kind: RegionROM})
	m.MustAddRegion(Region{Name: "ram0", Base: 0x100, Size: 0x100, Kind: RegionRAM})
	m.MustAddRegion(Region{Name: "ram1", Base: 0x400, Size: 0x100, Kind: RegionRAM})
	m.MustAddRegion(Region{Name: "dev", Base: 0x500, Size: 0x10, Kind: RegionMMIO, Device: &testDevice{}})
	m.MustAddRegion(Region{Name: "ram2", Base: 0x510, Size: 0xf0, Kind: RegionRAM})
	img := make([]byte, 0x200)
	for i := range img {
		img[i] = byte(i*7 + 1)
	}
	if err := m.LoadImage(0, img); err != nil {
		panic(err)
	}
	return m
}

// Byte-at-a-time references for ReadRaw and WriteRaw.
func readRawBytes(m *Memory, addr uint32, buf []byte) error {
	for i := range buf {
		v, err := m.readRaw(addr+uint32(i), 1)
		if err != nil {
			return err
		}
		buf[i] = byte(v)
	}
	return nil
}

func writeRawBytes(m *Memory, addr uint32, buf []byte) error {
	for i := range buf {
		if err := m.writeRaw(addr+uint32(i), 1, uint32(buf[i])); err != nil {
			return err
		}
	}
	return nil
}

func sameErr(a, b error) bool {
	return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error())
}

func sameCells(a, b *Memory) bool {
	for i, rs := range a.regions {
		if !bytes.Equal(rs.data, b.regions[i].data) {
			return false
		}
		if rs.Kind == RegionMMIO && *rs.Device.(*testDevice) != *b.regions[i].Device.(*testDevice) {
			return false
		}
	}
	return true
}

// Property: ReadRaw and WriteRaw return the same bytes, write the same
// cells and fail with the same error as a byte-at-a-time loop, for ranges
// that stay in one region and ranges that cross into ROM, MMIO, another
// RAM region or unmapped space.
func TestRawAccessMatchesByteLoop(t *testing.T) {
	edges := []uint32{0x0, 0x100, 0x200, 0x400, 0x500, 0x510, 0x600}
	f := func(edge uint8, back uint8, n uint8, fill byte) bool {
		addr := edges[int(edge)%len(edges)] - uint32(back%24)
		buf := bytes.Repeat([]byte{fill}, int(n%48))
		m, ref := rawLayout(), rawLayout()
		if !sameErr(m.WriteRaw(addr, buf), writeRawBytes(ref, addr, buf)) || !sameCells(m, ref) {
			return false
		}
		got, want := make([]byte, len(buf)), make([]byte, len(buf))
		return sameErr(m.ReadRaw(addr, got), readRawBytes(ref, addr, want)) && bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

func TestRawAccessErrors(t *testing.T) {
	m := rawLayout()
	romBefore := append([]byte(nil), m.regions[0].data...)
	if err := m.WriteRaw(0x10, []byte{1, 2, 3, 4}); err == nil {
		t.Error("WriteRaw to ROM succeeded")
	}
	if !bytes.Equal(m.regions[0].data, romBefore) {
		t.Error("WriteRaw to ROM changed ROM")
	}
	// ROM stays readable raw.
	got := make([]byte, 4)
	if err := m.ReadRaw(0x10, got); err != nil || !bytes.Equal(got, romBefore[0x10:0x14]) {
		t.Errorf("ReadRaw of ROM = %x, %v", got, err)
	}
	// A range running past ram0's end into the gap fails at the first
	// unmapped address, after writing (or reading) the bytes before it.
	err := m.WriteRaw(0x1fc, []byte{0xa1, 0xa2, 0xa3, 0xa4, 0xa5, 0xa6})
	if err == nil || err.Error() != "unmapped address 0x200" {
		t.Fatalf("WriteRaw past region end: %v", err)
	}
	if tail := m.regions[1].data[0xfc:]; !bytes.Equal(tail, []byte{0xa1, 0xa2, 0xa3, 0xa4}) {
		t.Errorf("bytes before the unmapped address = %x", tail)
	}
	got = make([]byte, 6)
	err = m.ReadRaw(0x1fe, got)
	if err == nil || err.Error() != "unmapped address 0x200" {
		t.Fatalf("ReadRaw past region end: %v", err)
	}
	if !bytes.Equal(got, []byte{0xa3, 0xa4, 0, 0, 0, 0}) {
		t.Errorf("ReadRaw past region end filled %x", got)
	}
}
