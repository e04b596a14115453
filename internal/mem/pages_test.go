package mem

import (
	"bytes"
	"maps"
	"testing"

	"github.com/intrust-sim/intrust/internal/isa"
)

// pageID names one page of one region.
type pageID struct {
	region string
	index  uint32
}

// allocated returns every page m has allocated.
func allocated(m *Memory) map[pageID]bool {
	out := map[pageID]bool{}
	for _, rs := range m.regions {
		for i, p := range rs.pages {
			if p != nil {
				out[pageID{rs.Name, uint32(i)}] = true
			}
		}
	}
	return out
}

// touched returns the pages of RAM and ROM regions that hold a byte of
// [addr, addr+n).
func touched(m *Memory, addr uint32, n int) map[pageID]bool {
	out := map[pageID]bool{}
	for i := 0; i < n; i++ {
		if rs := m.find(addr + uint32(i)); rs != nil && rs.Kind != RegionMMIO {
			out[pageID{rs.Name, (addr + uint32(i) - rs.Base) >> pageShift}] = true
		}
	}
	return out
}

// TestWritesAllocateOnlyTouchedPages writes through every path that
// stores region bytes — checked stores, both WriteRaw paths, LoadImage
// into ROM, LoadProgram and MEE.Init — and requires each write to
// allocate exactly the pages it touches that were not allocated yet.
// A Memory built afterwards with the same map must read all-zero and
// allocate nothing doing so: no page is shared between two Memory
// values.
func TestWritesAllocateOnlyTouchedPages(t *testing.T) {
	// Sizes whose last page is partial, two RAM regions back to back (so
	// a raw write can straddle them) and a ROM region.
	const size = 0x10800
	layout := func() *Memory {
		m := NewMemory()
		m.MustAddRegion(Region{Name: "ram0", Base: 0x100000, Size: size, Kind: RegionRAM})
		m.MustAddRegion(Region{Name: "ram1", Base: 0x100000 + size, Size: size, Kind: RegionRAM})
		m.MustAddRegion(Region{Name: "rom", Base: 0x200000, Size: size, Kind: RegionROM})
		return m
	}
	m := layout()
	c := NewController(m)
	ones := bytes.Repeat([]byte{0xa5}, 96)
	prog := isa.MustAssemble(".org 0x106ffc\naddi a0, zero, 7\nhlt")
	const meeBase, meeSize = 0x100000 + size + 0x4000, 0x2000
	mee, err := NewMEE(m, meeBase, meeSize, bytes.Repeat([]byte{7}, 16))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct {
		name  string
		addr  uint32
		n     int
		write func() error
	}{
		{"checked store in the partial last page", 0x100000 + size - 4, 4, func() error {
			return c.Write(cpuAccess(0x100000+size-4, 4, KindStore), 0xdeadbeef)
		}},
		{"one-region WriteRaw across a page edge", 0x103000 - 48, len(ones), func() error {
			return m.WriteRaw(0x103000-48, ones)
		}},
		{"WriteRaw straddling ram0 and ram1", 0x100000 + size - 32, len(ones), func() error {
			return m.WriteRaw(0x100000+size-32, ones)
		}},
		{"LoadImage into ROM", 0x200000 + size - 8, 8, func() error {
			return m.LoadImage(0x200000+size-8, ones[:8])
		}},
		{"LoadProgram across a page edge", 0x106ffc, len(prog.Segments[0].Data), func() error {
			return m.LoadProgram(prog)
		}},
		{"MEE.Init", meeBase, meeSize, mee.Init},
	} {
		before := allocated(m)
		if err := w.write(); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		got := allocated(m)
		for p := range before {
			delete(got, p)
		}
		want := touched(m, w.addr, w.n)
		for p := range before {
			delete(want, p)
		}
		if len(want) == 0 {
			t.Fatalf("%s: touches no new page; the test covers nothing there", w.name)
		}
		if !maps.Equal(got, want) {
			t.Errorf("%s allocated pages %v, want %v", w.name, got, want)
		}
	}

	fresh := layout()
	for _, rs := range fresh.regions {
		buf := bytes.Repeat([]byte{0xff}, int(rs.Size))
		if err := fresh.ReadRaw(rs.Base, buf); err != nil {
			t.Fatal(err)
		}
		if n := len(buf) - bytes.Count(buf, []byte{0}); n != 0 {
			t.Errorf("fresh region %s reads %d non-zero bytes", rs.Name, n)
		}
	}
	if p := allocated(fresh); len(p) != 0 {
		t.Errorf("reading a fresh memory allocated pages %v", p)
	}
}

// TestUnwrittenPagesReadZero reads an unwritten page through every read
// path: each returns zero and none allocates a page.
func TestUnwrittenPagesReadZero(t *testing.T) {
	m := rawLayout()
	c := NewController(m)
	const addr = 0x2ffc // the unwritten pages at 0x2000 and 0x3000
	if v, err := c.Read(cpuAccess(addr, 4, KindLoad)); err != nil || v != 0 {
		t.Errorf("checked read = %#x, %v", v, err)
	}
	if v, err := c.ReadL1Content(addr+1, 4); err != nil || v != 0 {
		t.Errorf("ReadL1Content across the page edge = %#x, %v", v, err)
	}
	buf := bytes.Repeat([]byte{0xff}, 16)
	if err := m.ReadRaw(addr-4, buf); err != nil || !bytes.Equal(buf, make([]byte, 16)) {
		t.Errorf("ReadRaw across the page edge = %x, %v", buf, err)
	}
	if p := allocated(m); len(p) != 3 { // rom, ram0 and pages' first page
		t.Errorf("reads allocated pages: %v", p)
	}
}

// Property: checked 2- and 4-byte accesses at the last bytes of a page
// (written, or not yet) return and store what the byte-at-a-time loop
// does — misaligned ones fail without touching memory — and the
// unchecked paths, which take misaligned words, straddle the page edge
// byte for byte.
func TestWordAccessAtPageEdge(t *testing.T) {
	for _, page := range []uint32{0x1000, 0x2000} {
		for off := uint32(0xffd); off <= 0xfff; off++ {
			for _, size := range []int{2, 4} {
				addr := page + off
				m, ref := rawLayout(), rawLayout()
				c := NewController(m)
				want := make([]byte, size)
				if err := readRawBytes(ref, addr, want); err != nil {
					t.Fatal(err)
				}
				aligned := addr%uint32(size) == 0
				v, err := c.Read(cpuAccess(addr, size, KindLoad))
				if aligned && (err != nil || v != leWord(want)) || !aligned && err == nil {
					t.Errorf("checked %d-byte read at %#x = %#x, %v; want %x", size, addr, v, err, want)
				}
				if v, err := c.ReadL1Content(addr, size); err != nil || v != leWord(want) {
					t.Errorf("ReadL1Content(%#x, %d) = %#x, %v; want %x", addr, size, v, err, want)
				}

				const val = 0xa1b2c3d4
				err = c.Write(cpuAccess(addr, size, KindStore), val)
				if aligned != (err == nil) {
					t.Errorf("checked %d-byte write at %#x: %v", size, addr, err)
				}
				if aligned {
					if err := writeRawBytes(ref, addr, leBytes(val, size)); err != nil {
						t.Fatal(err)
					}
				}
				if !sameCells(m, ref) {
					t.Errorf("checked %d-byte write at %#x differs from the byte loop", size, addr)
				}

				if err := m.writeRaw(addr, size, val); err != nil {
					t.Fatal(err)
				}
				if err := writeRawBytes(ref, addr, leBytes(val, size)); err != nil {
					t.Fatal(err)
				}
				if !sameCells(m, ref) {
					t.Errorf("unchecked %d-byte write at %#x differs from the byte loop", size, addr)
				}
				if v, err := m.readRaw(addr, size); err != nil || v != val&sizeMask(size) {
					t.Errorf("unchecked %d-byte read at %#x = %#x, %v", size, addr, v, err)
				}
			}
		}
	}
}

// leWord and leBytes convert between little-endian bytes and a word.
func leWord(b []byte) uint32 {
	var v uint32
	for i, x := range b {
		v |= uint32(x) << (8 * i)
	}
	return v
}

func leBytes(v uint32, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	return b
}

// TestFilterStatsFollowRemoval pins each filter's counters to that filter
// after another filter is removed from between them, and keeps a removed
// filter's counts readable and resumed when its name is installed again.
func TestFilterStatsFollowRemoval(t *testing.T) {
	c := NewController(testMemory(t))
	mk := func(name string, v Action) Filter {
		return FuncFilter{FilterName: name, Fn: func(Access) Action { return v }}
	}
	c.AddFilter(mk("a", ActionAllow))
	c.AddFilter(mk("b", ActionAllow))
	c.AddFilter(mk("c", ActionDeny))
	read := func() { c.Read(cpuAccess(0x1000, 4, KindLoad)) }

	read()
	c.RemoveFilter("b")
	read()
	read()
	want := map[string]FilterStats{
		"a": {Checked: 3},
		"b": {Checked: 1},
		"c": {Checked: 3, Denied: 3},
	}
	for name, w := range want {
		if got := c.Stats(name); got != w {
			t.Errorf("after removal, filter %s stats %+v, want %+v", name, got, w)
		}
	}

	c.AddFilter(mk("b", ActionAbort)) // after c, which denies first
	c.RemoveFilter("c")
	read()
	want = map[string]FilterStats{
		"a": {Checked: 4},
		"b": {Checked: 2, Aborted: 1},
		"c": {Checked: 3, Denied: 3},
	}
	for name, w := range want {
		if got := c.Stats(name); got != w {
			t.Errorf("after re-adding b, filter %s stats %+v, want %+v", name, got, w)
		}
	}
}
