package mem

import (
	"bytes"
	"testing"

	"github.com/intrust-sim/intrust/internal/isa"
)

// TestReleasedBackingsAreZero writes through every path that can dirty a
// region backing — checked stores, both WriteRaw paths, LoadImage,
// LoadProgram and the range MEE.Init encrypts in place — then releases
// the memory: every released backing must be all-zero with no page left
// marked, and so must whatever newBacking hands out next for each size.
func TestReleasedBackingsAreZero(t *testing.T) {
	// Pooled sizes whose last page is partial, two RAM regions back to back
	// (so a raw write can straddle them) and a ROM region.
	const size = poolMinBacking + 0x800
	m := NewMemory()
	m.MustAddRegion(Region{Name: "ram0", Base: 0x100000, Size: size, Kind: RegionRAM})
	m.MustAddRegion(Region{Name: "ram1", Base: 0x100000 + size, Size: size, Kind: RegionRAM})
	m.MustAddRegion(Region{Name: "rom", Base: 0x200000, Size: size, Kind: RegionROM})
	c := NewController(m)
	ones := bytes.Repeat([]byte{0xa5}, 96)

	if err := c.Write(cpuAccess(0x100000+size-4, 4, KindStore), 0xdeadbeef); err != nil {
		t.Fatal(err) // writeRaw, in the partial last page
	}
	if err := m.WriteRaw(0x103000, ones); err != nil {
		t.Fatal(err) // one-region copy
	}
	if err := m.WriteRaw(0x100000+size-32, ones); err != nil {
		t.Fatal(err) // straddles ram0/ram1: the byte-by-byte path
	}
	if err := m.LoadImage(0x200000+size-8, ones[:8]); err != nil {
		t.Fatal(err) // ROM, writable only here
	}
	if err := m.LoadProgram(isa.MustAssemble(".org 0x106000\naddi a0, zero, 7\nhlt")); err != nil {
		t.Fatal(err)
	}
	mee, err := NewMEE(m, 0x100000+size+0x4000, 0x2000, bytes.Repeat([]byte{7}, 16))
	if err != nil {
		t.Fatal(err)
	}
	if err := mee.Init(); err != nil {
		t.Fatal(err) // ramBacking: encrypts zeros into non-zero ciphertext
	}

	var released []backing
	for _, rs := range m.regions {
		if bytes.Count(rs.data, []byte{0}) == len(rs.data) {
			t.Fatalf("region %s was never written; the test covers nothing there", rs.Name)
		}
		released = append(released, rs.backing)
	}
	m.Release()
	for i, b := range released {
		if n := len(b.data) - bytes.Count(b.data, []byte{0}); n != 0 {
			t.Errorf("released backing %d keeps %d non-zero bytes", i, n)
		}
		for j, w := range b.dirty {
			if w != 0 {
				t.Errorf("released backing %d keeps dirty word %d = %#x", i, j, w)
			}
		}
	}
	for i := range released {
		b := newBacking(size)
		if n := len(b.data) - bytes.Count(b.data, []byte{0}); n != 0 {
			t.Errorf("reused backing %d has %d non-zero bytes", i, n)
		}
	}
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
