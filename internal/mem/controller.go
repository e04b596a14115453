package mem

import "fmt"

// AbortValue is the value architecturally returned for reads squashed by
// ActionAbort (SGX reads of enclave memory from outside return all-ones).
const AbortValue uint32 = 0xffffffff

// FilterStats counts verdicts per filter, for the evaluation reports.
type FilterStats struct {
	Checked uint64
	Denied  uint64
	Aborted uint64
}

// Controller is the memory controller: it runs every access through the
// installed protection filters, routes protected ranges through their
// encryption engines, and finally accesses physical memory.
type Controller struct {
	Mem *Memory

	filters []Filter
	// filterStats[i] is filters[i]'s counter, the entry stats holds under
	// its name (filters sharing a name share it), so check counts without
	// a map lookup or a Name call.
	filterStats []*FilterStats
	stats       map[string]*FilterStats
	mees        []*MEE

	// Denials counts total denied accesses (bus errors from filters).
	Denials uint64
	// Aborts counts total aborted accesses.
	Aborts uint64
}

// NewController wraps a physical memory map.
func NewController(m *Memory) *Controller {
	return &Controller{Mem: m, stats: map[string]*FilterStats{}}
}

// AddFilter installs a protection filter. Filters are consulted in
// installation order; the first non-allow verdict wins.
func (c *Controller) AddFilter(f Filter) {
	st, ok := c.stats[f.Name()]
	if !ok {
		st = &FilterStats{}
		c.stats[f.Name()] = st
	}
	c.filters = append(c.filters, f)
	c.filterStats = append(c.filterStats, st)
}

// RemoveFilter uninstalls the filter with the given name. Its counters
// stay readable through Stats.
func (c *Controller) RemoveFilter(name string) {
	n := 0
	for i, f := range c.filters {
		if f.Name() != name {
			c.filters[n], c.filterStats[n] = f, c.filterStats[i]
			n++
		}
	}
	clear(c.filters[n:])
	clear(c.filterStats[n:])
	c.filters, c.filterStats = c.filters[:n], c.filterStats[:n]
}

// Stats returns the verdict counters for a filter name.
func (c *Controller) Stats(name string) FilterStats {
	if s, ok := c.stats[name]; ok {
		return *s
	}
	return FilterStats{}
}

// AttachMEE installs a memory encryption engine over a physical range.
func (c *Controller) AttachMEE(m *MEE) {
	c.mees = append(c.mees, m)
}

// check runs the filters and returns the collective verdict.
func (c *Controller) check(a Access) Action {
	for i, f := range c.filters {
		st := c.filterStats[i]
		st.Checked++
		switch v := f.Check(a); v {
		case ActionDeny:
			st.Denied++
			c.Denials++
			return ActionDeny
		case ActionAbort:
			st.Aborted++
			c.Aborts++
			return ActionAbort
		}
	}
	return ActionAllow
}

func (c *Controller) meeFor(addr uint32) *MEE {
	for _, m := range c.mees {
		if m.Covers(addr) {
			return m
		}
	}
	return nil
}

// Read performs a checked read. Aborted reads return AbortValue (masked to
// the access size) with no error, mirroring SGX abort-page semantics.
func (c *Controller) Read(a Access) (uint32, error) {
	if err := validateAccess(a); err != nil {
		return 0, err
	}
	switch c.check(a) {
	case ActionDeny:
		return 0, &BusError{Access: a, Reason: "denied by protection filter"}
	case ActionAbort:
		return AbortValue & sizeMask(a.Size), nil
	}
	if m := c.meeFor(a.Addr); m != nil && a.Init.Type == InitCPU {
		return m.Read(a.Addr, a.Size)
	}
	v, err := c.Mem.readRaw(a.Addr, a.Size)
	if err != nil {
		return 0, &BusError{Access: a, Reason: err.Error()}
	}
	return v, nil
}

// Write performs a checked write. Aborted writes are dropped silently.
func (c *Controller) Write(a Access, v uint32) error {
	if err := validateAccess(a); err != nil {
		return err
	}
	switch c.check(a) {
	case ActionDeny:
		return &BusError{Access: a, Reason: "denied by protection filter"}
	case ActionAbort:
		return nil
	}
	if m := c.meeFor(a.Addr); m != nil && a.Init.Type == InitCPU {
		return m.Write(a.Addr, a.Size, v)
	}
	if err := c.Mem.writeRaw(a.Addr, a.Size, v); err != nil {
		return &BusError{Access: a, Reason: err.Error()}
	}
	return nil
}

// ReadL1Content returns data as it would appear inside the L1 cache for
// addr — after MEE decryption, and without consulting any protection
// filter. It exists solely for the CPU's transient fault-forwarding path:
// Meltdown and L1TF forward stale L1 data to dependent instructions while
// the faulting load awaits retirement, bypassing every architectural
// check. No architectural read path uses this method.
func (c *Controller) ReadL1Content(addr uint32, size int) (uint32, error) {
	if m := c.meeFor(addr); m != nil {
		return m.Read(addr, size)
	}
	return c.Mem.readRaw(addr, size)
}

func validateAccess(a Access) error {
	switch a.Size {
	case 1, 2, 4:
	default:
		return fmt.Errorf("mem: unsupported access size %d", a.Size)
	}
	if a.Addr%uint32(a.Size) != 0 {
		return &BusError{Access: a, Reason: "misaligned access"}
	}
	return nil
}

func sizeMask(size int) uint32 {
	switch size {
	case 1:
		return 0xff
	case 2:
		return 0xffff
	}
	return 0xffffffff
}

// DMA is a peripheral DMA engine. Its transfers go through the controller
// with InitDMA identity, so protection filters (IOMMU/TZASC analogues) see
// and may block them — or fail to, which is the DMA attack from the paper.
type DMA struct {
	Ctrl     *Controller
	DeviceID int
	World    World // bus world the device claims (TZASC checks it)
}

// NewDMA returns a DMA engine with the given device identity.
func NewDMA(c *Controller, id int) *DMA {
	return &DMA{Ctrl: c, DeviceID: id, World: WorldNormal}
}

func (d *DMA) access(kind AccessKind, addr uint32) Access {
	return Access{
		Addr:  addr,
		Size:  1,
		Kind:  kind,
		Priv:  0,
		World: d.World,
		Init:  Initiator{Type: InitDMA, ID: d.DeviceID},
	}
}

// ReadInto copies n bytes starting at src into buf using DMA reads.
// It stops at the first denied access.
func (d *DMA) ReadInto(src uint32, buf []byte) error {
	for i := range buf {
		a := d.access(KindLoad, src+uint32(i))
		v, err := d.Ctrl.Read(a)
		if err != nil {
			return err
		}
		buf[i] = byte(v)
	}
	return nil
}

// WriteFrom copies buf into memory starting at dst using DMA writes.
func (d *DMA) WriteFrom(dst uint32, buf []byte) error {
	for i := range buf {
		a := d.access(KindStore, dst+uint32(i))
		if err := d.Ctrl.Write(a, uint32(buf[i])); err != nil {
			return err
		}
	}
	return nil
}

// Copy transfers n bytes from src to dst through the DMA engine.
func (d *DMA) Copy(dst, src uint32, n int) error {
	buf := make([]byte, n)
	if err := d.ReadInto(src, buf); err != nil {
		return err
	}
	return d.WriteFrom(dst, buf)
}
