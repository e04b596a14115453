package trustzone

import (
	"testing"

	"github.com/intrust-sim/intrust/internal/mem"
	"github.com/intrust-sim/intrust/internal/platform"
)

func TestTZASCAllowsSecureDMA(t *testing.T) {
	// A DMA engine assigned to the secure world (e.g. the crypto
	// accelerator's own DMA) must reach secure memory — TZASC filters by
	// world, not by master class.
	p := platform.NewMobile()
	tz, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Mem.WriteRaw(tz.SecureBase(), []byte{0xAB}); err != nil {
		t.Fatal(err)
	}
	secDMA := mem.NewDMA(p.Ctrl, 7)
	secDMA.World = mem.WorldSecure
	buf := make([]byte, 1)
	if err := secDMA.ReadInto(tz.SecureBase(), buf); err != nil {
		t.Fatalf("secure-world DMA denied: %v", err)
	}
	if buf[0] != 0xAB {
		t.Fatalf("secure DMA read %#x", buf[0])
	}
	// The same engine reclassified to the normal world is denied.
	secDMA.World = mem.WorldNormal
	if err := secDMA.ReadInto(tz.SecureBase(), buf); err == nil {
		t.Fatal("normal-world DMA reached secure memory")
	}
}

func TestMonitorCallCounting(t *testing.T) {
	p := platform.NewMobile()
	tz, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	before := tz.MonitorCalls
	tz.monitor(p.Core(0), 999) // unknown service still counts a switch
	if tz.MonitorCalls != before+1 {
		t.Fatal("monitor call not counted")
	}
}

func TestSecureBootRequiredBeforeEnclave(t *testing.T) {
	p := platform.NewMobile()
	tz, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if tz.booted {
		t.Fatal("booted before any image verified")
	}
	// Oversized image rejected even with a valid signature.
	big := make([]byte, int(tz.secSize)+1)
	if err := tz.SecureBoot(big, tz.SignImage(big)); err == nil {
		t.Fatal("oversized image booted")
	}
}
