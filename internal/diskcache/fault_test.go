package diskcache

import (
	"bytes"
	"strings"
	"testing"

	"github.com/intrust-sim/intrust/internal/fault"
)

// TestFaultReadInjection pins the read fault point: an injected IO
// error reads as a miss with the error surfaced only through GetE, and
// the IOErrors counter moves. The envelope on disk is untouched, so
// the entry serves normally once the fault budget is spent.
func TestFaultReadInjection(t *testing.T) {
	s := mustOpen(t, t.TempDir(), "secret")
	addr, body := "cell|v1|x", []byte("payload\n")
	if err := s.Put(addr, body); err != nil {
		t.Fatalf("Put: %v", err)
	}

	plane := fault.New(7)
	plane.Arm(FaultRead, fault.Spec{Prob: 1, Limit: 2})
	s.SetFaults(plane)

	got, ok, ioErr := s.GetE(addr)
	if ok || got != nil || ioErr == nil {
		t.Fatalf("faulted GetE = (%q, %v, %v), want miss with IO error", got, ok, ioErr)
	}
	if !strings.Contains(ioErr.Error(), "fault:") {
		t.Fatalf("injected error %q does not carry the fault marker", ioErr)
	}
	// The two-value Get sees the same miss, no error channel.
	if _, ok := s.Get(addr); ok {
		t.Fatal("Get served through an injected read fault")
	}
	if c := s.Counters(); c.IOErrors != 2 {
		t.Fatalf("IOErrors = %d after two faulted reads, want 2", c.IOErrors)
	}

	// The two-fire budget is spent: the untouched envelope serves.
	got, ok, ioErr = s.GetE(addr)
	if !ok || ioErr != nil || !bytes.Equal(got, body) {
		t.Fatalf("post-budget GetE = (%q, %v, %v), want the stored body", got, ok, ioErr)
	}
}

// TestFaultWriteInjection pins the write fault point: Put fails with
// the injected error, nothing lands on disk, and IOErrors moves.
func TestFaultWriteInjection(t *testing.T) {
	s := mustOpen(t, t.TempDir(), "secret")
	plane := fault.New(7)
	plane.Arm(FaultWrite, fault.Spec{Prob: 1, Err: "disk full"})
	s.SetFaults(plane)

	err := s.Put("addr", []byte("body"))
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("faulted Put err = %v, want the injected message", err)
	}
	plane.Reset()
	if _, ok := s.Get("addr"); ok {
		t.Fatal("a faulted Put left a servable entry behind")
	}
	if c := s.Counters(); c.IOErrors != 1 || c.Writes != 0 {
		t.Fatalf("counters = %+v, want 1 IO error and 0 writes", c)
	}
}

// TestFaultCorruptInjection pins the corruption fault point: a flipped
// envelope byte must fail authentication — a quarantined miss, never a
// served body and never an IO error.
func TestFaultCorruptInjection(t *testing.T) {
	s := mustOpen(t, t.TempDir(), "secret")
	addr, body := "cell|v1|y", []byte("payload\n")
	if err := s.Put(addr, body); err != nil {
		t.Fatalf("Put: %v", err)
	}
	plane := fault.New(7)
	plane.Arm(FaultCorrupt, fault.Spec{Prob: 1, Limit: 1})
	s.SetFaults(plane)

	got, ok, ioErr := s.GetE(addr)
	if ok || ioErr != nil {
		t.Fatalf("corrupted GetE = (%q, %v, %v), want a quiet quarantined miss", got, ok, ioErr)
	}
	if c := s.Counters(); c.Rejects != 1 || c.IOErrors != 0 {
		t.Fatalf("counters = %+v, want 1 reject and 0 IO errors (corruption is tamper, not IO)", c)
	}
	// The corrupted entry was quarantined; the address recovers by
	// being rewritten, exactly like any tampered file.
	if err := s.Put(addr, body); err != nil {
		t.Fatalf("re-Put after quarantine: %v", err)
	}
	if got, ok := s.Get(addr); !ok || !bytes.Equal(got, body) {
		t.Fatal("address did not recover after quarantine + rewrite")
	}
}
