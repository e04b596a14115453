package serve

import (
	"testing"
	"time"
)

// TestBreakerStateMachine walks every transition with a deterministic
// clock: consecutive failures open, success resets the count, the
// cooldown admits exactly one half-open probe, and the probe's outcome
// alone decides between re-opening and closing.
func TestBreakerStateMachine(t *testing.T) {
	clock := time.Unix(0, 0)
	b := newBreaker(3, 10*time.Second)
	b.now = func() time.Time { return clock }

	if !b.allow() || b.snapshot() != breakerClosed {
		t.Fatal("fresh breaker must be closed and allowing")
	}

	// A success between failures resets the consecutive count.
	b.fail()
	b.fail()
	b.ok()
	b.fail()
	b.fail()
	if b.snapshot() != breakerClosed {
		t.Fatal("non-consecutive failures must not open the breaker")
	}
	b.fail()
	if b.snapshot() != breakerOpen || b.opens.Load() != 1 {
		t.Fatalf("3 consecutive failures: state %s opens %d, want open/1", stateName(b.snapshot()), b.opens.Load())
	}
	if b.allow() {
		t.Fatal("open breaker allowed an operation inside the cooldown")
	}

	// Cooldown elapses: exactly one caller gets the half-open probe.
	clock = clock.Add(11 * time.Second)
	if !b.allow() {
		t.Fatal("elapsed cooldown must admit the probe")
	}
	if b.snapshot() != breakerHalfOpen {
		t.Fatalf("state after probe admission = %s, want half-open", stateName(b.snapshot()))
	}
	if b.allow() {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}

	// Probe fails: straight back to open for another cooldown.
	b.fail()
	if b.snapshot() != breakerOpen || b.opens.Load() != 2 {
		t.Fatal("failed probe must re-open")
	}
	clock = clock.Add(11 * time.Second)
	if !b.allow() {
		t.Fatal("second cooldown must admit a probe")
	}
	b.ok()
	if b.snapshot() != breakerClosed || !b.allow() {
		t.Fatal("successful probe must close the breaker")
	}
}

// TestBreakerProbeMiss pins the miss semantics: a read miss resolves a
// half-open probe (the IO path worked, the breaker closes) but in the
// closed state it is neutral — it must not reset the failure count, or
// write-only failure modes interleaved with cold misses never trip.
func TestBreakerProbeMiss(t *testing.T) {
	clock := time.Unix(0, 0)
	b := newBreaker(2, 10*time.Second)
	b.now = func() time.Time { return clock }

	b.fail()
	b.probeMiss() // neutral while closed
	b.fail()
	if b.snapshot() != breakerOpen {
		t.Fatal("a closed-state miss reset the failure count")
	}

	clock = clock.Add(11 * time.Second)
	if !b.allow() || b.snapshot() != breakerHalfOpen {
		t.Fatal("cooldown must admit the probe")
	}
	b.probeMiss()
	if b.snapshot() != breakerClosed || !b.allow() {
		t.Fatal("a probe miss must close the half-open breaker")
	}
}

// TestBreakerDefaults pins the disk-tier tuning New installs: a
// 5-failure / 5s-cooldown breaker and two write-behind retries from a
// 5ms backoff.
func TestBreakerDefaults(t *testing.T) {
	s := newTestServer(Options{})
	if s.brk.threshold != 5 || s.brk.cooldown != 5*time.Second {
		t.Fatalf("breaker = %d/%v, want 5/5s", s.brk.threshold, s.brk.cooldown)
	}
	if s.retries != 2 || s.retryBase != 5*time.Millisecond {
		t.Fatalf("write-behind retries = %d from %v, want 2 from 5ms", s.retries, s.retryBase)
	}
}
