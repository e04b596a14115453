package serve

import (
	"sync"
	"sync/atomic"
	"time"
)

// Breaker states, exposed on /readyz and /metrics.
const (
	breakerClosed   = iota // disk tier healthy, all traffic flows
	breakerOpen            // disk tier failing, bypassed entirely
	breakerHalfOpen        // cooldown elapsed, one probe in flight
)

// breaker is the circuit breaker over the persistent cache tier. The
// disk tier is an optimization — every body it would serve can be
// recomputed — so when storage starts failing the correct degradation
// is to stop touching it (each failed write-behind already burned
// retries and backoff) and serve memory-only, not to keep paying IO
// timeouts on the request path.
//
// State machine: closed counts consecutive IO failures (reads and
// writes share the count; a served read or completed write resets it —
// a read miss proves nothing and resets nothing) and opens at
// the threshold. Open bypasses the disk for the cooldown, then the
// next allow() claims the half-open probe: exactly one operation goes
// through, and its outcome alone decides — success closes the breaker,
// failure re-opens it for another cooldown. Concurrent requests during
// half-open are bypassed, so a failing disk sees one probe per
// cooldown, never a thundering herd.
type breaker struct {
	mu          sync.Mutex
	threshold   int
	cooldown    time.Duration
	now         func() time.Time // injectable for tests
	state       int
	consecutive int
	openedAt    time.Time

	opens atomic.Int64 // closed->open transitions, cumulative
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// allow reports whether the next disk operation may proceed. In the
// open state it also performs the open -> half-open transition once the
// cooldown elapses, granting the caller the probe slot.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if b.now().Sub(b.openedAt) >= b.cooldown {
			b.state = breakerHalfOpen
			return true // this caller is the probe
		}
		return false
	default: // half-open: a probe is already in flight
		return false
	}
}

// ok records a successful disk operation: failures reset, and a
// half-open probe's success closes the breaker.
func (b *breaker) ok() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecutive = 0
	b.state = breakerClosed
}

// probeMiss resolves a probe whose operation completed without an IO
// error but served nothing (a read miss): the IO path demonstrably
// worked, so a half-open breaker closes. In the closed state a miss is
// neutral — it must NOT reset the consecutive-failure count, or a
// write-only failure mode (disk full, read-only remount) interleaved
// with cold-key misses would never reach the threshold.
func (b *breaker) probeMiss() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.state = breakerClosed
		b.consecutive = 0
	}
}

// fail records an IO failure: in closed state it counts toward the
// threshold; a half-open probe's failure re-opens immediately.
func (b *breaker) fail() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		b.consecutive++
		if b.consecutive >= b.threshold {
			b.open()
		}
	case breakerHalfOpen:
		b.open()
	}
}

// open transitions to the open state (caller holds mu).
func (b *breaker) open() {
	b.state = breakerOpen
	b.openedAt = b.now()
	b.consecutive = 0
	b.opens.Add(1)
}

// snapshot returns the current state (re-evaluating an elapsed
// cooldown would be a side effect; /readyz reports open until a real
// operation claims the probe).
func (b *breaker) snapshot() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// stateName renders a breaker state for /readyz and logs.
func stateName(state int) string {
	switch state {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}
