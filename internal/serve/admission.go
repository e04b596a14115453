package serve

import (
	"context"
	"errors"
	"sync/atomic"

	"github.com/intrust-sim/intrust/internal/core"
)

// errQueueFull is the admission queue's backpressure signal; handlers
// translate it into 429 Too Many Requests with a Retry-After hint.
var errQueueFull = errors.New("admission queue full")

// admission bounds the computing side of the service: at most
// maxInFlight requests hold a compute slot at once, at most queueDepth
// more wait for one, and everything past that is rejected immediately —
// a full queue must answer in microseconds, not add itself to the pile.
// Cache hits never pass through admission; only requests that need at
// least one cold cell pay for a slot.
type admission struct {
	slots      chan struct{}
	queueDepth int64
	waiting    atomic.Int64
	inFlight   atomic.Int64
	rejected   atomic.Int64
}

func newAdmission(maxInFlight, queueDepth int) *admission {
	return &admission{
		slots:      make(chan struct{}, maxInFlight),
		queueDepth: int64(queueDepth),
	}
}

// acquire obtains a compute slot, waiting in the bounded queue when all
// slots are busy. It returns the release function, errQueueFull when
// the queue is already at depth, or the context error if the caller
// gives up while queued.
func (a *admission) acquire(ctx context.Context) (release func(), err error) {
	release = func() {
		a.inFlight.Add(-1)
		<-a.slots
	}
	// Fast path: a free slot, no queueing.
	select {
	case a.slots <- struct{}{}:
		a.inFlight.Add(1)
		return release, nil
	default:
	}
	if a.waiting.Add(1) > a.queueDepth {
		a.waiting.Add(-1)
		a.rejected.Add(1)
		return nil, errQueueFull
	}
	defer a.waiting.Add(-1)
	select {
	case a.slots <- struct{}{}:
		a.inFlight.Add(1)
		return release, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// admitCold is the admission rule of every multi-cell request: one
// compute slot when any key is missing from memory, none (a no-op
// release) when all are warm. Consulting only memory is conservative: a
// disk-warm selection takes a slot it will barely use, but a disk entry
// that fails authentication never computes outside the bound.
func (s *Server) admitCold(ctx context.Context, keys []core.CellKey) (release func(), err error) {
	for _, k := range keys {
		if !s.cache.peek(k.Encode()) {
			return s.adm.acquire(ctx)
		}
	}
	return func() {}, nil
}
