package admission

// quota is a resizable in-flight semaphore with FIFO handoff and a
// bounded waiting room. It backs both the per-tenant concurrency quota
// and the per-model ingest admission queue: cap slots run concurrently,
// at most maxWait waiters queue behind them (each for a bounded time),
// and everything beyond that is rejected immediately — the caller sheds
// with 429 instead of joining an unbounded convoy.

import (
	"context"
	"sync"
	"time"
)

type quota struct {
	mu      sync.Mutex
	cap     int // concurrent holders allowed; <= 0 means unlimited
	used    int
	maxWait int // waiters allowed to queue; beyond it acquire fails fast
	// waiters is the FIFO of parked acquirers. A slot is handed to the
	// head waiter on release (closing its channel) so arrival order is
	// service order — no barging, which is what keeps one aggressive
	// client from starving a patient one.
	waiters []chan struct{}
}

// newQuota builds a quota. capSlots <= 0 disables the limit entirely
// (acquire always succeeds and release is a no-op) but still counts
// in-flight for observability.
func newQuota(capSlots, maxWaiters int) *quota {
	return &quota{cap: capSlots, maxWait: maxWaiters}
}

// tryAcquire takes a slot without waiting.
func (q *quota) tryAcquire() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.cap <= 0 || (q.used < q.cap && len(q.waiters) == 0) {
		q.used++
		return true
	}
	return false
}

// acquire takes a slot, waiting up to wait while queued (FIFO); onWait,
// when non-nil, runs once queued, before the wait. It reports false
// when the waiting room is full, the wait expires, or ctx is done
// first. A false return means the caller sheds.
func (q *quota) acquire(ctx context.Context, wait time.Duration, onWait func()) bool {
	q.mu.Lock()
	if q.cap <= 0 || (q.used < q.cap && len(q.waiters) == 0) {
		q.used++
		q.mu.Unlock()
		return true
	}
	if wait <= 0 || len(q.waiters) >= q.maxWait {
		q.mu.Unlock()
		return false
	}
	ready := make(chan struct{})
	q.waiters = append(q.waiters, ready)
	q.mu.Unlock()
	if onWait != nil {
		onWait()
	}

	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-ready:
		// The releaser incremented used on our behalf before closing.
		return true
	case <-timer.C:
	case <-ctx.Done():
	}
	// Timed out or canceled: withdraw from the queue. If the handoff
	// raced us (ready closed after the timer fired but before we got
	// here), the slot is ours and we keep it.
	q.mu.Lock()
	defer q.mu.Unlock()
	select {
	case <-ready:
		return true
	default:
	}
	for i, w := range q.waiters {
		if w == ready {
			q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
			break
		}
	}
	return false
}

// release returns a slot, handing it to the head waiter when one is
// queued.
func (q *quota) release() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.used > 0 {
		q.used--
	}
	for len(q.waiters) > 0 && q.used < q.cap {
		head := q.waiters[0]
		q.waiters = q.waiters[1:]
		q.used++
		close(head)
	}
}

// setCap retunes the concurrency limit in place (tenant-file reload).
// Growing the cap drains queued waiters immediately; shrinking lets
// in-flight work finish and bites on the next acquire.
func (q *quota) setCap(capSlots, maxWaiters int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.cap, q.maxWait = capSlots, maxWaiters
	for len(q.waiters) > 0 && (q.cap <= 0 || q.used < q.cap) {
		head := q.waiters[0]
		q.waiters = q.waiters[1:]
		q.used++
		close(head)
	}
}

// state reports (in-flight, cap, queued waiters) for /debug/admission.
func (q *quota) state() (used, capSlots, queued int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.used, q.cap, len(q.waiters)
}
