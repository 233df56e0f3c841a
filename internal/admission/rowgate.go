package admission

// RowGate meters streamed rows against a tenant's row bucket. The
// streaming handlers call Take once per NDJSON row; the gate draws
// tokens in chunks to keep the per-row cost to a counter decrement,
// absorbs short shortfalls by sleeping within the tenant's bounded
// wait, and sheds — returning a rate_limited LimitError carrying the
// Retry-After — when the wait would exceed it.

import (
	"context"
	"fmt"
	"time"
)

// rowChunk is how many tokens a gate draws from the shared bucket at
// once. Small enough not to starve sibling streams of the same tenant,
// large enough that the bucket mutex is off the per-row fast path.
const rowChunk = 32

// RowGate is a per-stream row admission gate. Not safe for concurrent
// use — each streaming request owns one.
type RowGate struct {
	c         *Controller
	tenant    *Tenant
	bucket    *bucket
	stream    string // "ingest" | "batch" metric label
	maxWait   time.Duration
	allowance float64 // tokens drawn but not yet spent
	allowed   uint64
	onWait    func()
}

// RowGate builds the gate for one streaming request. batch selects the
// batch-inference bucket instead of the ingest bucket. A nil controller
// or an unlimited tenant yields a gate whose Take never blocks.
func (c *Controller) RowGate(t *Tenant, batch bool) *RowGate {
	g := &RowGate{c: c, tenant: t, stream: "ingest", maxWait: DefaultMaxWait}
	if batch {
		g.stream = "batch"
	}
	if c == nil || t == nil {
		return g
	}
	g.maxWait = t.maxWait
	if batch {
		g.bucket = t.state.batchRows
	} else {
		g.bucket = t.state.rows
	}
	return g
}

// OnWait sets a function Take runs before it sleeps for tokens, so a
// streaming handler can flush its buffered output before it blocks.
func (g *RowGate) OnWait(fn func()) { g.onWait = fn }

// Take admits one row, sleeping up to the tenant's bounded wait for
// tokens to refill. A rate_limited error means the caller should emit
// a per-row error line and terminate the stream.
func (g *RowGate) Take(ctx context.Context) error {
	if g.bucket == nil {
		g.allowed++
		return nil
	}
	if g.allowance >= 1 {
		g.allowance--
		g.allowed++
		return nil
	}
	var slept time.Duration
	for {
		g.allowance += g.bucket.takeUpTo(rowChunk - g.allowance)
		if g.allowance >= 1 {
			if slept > 0 {
				g.c.metrics.wait.With(tenantLabel(g.tenant), "rows").Observe(slept.Seconds())
			}
			g.allowance--
			g.allowed++
			return nil
		}
		_, retry := g.bucket.take(1)
		if retry <= 0 {
			retry = time.Millisecond
		}
		if slept+retry > g.maxWait {
			g.c.metrics.rows.With(tenantLabel(g.tenant), g.stream, "shed").Inc()
			return &LimitError{Sentinel: ErrRateLimited, RetryAfter: retry,
				Detail: fmt.Sprintf("tenant %q %s row rate exceeded", tenantLabel(g.tenant), g.stream)}
		}
		if g.onWait != nil {
			g.onWait()
		}
		timer := time.NewTimer(retry)
		select {
		case <-timer.C:
			slept += retry
		case <-ctx.Done():
			timer.Stop()
			return ctx.Err()
		}
	}
}

// Close flushes the gate's row tally into the admission metrics and
// returns unspent allowance to the bucket so a short stream does not
// strand most of a chunk.
func (g *RowGate) Close() {
	if g.c == nil {
		return
	}
	if g.allowed > 0 {
		g.c.metrics.rows.With(tenantLabel(g.tenant), g.stream, "allowed").Add(float64(g.allowed))
		g.allowed = 0
	}
	if g.bucket != nil && g.allowance > 0 {
		g.bucket.refund(g.allowance)
		g.allowance = 0
	}
}
