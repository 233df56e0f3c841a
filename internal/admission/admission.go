// Package admission is the traffic-protection and multi-tenancy layer
// in front of the Ratio Rules serving surface. It answers one question
// per request — may this caller do this work right now? — through four
// stacked mechanisms:
//
//  1. Authentication: a static bearer-token tenant registry
//     (-tenants-file), hot-reloadable on SIGHUP or mtime change, maps
//     Authorization: Bearer tokens to tenants with per-tenant limit
//     overrides. Unauthenticated requests run as the designated
//     anonymous tenant, or are rejected 401 when none is configured.
//  2. Rate limiting: per-tenant token buckets — request-based for the
//     unary API, separate row-based buckets for streaming ingest and
//     batch inference — answering 429 rate_limited with Retry-After.
//  3. Concurrency quotas: per-tenant in-flight semaphores with a
//     bounded FIFO wait, answering 429 over_quota beyond them.
//  4. Load shedding: a global in-flight ceiling that sheds
//     lowest-priority tenants first (503 overloaded), plus a bounded
//     per-model admission queue in front of the online ingest fold —
//     replacing the unbounded mutex convoy — with shed counters.
//
// Everything is stdlib-only and observable: rr_admission_* metrics
// (tenant-labeled), admission.check spans, and a live state snapshot
// for GET /debug/admission. A nil *Controller disables every check at
// zero cost, which is the no-auth back-compat path.
package admission

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"sync"
	"time"

	"ratiorules/internal/obs"
)

// Stable sentinel errors the HTTP layer maps onto envelope codes.
var (
	// ErrUnauthorized: no usable bearer token and anonymous access is
	// off, or the token matches no tenant (401 unauthorized).
	ErrUnauthorized = errors.New("unauthorized")
	// ErrForbidden: the token is valid but the tenant is disabled
	// (403 forbidden).
	ErrForbidden = errors.New("forbidden")
	// ErrRateLimited: a token bucket ran dry (429 rate_limited).
	ErrRateLimited = errors.New("rate limited")
	// ErrOverQuota: the tenant's in-flight quota (or the ingest
	// admission queue) is full past its bounded wait (429 over_quota).
	ErrOverQuota = errors.New("over concurrency quota")
	// ErrOverloaded: the global in-flight ceiling shed this request
	// (503 overloaded).
	ErrOverloaded = errors.New("server overloaded")
)

// LimitError wraps an admission rejection with the Retry-After the
// client should honor. errors.Is matching works against the wrapped
// sentinel.
type LimitError struct {
	Sentinel   error
	RetryAfter time.Duration
	Detail     string
}

func (e *LimitError) Error() string {
	if e.Detail != "" {
		return fmt.Sprintf("%s: %s", e.Sentinel, e.Detail)
	}
	return e.Sentinel.Error()
}

func (e *LimitError) Unwrap() error { return e.Sentinel }

// RetryAfterOf extracts a Retry-After hint from an admission error
// (0 when the error carries none).
func RetryAfterOf(err error) time.Duration {
	var le *LimitError
	if errors.As(err, &le) {
		return le.RetryAfter
	}
	return 0
}

// Defaults for the controller knobs (rrserve flags override).
const (
	// DefaultMaxWait bounds how long a request may queue for a quota
	// slot or row tokens before shedding. Short by design: shedding
	// fast is the point — a queued request holds a connection.
	DefaultMaxWait = 100 * time.Millisecond
	// DefaultIngestQueue is the waiting room behind each model's ingest
	// fold (the bounded replacement for the old mutex convoy).
	DefaultIngestQueue = 64
	// DefaultPollInterval is the tenants-file mtime poll cadence.
	DefaultPollInterval = 2 * time.Second
	// AnonymousID labels the built-in identity used when no tenants
	// file is configured (single-tenant mode with flag-set limits).
	AnonymousID = "anon"
)

// globalShedFrac is the fraction of the global in-flight ceiling each
// priority class may fill before it sheds: low-priority traffic sheds
// at 60% so headroom survives for normal (85%) and high (100%) tenants.
// Under no overload the thresholds never bind; under overload the
// lowest class sheds first, by construction.
var globalShedFrac = [3]float64{PriorityLow: 0.6, PriorityNormal: 0.85, PriorityHigh: 1.0}

// Config wires a Controller.
type Config struct {
	// TenantsFile is the JSON tenant registry path; empty runs
	// single-tenant: every request is the anonymous identity with the
	// Defaults limits, models stay in the root namespace.
	TenantsFile string
	// Defaults seeds every tenant's limits; a tenants-file defaults
	// block and per-tenant overrides layer on top. Zero fields mean
	// unlimited.
	Defaults Limits
	// GlobalInFlight is the load-shedding ceiling across all tenants
	// (<= 0 disables global shedding).
	GlobalInFlight int
	// IngestQueue bounds waiters behind each model's ingest fold
	// (default DefaultIngestQueue; < 0 disables the queue).
	IngestQueue int
	// MaxWait bounds quota/queue waits (default DefaultMaxWait).
	MaxWait time.Duration
	// PollInterval is the tenants-file mtime poll cadence for Run
	// (default DefaultPollInterval).
	PollInterval time.Duration

	Logger  *slog.Logger
	Metrics *obs.Registry
}

// Controller is the admission decision point. Safe for concurrent use.
type Controller struct {
	cfg     Config
	logger  *slog.Logger
	metrics *admissionMetrics

	mu     sync.RWMutex
	byTok  map[string]*Tenant // token -> tenant
	byID   map[string]*Tenant // id -> tenant (debug/snapshot)
	anon   *Tenant            // nil when anonymous access is rejected
	states map[string]*tenantState
	// fileMod is the tenants file mtime at last successful load;
	// reloadErr the last reload failure (nil when healthy).
	fileMod   time.Time
	reloadErr error
	reloads   int

	// global is the in-flight ceiling; ingest queues are per model.
	global       *quota
	ingestQueues map[string]*quota
}

// New builds a controller and performs the initial tenants-file load
// (an unreadable or invalid file at boot is a hard error — unlike
// reloads, there is no last-good state to keep serving).
func New(cfg Config) (*Controller, error) {
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.Default()
	}
	if cfg.MaxWait <= 0 {
		cfg.MaxWait = DefaultMaxWait
	}
	if cfg.IngestQueue == 0 {
		cfg.IngestQueue = DefaultIngestQueue
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = DefaultPollInterval
	}
	c := &Controller{
		cfg:          cfg,
		logger:       cfg.Logger,
		metrics:      newAdmissionMetrics(cfg.Metrics),
		states:       make(map[string]*tenantState),
		ingestQueues: make(map[string]*quota),
	}
	if cfg.GlobalInFlight > 0 {
		c.global = newQuota(cfg.GlobalInFlight, 0)
	}
	if cfg.TenantsFile == "" {
		c.installSingleTenant()
		return c, nil
	}
	if err := c.Reload(); err != nil {
		return nil, err
	}
	return c, nil
}

// installSingleTenant builds the no-file configuration: one anonymous
// identity owning the root namespace with the default limits.
func (c *Controller) installSingleTenant() {
	f := &TenantsFile{
		Anonymous: AnonymousID,
		Tenants:   []TenantConfig{{ID: AnonymousID}},
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.installLocked(f)
}

// Reload re-reads the tenants file, swapping the registry atomically on
// success and keeping the last-good table (with the error surfaced in
// readiness and metrics) on failure. Safe to call from a SIGHUP
// handler.
func (c *Controller) Reload() error {
	if c.cfg.TenantsFile == "" {
		return nil
	}
	f, err := parseTenantsFile(c.cfg.TenantsFile)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.reloadErr = err
		c.metrics.reloads.With("error").Inc()
		c.logger.Error("tenants file reload failed; keeping previous registry",
			"file", c.cfg.TenantsFile, "err", err)
		return err
	}
	if fi, statErr := os.Stat(c.cfg.TenantsFile); statErr == nil {
		c.fileMod = fi.ModTime()
	}
	c.installLocked(f)
	c.reloadErr = nil
	c.reloads++
	c.metrics.reloads.With("ok").Inc()
	c.logger.Info("tenant registry loaded",
		"file", c.cfg.TenantsFile, "tenants", len(f.Tenants), "anonymous", f.Anonymous)
	return nil
}

// installLocked rebuilds the tenant table from a validated file,
// reusing each tenant ID's persistent limiter state so a reload cannot
// mint burst tokens or forget in-flight requests. Callers hold mu.
func (c *Controller) installLocked(f *TenantsFile) {
	var base Limits
	if f.Defaults != nil {
		base = *f.Defaults
	}
	base = base.merge(c.cfg.Defaults)

	byTok := make(map[string]*Tenant, len(f.Tenants))
	byID := make(map[string]*Tenant, len(f.Tenants))
	seen := make(map[string]bool, len(f.Tenants))
	for _, tc := range f.Tenants {
		limits := base
		if tc.Limits != nil {
			limits = tc.Limits.merge(base)
		}
		prio := PriorityNormal
		if tc.Priority != nil {
			prio = *tc.Priority
		}
		st := c.states[tc.ID]
		if st == nil {
			st = &tenantState{inflight: newQuota(0, 0)}
			c.states[tc.ID] = st
		}
		st.requests = retune(st.requests, limits.RequestsPerSecond, limits.RequestBurst)
		st.rows = retune(st.rows, limits.RowsPerSecond, limits.RowBurst)
		st.batchRows = retune(st.batchRows, limits.BatchRowsPerSecond, limits.BatchRowBurst)
		// The waiting room behind a tenant quota equals its width: one
		// full extra wave may queue, everything past it sheds fast.
		st.inflight.setCap(limits.MaxInFlight, limits.MaxInFlight)
		seen[tc.ID] = true

		scope := tc.ID + "/"
		if tc.ID == f.Anonymous {
			scope = "" // the anonymous tenant owns the root namespace
		}
		t := &Tenant{
			ID:       tc.ID,
			Scope:    scope,
			Priority: prio,
			disabled: tc.Disabled,
			limits:   limits,
			state:    st,
			maxWait:  limits.maxWait(c.cfg.MaxWait),
		}
		byID[tc.ID] = t
		if tc.Token != "" {
			byTok[tc.Token] = t
		}
		if tc.ID == f.Anonymous {
			c.anon = t
		}
	}
	if f.Anonymous == "" {
		c.anon = nil
	}
	// Drop limiter state for tenants removed by the reload so the map
	// cannot grow without bound across rotations.
	for id := range c.states {
		if !seen[id] {
			delete(c.states, id)
		}
	}
	c.byTok, c.byID = byTok, byID
	c.metrics.tenants.Set(float64(len(byID)))
}

// retune reconciles one bucket against reloaded limits, preserving the
// balance when the bucket survives.
func retune(b *bucket, rate, burst float64) *bucket {
	if rate <= 0 {
		return nil
	}
	if b == nil {
		return newBucket(rate, burst)
	}
	b.setRate(rate, max(burst, rate))
	return b
}

// Run polls the tenants file mtime until ctx ends, reloading on change.
// SIGHUP-driven reloads go through Reload directly; Run is the belt to
// that suspender (and the only mechanism on platforms without SIGHUP).
func (c *Controller) Run(ctx context.Context) {
	if c == nil || c.cfg.TenantsFile == "" {
		return
	}
	ticker := time.NewTicker(c.cfg.PollInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			fi, err := os.Stat(c.cfg.TenantsFile)
			if err != nil {
				continue // transient during atomic rotation; next tick retries
			}
			c.mu.RLock()
			changed := !fi.ModTime().Equal(c.fileMod)
			c.mu.RUnlock()
			if changed {
				_ = c.Reload() // Reload logs and counts failures itself
			}
		}
	}
}

// Authenticate resolves a bearer token to a tenant. An empty token is
// the anonymous path. A nil Controller admits everything as a nil
// tenant (root scope, no limits).
func (c *Controller) Authenticate(token string) (*Tenant, error) {
	if c == nil {
		return nil, nil
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	var t *Tenant
	if token == "" {
		if t = c.anon; t == nil {
			c.metrics.requests.With("(none)", "unauthorized").Inc()
			return nil, fmt.Errorf("%w: missing bearer token", ErrUnauthorized)
		}
	} else if t = c.byTok[token]; t == nil {
		c.metrics.requests.With("(none)", "unauthorized").Inc()
		return nil, fmt.Errorf("%w: unknown bearer token", ErrUnauthorized)
	}
	if t.disabled {
		c.metrics.requests.With(t.ID, "forbidden").Inc()
		return nil, fmt.Errorf("%w: tenant %q is disabled", ErrForbidden, t.ID)
	}
	return t, nil
}

// AdmitRequest runs the request-level gauntlet for tenant t: the
// global ceiling (priority-ordered shed), the request token bucket,
// then the in-flight quota with its bounded wait. On success the
// returned release must be called when the request finishes. stream
// requests skip the request bucket — their cost is metered per row by
// RowGate — but still hold quota and ceiling slots.
func (c *Controller) AdmitRequest(ctx context.Context, t *Tenant, stream bool) (release func(), err error) {
	if c == nil {
		return func() {}, nil
	}
	id := tenantLabel(t)
	if c.global != nil && !c.admitGlobal(t) {
		c.metrics.requests.With(id, "shed").Inc()
		return nil, &LimitError{Sentinel: ErrOverloaded, RetryAfter: time.Second,
			Detail: fmt.Sprintf("global in-flight ceiling %d reached", c.cfg.GlobalInFlight)}
	}
	releaseGlobal := func() {
		if c.global != nil {
			c.global.release()
			used, _, _ := c.global.state()
			c.metrics.globalInflight.Set(float64(used))
		}
	}
	if t == nil {
		c.metrics.requests.With(id, "allowed").Inc()
		return releaseGlobal, nil
	}
	if !stream {
		if ok, retry := t.state.requests.take(1); !ok {
			releaseGlobal()
			c.metrics.requests.With(id, "rate_limited").Inc()
			return nil, &LimitError{Sentinel: ErrRateLimited, RetryAfter: retry,
				Detail: fmt.Sprintf("tenant %q request rate %.3g/s exceeded", t.ID, t.limits.RequestsPerSecond)}
		}
	}
	waited := time.Now()
	if !t.state.inflight.acquire(ctx, t.maxWait, nil) {
		releaseGlobal()
		c.metrics.requests.With(id, "over_quota").Inc()
		return nil, &LimitError{Sentinel: ErrOverQuota, RetryAfter: retryAfterQuota,
			Detail: fmt.Sprintf("tenant %q already has %d requests in flight", t.ID, t.limits.MaxInFlight)}
	}
	if d := time.Since(waited); d > 0 {
		c.metrics.wait.With(id, "quota").Observe(d.Seconds())
	}
	c.metrics.requests.With(id, "allowed").Inc()
	c.metrics.inflight.With(id).Inc()
	return func() {
		c.metrics.inflight.With(id).Dec()
		t.state.inflight.release()
		releaseGlobal()
	}, nil
}

// retryAfterQuota is the Retry-After on over_quota rejections: quota
// slots free as in-flight requests finish, so "very soon" is honest.
const retryAfterQuota = time.Second

// admitGlobal takes a global in-flight slot, shedding lowest-priority
// traffic first: each priority class may fill only its fraction of the
// ceiling, so when the server saturates, low-priority tenants bounce
// while high-priority headroom survives.
func (c *Controller) admitGlobal(t *Tenant) bool {
	prio := PriorityNormal
	if t != nil {
		prio = t.Priority
	}
	used, capSlots, _ := c.global.state()
	limit := int(float64(capSlots) * globalShedFrac[prio])
	if limit < 1 {
		limit = 1
	}
	if used >= limit {
		return false
	}
	if !c.global.tryAcquire() {
		return false
	}
	used, _, _ = c.global.state()
	c.metrics.globalInflight.Set(float64(used))
	return true
}

// IngestSlot admits one row into a model's fold path through the
// bounded admission queue: one folder runs, up to IngestQueue waiters
// queue FIFO, everything past that sheds immediately with over_quota.
// The returned release must be called after the fold. onWait, when
// non-nil, runs before the caller parks in the queue. A nil controller
// (or a disabled queue) admits at zero cost.
func (c *Controller) IngestSlot(ctx context.Context, t *Tenant, model string, onWait func()) (release func(), err error) {
	if c == nil || c.cfg.IngestQueue < 0 {
		return func() {}, nil
	}
	q := c.ingestQueue(model)
	waited := time.Now()
	if !q.acquire(ctx, c.cfg.MaxWait, onWait) {
		c.metrics.queueSheds.With(tenantLabel(t)).Inc()
		return nil, &LimitError{Sentinel: ErrOverQuota, RetryAfter: retryAfterQuota,
			Detail: fmt.Sprintf("ingest admission queue for model %q is full", model)}
	}
	if d := time.Since(waited); d > time.Millisecond {
		c.metrics.wait.With(tenantLabel(t), "ingest_queue").Observe(d.Seconds())
	}
	c.metrics.queueDepth.Set(float64(c.queuedWaiters()))
	return q.release, nil
}

// ingestQueue returns (building on demand) the per-model fold queue.
func (c *Controller) ingestQueue(model string) *quota {
	c.mu.RLock()
	q := c.ingestQueues[model]
	c.mu.RUnlock()
	if q != nil {
		return q
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if q = c.ingestQueues[model]; q == nil {
		q = newQuota(1, c.cfg.IngestQueue)
		c.ingestQueues[model] = q
	}
	return q
}

// DropIngestQueue discards a model's fold queue (model deleted).
func (c *Controller) DropIngestQueue(model string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.ingestQueues, model)
}

// queuedWaiters sums waiters across all model ingest queues.
func (c *Controller) queuedWaiters() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	total := 0
	for _, q := range c.ingestQueues {
		_, _, queued := q.state()
		total += queued
	}
	return total
}

// tenantLabel is the metric label for t (bounded by the tenants file).
func tenantLabel(t *Tenant) string {
	if t == nil {
		return AnonymousID
	}
	return t.ID
}
