package replica

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"ratiorules/internal/obs"
	"ratiorules/internal/obs/trace"
	"ratiorules/internal/store"
)

// Default reconnect backoff bounds and the stall watchdog.
const (
	DefaultMinBackoff   = 100 * time.Millisecond
	DefaultMaxBackoff   = 5 * time.Second
	DefaultStallTimeout = 30 * time.Second
)

// Options configures a Follower.
type Options struct {
	// Leader is the leader's base URL, e.g. "http://leader:8080". The
	// replication stream is GET Leader+"/v1/replicate".
	Leader string
	// Store is the local replica the stream folds into. It must be the
	// follower's OWN store (its own dir or memory) — never the leader's.
	Store *store.Store

	Logger   *slog.Logger  // default slog.Default()
	Registry *obs.Registry // rr_replica_* metrics; nil skips registration
	// Tracer records a replica.apply span per applied event whose
	// replicated Trace stamp parses, continuing the LEADER's originating
	// trace ID — so /debug/traces/{id} on the follower shows this node's
	// share of the mutation the leader committed. Nil disables the spans.
	Tracer *trace.Tracer

	MinBackoff time.Duration // reconnect backoff floor; DefaultMinBackoff if 0
	MaxBackoff time.Duration // reconnect backoff ceiling; DefaultMaxBackoff if 0
	// StallTimeout aborts a connection that delivers no frame (not even
	// a heartbeat) for this long — a dead leader must not hold a
	// follower in "connected" forever. DefaultStallTimeout if 0.
	StallTimeout time.Duration
}

// Status is a point-in-time view of the follower, served by /readyz.
type Status struct {
	Leader     string `json:"leader"`
	Connected  bool   `json:"connected"`
	Synced     bool   `json:"synced"` // caught up to the leader head at last contact
	AppliedSeq uint64 `json:"applied_seq"`
	LeaderSeq  uint64 `json:"leader_seq"`
	LagRecords uint64 `json:"lag_records"`
	// LagSeconds bounds read staleness: seconds since the follower last
	// knew it was caught up to the leader head.
	LagSeconds         float64 `json:"lag_seconds"`
	Reconnects         uint64  `json:"reconnects"`
	SnapshotBootstraps uint64  `json:"snapshot_bootstraps"`
}

// Follower tails a leader's replication stream into a local store. Run
// drives the loop; Status answers the probes. All reads the replica
// serves go through the store as usual — the follower only writes.
type Follower struct {
	leader       string
	st           *store.Store
	client       *http.Client
	logger       *slog.Logger
	minBackoff   time.Duration
	maxBackoff   time.Duration
	stallTimeout time.Duration
	tracer       *trace.Tracer

	mu           sync.Mutex
	connected    bool
	leaderSeq    uint64
	lastCaughtUp time.Time // zero until first caught-up contact
	reconnects   uint64
	bootstraps   uint64
	start        time.Time

	met followerMetrics
}

type followerMetrics struct {
	appliedSeq *obs.Gauge
	leaderSeq  *obs.Gauge
	lagRecords *obs.Gauge
	lagSeconds *obs.Gauge
	connected  *obs.Gauge
	reconnects *obs.Counter
	bootstraps *obs.Counter
	applied    *obs.Counter
}

// New builds a Follower. The store must be open; Run does the rest.
func New(opts Options) (*Follower, error) {
	if opts.Leader == "" {
		return nil, errors.New("replica: missing leader URL")
	}
	if opts.Store == nil {
		return nil, errors.New("replica: missing store")
	}
	f := &Follower{
		leader:       opts.Leader,
		st:           opts.Store,
		client:       &http.Client{}, // deliberately no Timeout: the stream is long-lived
		logger:       opts.Logger,
		minBackoff:   opts.MinBackoff,
		maxBackoff:   opts.MaxBackoff,
		stallTimeout: opts.StallTimeout,
		tracer:       opts.Tracer,
		start:        time.Now(),
	}
	if f.logger == nil {
		f.logger = slog.Default()
	}
	if f.minBackoff <= 0 {
		f.minBackoff = DefaultMinBackoff
	}
	if f.maxBackoff < f.minBackoff {
		f.maxBackoff = DefaultMaxBackoff
	}
	if f.stallTimeout <= 0 {
		f.stallTimeout = DefaultStallTimeout
	}
	if reg := opts.Registry; reg != nil {
		f.met = followerMetrics{
			appliedSeq: reg.Gauge("rr_replica_applied_seq",
				"Last leader sequence number applied to the local replica."),
			leaderSeq: reg.Gauge("rr_replica_leader_seq",
				"Leader head sequence number at last contact."),
			lagRecords: reg.Gauge("rr_replica_lag_records",
				"Committed leader records not yet applied locally."),
			lagSeconds: reg.Gauge("rr_replica_lag_seconds",
				"Seconds since the replica last knew it was caught up."),
			connected: reg.Gauge("rr_replica_connected",
				"1 while the replication stream is connected."),
			reconnects: reg.Counter("rr_replica_reconnects_total",
				"Replication stream reconnect attempts after a failure."),
			bootstraps: reg.Counter("rr_replica_snapshot_bootstraps_total",
				"Full snapshot bootstraps (follower behind the retained log)."),
			applied: reg.Counter("rr_replica_events_applied_total",
				"Replicated events applied to the local store."),
		}
		reg.RegisterCollector(func() {
			s := f.Status()
			f.met.lagRecords.Set(float64(s.LagRecords))
			f.met.lagSeconds.Set(s.LagSeconds)
		})
	}
	return f, nil
}

// Status reports the follower's current replication position and lag.
func (f *Follower) Status() Status {
	applied := f.st.Seq()
	f.mu.Lock()
	defer f.mu.Unlock()
	s := Status{
		Leader:             f.leader,
		Connected:          f.connected,
		AppliedSeq:         applied,
		LeaderSeq:          f.leaderSeq,
		Reconnects:         f.reconnects,
		SnapshotBootstraps: f.bootstraps,
	}
	if f.leaderSeq > applied {
		s.LagRecords = f.leaderSeq - applied
	}
	s.Synced = f.connected && !f.lastCaughtUp.IsZero() && s.LagRecords == 0
	since := f.lastCaughtUp
	if since.IsZero() {
		since = f.start // never caught up: lag is the follower's whole lifetime
	}
	s.LagSeconds = time.Since(since).Seconds()
	return s
}

// Run tails the leader until ctx is cancelled, reconnecting with
// exponential backoff from the last applied seq after any failure. It
// always returns ctx.Err().
func (f *Follower) Run(ctx context.Context) error {
	backoff := f.minBackoff
	for attempt := 0; ; attempt++ {
		frames, err := f.tail(ctx)
		f.setConnected(false)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if frames > 0 {
			backoff = f.minBackoff // progress was made: fresh fault, fast retry
		}
		f.logger.Warn("replication stream lost; reconnecting",
			"leader", f.leader, "applied", f.st.Seq(),
			"backoff", backoff, "error", err)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		f.mu.Lock()
		f.reconnects++
		f.mu.Unlock()
		if f.met.reconnects != nil {
			f.met.reconnects.Inc()
		}
		if backoff *= 2; backoff > f.maxBackoff {
			backoff = f.maxBackoff
		}
	}
}

// tail runs one connection: dial from the last applied seq, fold frames
// until the stream breaks. Returns the number of frames processed.
func (f *Follower) tail(ctx context.Context) (frames int, err error) {
	// The stall watchdog cancels the request when no frame — not even a
	// heartbeat — arrives within the window, unsticking reads from a
	// leader whose TCP connection died silently.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	watchdog := time.AfterFunc(f.stallTimeout, cancel)
	defer watchdog.Stop()

	from := f.st.Seq()
	url := fmt.Sprintf("%s/v1/replicate?from=%d", f.leader, from)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, fmt.Errorf("replica: leader answered %s: %s", resp.Status, body)
	}
	f.setConnected(true)
	f.logger.Info("replication stream connected", "leader", f.leader, "from", from)

	br := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		fr, err := ReadFrame(br)
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = errors.New("replica: leader closed the stream")
			}
			return frames, err
		}
		watchdog.Reset(f.stallTimeout)
		frames++
		switch fr.Kind {
		case KindEvent:
			sp := f.applySpan(ctx, fr.Event)
			applied, err := f.st.ApplyEvent(fr.Event)
			if sp != nil {
				sp.SetAttr("applied", applied)
				if err != nil {
					sp.SetAttr("error", err.Error())
				}
				sp.End()
			}
			if err != nil {
				// A gap (ErrSnapshotNeeded) or a corrupt event: drop the
				// connection and re-dial from the applied seq — the leader
				// ships a snapshot if the log no longer covers us.
				return frames, err
			}
			if applied && f.met.applied != nil {
				f.met.applied.Inc()
			}
			f.observe(fr.Event.Seq, false)
		case KindSnapshot:
			if err := f.st.RestoreSnapshot(fr.Snapshot); err != nil {
				return frames, err
			}
			f.mu.Lock()
			f.bootstraps++
			f.mu.Unlock()
			if f.met.bootstraps != nil {
				f.met.bootstraps.Inc()
			}
			f.logger.Info("replica bootstrapped from snapshot",
				"leader", f.leader, "seq", fr.Snapshot.Seq)
			f.observe(fr.Snapshot.Seq, false)
		case KindHeartbeat:
			f.observe(fr.Seq, true)
		}
	}
}

// applySpan roots a replica.apply span continuing the leader trace
// stamped on ev, or nil when untraced/untraceable: each applied
// mutation becomes one follower-local trace under the leader's trace
// ID, with a remote "parent" reference back to the span that committed
// it on the leader.
func (f *Follower) applySpan(ctx context.Context, ev store.Event) *trace.Span {
	if f.tracer == nil || ev.Trace == "" {
		return nil
	}
	remote, err := trace.ParseTraceparent(ev.Trace)
	if err != nil {
		return nil
	}
	_, sp := f.tracer.StartRoot(ctx, "replica.apply", remote)
	sp.SetAttr("op", ev.Op)
	sp.SetAttr("model", ev.Name)
	sp.SetAttr("seq", ev.Seq)
	if ev.Version > 0 {
		sp.SetAttr("version", ev.Version)
	}
	return sp
}

// observe folds a frame's view of the leader head into the status. A
// heartbeat carries the authoritative head (exact, may move backwards
// across leader restarts); events only raise it.
func (f *Follower) observe(seq uint64, authoritative bool) {
	applied := f.st.Seq()
	f.mu.Lock()
	if authoritative || seq > f.leaderSeq {
		f.leaderSeq = seq
	}
	if applied >= f.leaderSeq {
		f.lastCaughtUp = time.Now()
	}
	leaderSeq := f.leaderSeq
	f.mu.Unlock()
	if f.met.appliedSeq != nil {
		f.met.appliedSeq.Set(float64(applied))
		f.met.leaderSeq.Set(float64(leaderSeq))
	}
}

func (f *Follower) setConnected(v bool) {
	f.mu.Lock()
	f.connected = v
	f.mu.Unlock()
	if f.met.connected != nil {
		if v {
			f.met.connected.Set(1)
		} else {
			f.met.connected.Set(0)
		}
	}
}
