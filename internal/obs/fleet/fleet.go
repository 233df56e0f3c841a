// Package fleet is the federated observability surface: a coordinator-
// or leader-side collector that scrapes every member node's /metrics
// and /readyz on a ticker and republishes them as one per-node-labeled
// exposition (GET /metrics/fleet) plus a JSON rollup (GET /debug/fleet).
// One scrape answers "is the fleet healthy, and where is it slow" —
// no hand-walking N node endpoints.
//
// Unreachable members degrade, they do not disappear: the collector
// keeps serving each member's last good scrape marked stale
// (rr_fleet_member_stale{node=...} 1, error + age in the rollup), so a
// dead worker's final state stays diagnosable exactly when it matters
// most.
package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"ratiorules/internal/obs"
)

// Defaults for Config zero values.
const (
	DefaultInterval = 5 * time.Second
	DefaultTimeout  = 2 * time.Second

	// maxScrapeBody bounds one member's /metrics body.
	maxScrapeBody = 4 << 20
	// maxProbeBody bounds one member's /readyz or shards body.
	maxProbeBody = 256 << 10
)

// Member is one scrape target.
type Member struct {
	// Name labels the member's series in the fleet exposition; "" uses
	// the URL.
	Name string
	// URL is the member's base URL (scheme://host:port, no path).
	URL string
	// Role is advisory ("worker", "follower", "leader", ...); workers
	// additionally get their shard listing scraped.
	Role string
}

// Config tunes a Collector.
type Config struct {
	// Members is the static target list (rrserve -fleet-members).
	Members []Member
	// Source, when non-nil, is re-evaluated every scrape cycle and its
	// members are appended to the static list — how the coordinator's
	// live cluster membership feeds the collector.
	Source func() []Member
	// Interval is the scrape cadence; DefaultInterval if 0.
	Interval time.Duration
	// Timeout bounds each member request; DefaultTimeout if 0.
	Timeout time.Duration
	// Logger receives scrape-failure lines; nil uses slog.Default.
	Logger *slog.Logger
	// Metrics registers the rr_fleet_* meta-metrics when non-nil.
	Metrics *obs.Registry
	// SelfName/SelfRole/SelfMetrics describe the collecting node
	// itself: when SelfMetrics is non-nil its registry is rendered into
	// the fleet exposition under node=SelfName without an HTTP hop.
	SelfName    string
	SelfRole    string
	SelfMetrics *obs.Registry
}

// NodeStatus is one member's row in the /debug/fleet rollup.
type NodeStatus struct {
	Name    string `json:"name"`
	URL     string `json:"url,omitempty"`
	Role    string `json:"role,omitempty"`
	Healthy bool   `json:"healthy"`
	// Stale reports that the most recent scrape failed and the series
	// served for this node are retained from an older one.
	Stale bool   `json:"stale"`
	Err   string `json:"error,omitempty"`
	// LastScrape is the last successful scrape (zero when none ever
	// succeeded); ScrapeAgeSeconds is its age.
	LastScrape       time.Time `json:"last_scrape"`
	ScrapeAgeSeconds float64   `json:"scrape_age_seconds"`
	// Build is parsed from the member's rr_build_info series, so
	// mixed-version fleets are visible in one place.
	Build *obs.BuildInfo `json:"build,omitempty"`
	// Status is the member's raw /readyz (or /healthz fallback) body:
	// role, lag, firing alerts — whatever the node reports.
	Status json.RawMessage `json:"status,omitempty"`
	// Shards is the raw shard listing for worker members.
	Shards json.RawMessage `json:"shards,omitempty"`
}

// nodeState is the retained scrape result for one member.
type nodeState struct {
	member      Member
	metricsText []byte
	status      json.RawMessage
	shards      json.RawMessage
	build       *obs.BuildInfo
	healthy     bool
	lastOK      time.Time
	lastErr     string
	everOK      bool
}

// Collector owns the scrape loop and the retained per-member state.
type Collector struct {
	cfg    Config
	client *http.Client
	logger *slog.Logger

	mu    sync.Mutex
	nodes map[string]*nodeState // keyed by member URL (or name for self-like statics)

	members   *obs.Gauge
	membersUp *obs.Gauge
	scrapes   *obs.CounterVec // result: ok|error
	scrapeSec *obs.Histogram
}

// New builds a Collector; Run starts the loop. A Collector is also
// usable without Run by calling ScrapeOnce (tests, one-shot tools).
func New(cfg Config) *Collector {
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	c := &Collector{
		cfg:    cfg,
		client: &http.Client{},
		logger: cfg.Logger,
		nodes:  make(map[string]*nodeState),
	}
	if reg := cfg.Metrics; reg != nil {
		c.members = reg.Gauge("rr_fleet_members",
			"Members known to the fleet collector (including self).")
		c.membersUp = reg.Gauge("rr_fleet_members_up",
			"Members whose latest scrape succeeded and probe reported healthy.")
		c.scrapes = reg.CounterVec("rr_fleet_scrapes_total",
			"Member scrape attempts by result.", "result")
		c.scrapeSec = reg.Histogram("rr_fleet_scrape_seconds",
			"Wall time of one full fleet scrape cycle.", nil)
	}
	return c
}

// Interval returns the scrape cadence.
func (c *Collector) Interval() time.Duration { return c.cfg.Interval }

// Run scrapes every Interval until ctx is cancelled, starting with an
// immediate cycle so the fleet surface is populated right after boot.
func (c *Collector) Run(ctx context.Context) {
	c.ScrapeOnce(ctx)
	tick := time.NewTicker(c.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			c.ScrapeOnce(ctx)
		}
	}
}

// targets merges the static member list with the live Source.
func (c *Collector) targets() []Member {
	out := append([]Member(nil), c.cfg.Members...)
	if c.cfg.Source != nil {
		out = append(out, c.cfg.Source()...)
	}
	// Dedupe by URL, first writer wins (statics take precedence so an
	// operator can pin a name/role for a sourced member).
	seen := make(map[string]bool, len(out))
	dst := out[:0]
	for _, m := range out {
		if m.URL == "" || seen[m.URL] {
			continue
		}
		seen[m.URL] = true
		dst = append(dst, m)
	}
	return dst
}

// ScrapeOnce runs one scrape cycle over the current member set.
func (c *Collector) ScrapeOnce(ctx context.Context) {
	start := time.Now()
	members := c.targets()

	// Forget members that left the set (resharded away, reconfigured):
	// retaining them forever would report a removed node as eternally
	// stale rather than gone.
	current := make(map[string]bool, len(members))
	for _, m := range members {
		current[m.URL] = true
	}
	c.mu.Lock()
	for url := range c.nodes {
		if !current[url] {
			delete(c.nodes, url)
		}
	}
	c.mu.Unlock()

	var wg sync.WaitGroup
	for _, m := range members {
		wg.Add(1)
		go func(m Member) {
			defer wg.Done()
			c.scrapeMember(ctx, m)
		}(m)
	}
	wg.Wait()

	up := 0
	c.mu.Lock()
	n := len(c.nodes)
	for _, ns := range c.nodes {
		if ns.healthy && ns.lastErr == "" {
			up++
		}
	}
	c.mu.Unlock()
	if c.cfg.SelfMetrics != nil {
		n++
		up++
	}
	if c.members != nil {
		c.members.Set(float64(n))
		c.membersUp.Set(float64(up))
		c.scrapeSec.Observe(time.Since(start).Seconds())
	}
}

// scrapeMember fetches one member's metrics, probe and (for workers)
// shard listing, retaining the previous good data on failure.
func (c *Collector) scrapeMember(ctx context.Context, m Member) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()

	text, err := c.get(ctx, m.URL+"/metrics", maxScrapeBody)
	var status, shards []byte
	var healthy bool
	if err == nil {
		status, healthy, err = c.probe(ctx, m.URL)
	}
	if err == nil && m.Role == "worker" {
		// Best-effort: a worker that predates the shards listing still
		// scrapes fine.
		if sh, shErr := c.get(ctx, m.URL+"/v1/cluster/shards", maxProbeBody); shErr == nil {
			shards = sh
		}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	ns := c.nodes[m.URL]
	if ns == nil {
		ns = &nodeState{}
		c.nodes[m.URL] = ns
	}
	ns.member = m
	if err != nil {
		ns.lastErr = err.Error()
		ns.healthy = false
		if c.scrapes != nil {
			c.scrapes.With("error").Inc()
		}
		c.logger.Warn("fleet scrape failed", "member", m.URL, "error", err)
		return
	}
	ns.metricsText = text
	ns.status = status
	ns.shards = shards
	ns.build = parseBuildInfo(text)
	ns.healthy = healthy
	ns.lastOK = time.Now()
	ns.lastErr = ""
	ns.everOK = true
	if c.scrapes != nil {
		c.scrapes.With("ok").Inc()
	}
}

// get fetches one URL with a size bound.
func (c *Collector) get(ctx context.Context, url string, limit int64) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, limit))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fleet: %s answered %s", url, resp.Status)
	}
	return body, nil
}

// probe fetches the member's readiness: /readyz where it exists (server
// nodes), falling back to /healthz (worker nodes serve only liveness).
// A 503 readyz is a successful scrape of an unhealthy node — the body
// still carries role/lag/alerts and is retained.
func (c *Collector) probe(ctx context.Context, base string) (body []byte, healthy bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/readyz", nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, false, err
	}
	b, readErr := io.ReadAll(io.LimitReader(resp.Body, maxProbeBody))
	resp.Body.Close()
	if readErr != nil {
		return nil, false, readErr
	}
	switch {
	case resp.StatusCode == http.StatusOK:
		return b, true, nil
	case resp.StatusCode == http.StatusServiceUnavailable:
		return b, false, nil
	case resp.StatusCode == http.StatusNotFound || resp.StatusCode == http.StatusMethodNotAllowed:
		b, err := c.get(ctx, base+"/healthz", maxProbeBody)
		if err != nil {
			return nil, false, err
		}
		return b, true, nil
	default:
		return nil, false, fmt.Errorf("fleet: %s/readyz answered %s", base, resp.Status)
	}
}

// Nodes returns the rollup rows, sorted by name, for /debug/fleet.
func (c *Collector) Nodes() []NodeStatus {
	c.mu.Lock()
	out := make([]NodeStatus, 0, len(c.nodes))
	for _, ns := range c.nodes {
		row := NodeStatus{
			Name:    memberName(ns.member),
			URL:     ns.member.URL,
			Role:    ns.member.Role,
			Healthy: ns.healthy && ns.lastErr == "",
			Stale:   ns.everOK && ns.lastErr != "",
			Err:     ns.lastErr,
			Build:   ns.build,
			Status:  ns.status,
			Shards:  ns.shards,
		}
		row.LastScrape = ns.lastOK
		if ns.everOK {
			row.ScrapeAgeSeconds = time.Since(ns.lastOK).Seconds()
		}
		out = append(out, row)
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// memberName is the node label for a member.
func memberName(m Member) string {
	if m.Name != "" {
		return m.Name
	}
	return m.URL
}

// ErrNoData reports a fleet exposition with no members at all.
var ErrNoData = errors.New("fleet: no members configured")

// WriteMetrics writes the federated exposition: every member's retained
// /metrics text (and the collector's own registry as SelfName) with a
// node="..." label injected into each sample, plus synthetic per-node
// health series:
//
//	rr_fleet_member_up{node=...}                 1 scraped + healthy
//	rr_fleet_member_stale{node=...}              1 serving retained data
//	rr_fleet_member_scrape_age_seconds{node=...} age of served data
//
// HELP/TYPE comments are deduplicated across members (first emitter
// wins); sample lines pass through byte-for-byte otherwise, so member
// label sets are preserved under the added node label.
func (c *Collector) WriteMetrics(w io.Writer) error {
	type block struct {
		node string
		text []byte
		row  NodeStatus
	}
	var blocks []block
	if c.cfg.SelfMetrics != nil {
		var sb strings.Builder
		c.cfg.SelfMetrics.WritePrometheus(&sb)
		name := c.cfg.SelfName
		if name == "" {
			name = "self"
		}
		blocks = append(blocks, block{node: name, text: []byte(sb.String()),
			row: NodeStatus{Name: name, Healthy: true}})
	}
	c.mu.Lock()
	for _, ns := range c.nodes {
		blocks = append(blocks, block{
			node: memberName(ns.member),
			text: ns.metricsText,
			row: NodeStatus{
				Name:    memberName(ns.member),
				Healthy: ns.healthy && ns.lastErr == "",
				Stale:   ns.everOK && ns.lastErr != "",
			},
		})
	}
	c.mu.Unlock()
	if len(blocks) == 0 {
		return ErrNoData
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].node < blocks[j].node })

	bw := newDedupWriter(w)
	for _, b := range blocks {
		if err := relabel(bw, b.text, b.node); err != nil {
			return err
		}
	}
	// Synthetic health series last, one sample per node.
	if err := bw.meta("rr_fleet_member_up", "gauge",
		"1 when the member's latest scrape succeeded and it probed healthy."); err != nil {
		return err
	}
	for _, b := range blocks {
		if err := bw.sample("rr_fleet_member_up", b.node, boolVal(b.row.Healthy)); err != nil {
			return err
		}
	}
	if err := bw.meta("rr_fleet_member_stale", "gauge",
		"1 when the member's series are retained from an older scrape."); err != nil {
		return err
	}
	for _, b := range blocks {
		if err := bw.sample("rr_fleet_member_stale", b.node, boolVal(b.row.Stale)); err != nil {
			return err
		}
	}
	return nil
}

func boolVal(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// dedupWriter emits exposition lines, dropping repeated HELP/TYPE
// comments for families already described by an earlier member.
type dedupWriter struct {
	w    io.Writer
	seen map[string]bool
}

func newDedupWriter(w io.Writer) *dedupWriter {
	return &dedupWriter{w: w, seen: make(map[string]bool)}
}

func (d *dedupWriter) line(s string) error {
	if strings.HasPrefix(s, "#") {
		f := strings.Fields(s)
		// "# HELP name ..." / "# TYPE name ..."
		if len(f) >= 3 && (f[1] == "HELP" || f[1] == "TYPE") {
			key := f[1] + " " + f[2]
			if d.seen[key] {
				return nil
			}
			d.seen[key] = true
		}
	}
	_, err := io.WriteString(d.w, s+"\n")
	return err
}

func (d *dedupWriter) meta(name, typ, help string) error {
	if err := d.line("# HELP " + name + " " + help); err != nil {
		return err
	}
	return d.line("# TYPE " + name + " " + typ)
}

func (d *dedupWriter) sample(name, node, value string) error {
	_, err := fmt.Fprintf(d.w, "%s{node=%q} %s\n", name, node, value)
	return err
}

// relabel streams one member's exposition through the dedup writer with
// node="..." injected into every sample line.
func relabel(d *dedupWriter, text []byte, node string) error {
	for _, raw := range strings.Split(string(text), "\n") {
		line := strings.TrimRight(raw, "\r")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := d.line(line); err != nil {
				return err
			}
			continue
		}
		if err := d.line(injectNode(line, node)); err != nil {
			return err
		}
	}
	return nil
}

// injectNode adds node="..." as the first label of one sample line.
func injectNode(line, node string) string {
	label := fmt.Sprintf("node=%q", node)
	brace := strings.IndexByte(line, '{')
	space := strings.IndexByte(line, ' ')
	if brace >= 0 && (space < 0 || brace < space) {
		if len(line) > brace+1 && line[brace+1] == '}' {
			return line[:brace+1] + label + line[brace+1:]
		}
		return line[:brace+1] + label + "," + line[brace+1:]
	}
	if space < 0 {
		return line // not a sample line; pass through untouched
	}
	return line[:space] + "{" + label + "}" + line[space:]
}

// parseBuildInfo recovers a member's build identity from its
// rr_build_info series.
func parseBuildInfo(text []byte) *obs.BuildInfo {
	for _, line := range strings.Split(string(text), "\n") {
		if !strings.HasPrefix(line, "rr_build_info{") {
			continue
		}
		end := strings.IndexByte(line, '}')
		if end < 0 {
			return nil
		}
		b := &obs.BuildInfo{}
		for _, pair := range strings.Split(line[len("rr_build_info{"):end], ",") {
			k, v, ok := strings.Cut(pair, "=")
			if !ok {
				continue
			}
			v = strings.Trim(v, `"`)
			switch k {
			case "version":
				b.Version = v
			case "go_version":
				b.GoVersion = v
			case "revision":
				b.Revision = v
			}
		}
		return b
	}
	return nil
}
