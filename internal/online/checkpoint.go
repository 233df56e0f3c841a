package online

// Durable stream state. Each stream's sufficient statistics (the
// core.StreamMiner Save payload), holdout reservoir and gate counters
// are written as one JSON sidecar per model under Config.CheckpointDir,
// with the store's atomic-write discipline (tmp file, fsync, rename,
// directory sync) so a crash mid-write leaves either the old checkpoint
// or the new one, never a torn file. NewManager reloads every sidecar
// it can parse and skips — loudly — the ones it cannot: a corrupt
// checkpoint costs one stream's accumulated state, not server startup.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"strings"

	"ratiorules/internal/core"
)

// checkpointFormat versions the sidecar layout.
const checkpointFormat = 1

// checkpointSuffix names stream sidecars: <escaped-model>.stream.json.
const checkpointSuffix = ".stream.json"

// streamCheckpoint is the sidecar document. Stream holds the raw
// core.StreamMiner Save output, so the sufficient-statistics encoding
// stays owned by internal/core (and covered by its fuzzer).
type streamCheckpoint struct {
	Format      int             `json:"format"`
	Name        string          `json:"name"`
	Decay       float64         `json:"decay"`
	Seen        int             `json:"seen"`
	Republishes int             `json:"republishes"`
	Promotions  int             `json:"promotions"`
	Rejections  int             `json:"rejections"`
	LastVersion int             `json:"last_version"`
	LastCandGE  float64         `json:"last_candidate_ge"`
	LastServGE  float64         `json:"last_served_ge"`
	Reservoir   [][]float64     `json:"reservoir"`
	Stream      json.RawMessage `json:"stream"`

	// Quality-monitor state (format 1, additive: sidecars written
	// before these fields existed load with empty monitor state).
	// VersionGE copies the store's per-version GE annotations, which
	// the store itself never journals; loading re-attaches them.
	GEHistory     []GESample      `json:"ge_history,omitempty"`
	Outcomes      []bool          `json:"outcomes,omitempty"`
	VersionGE     map[int]float64 `json:"version_ge,omitempty"`
	GEEps         float64         `json:"ge_eps,omitempty"`
	AutoRollbacks int             `json:"auto_rollbacks,omitempty"`
}

// checkpointPath is the sidecar path for a model; the name is
// query-escaped so arbitrary model names cannot traverse out of dir.
func checkpointPath(dir, name string) string {
	return filepath.Join(dir, url.QueryEscape(name)+checkpointSuffix)
}

// CheckpointAll writes every stream's sidecar, returning the first
// error (all streams are still attempted). No-op without a configured
// checkpoint directory.
func (m *Manager) CheckpointAll() error {
	if m.cfg.CheckpointDir == "" {
		return nil
	}
	m.mu.Lock()
	streams := make([]*Stream, 0, len(m.streams))
	for _, st := range m.streams {
		streams = append(streams, st)
	}
	m.mu.Unlock()
	var first error
	for _, st := range streams {
		if err := m.checkpoint(st); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// checkpointLogged is checkpoint with errors logged instead of
// returned, for the republish path where a failed checkpoint must not
// fail the promotion that already happened.
func (m *Manager) checkpointLogged(st *Stream) {
	if err := m.checkpoint(st); err != nil {
		m.cfg.Logger.Warn("online checkpoint failed", "model", st.name, "err", err)
	}
}

// checkpoint copies one stream under its lock and writes the sidecar
// atomically, encoding outside the lock as republish does. Streams that
// have not seen a row yet have no state worth keeping and are skipped.
func (m *Manager) checkpoint(st *Stream) error {
	st.mu.Lock()
	if st.sm == nil {
		st.mu.Unlock()
		return nil
	}
	sm := st.sm.Clone()
	cp := streamCheckpoint{
		Format:      checkpointFormat,
		Name:        st.name,
		Decay:       st.decay,
		Seen:        st.seen,
		Republishes: st.republishes,
		Promotions:  st.promotions,
		Rejections:  st.rejections,
		LastVersion: st.lastVersion,
		LastCandGE:  st.lastCandGE,
		LastServGE:  st.lastServedGE,
		Reservoir:   append([][]float64(nil), st.reservoir...),

		GEHistory:     append([]GESample(nil), st.geHistory...),
		Outcomes:      append([]bool(nil), st.outcomes...),
		VersionGE:     make(map[int]float64),
		GEEps:         st.geEps,
		AutoRollbacks: st.autoRollbacks,
	}
	st.mu.Unlock()
	var stream bytes.Buffer
	if err := sm.Save(&stream); err != nil {
		m.met.checkpoints.With("error").Inc()
		return fmt.Errorf("online: saving stream %q: %w", st.name, err)
	}
	cp.Stream = stream.Bytes()
	versions, _ := m.store.Versions(st.name)
	for _, info := range versions {
		if info.GE != nil {
			cp.VersionGE[info.Version] = *info.GE
		}
	}

	doc, err := json.Marshal(cp)
	if err != nil {
		m.met.checkpoints.With("error").Inc()
		return fmt.Errorf("online: encoding checkpoint %q: %w", st.name, err)
	}
	if err := atomicWrite(checkpointPath(m.cfg.CheckpointDir, st.name), doc); err != nil {
		m.met.checkpoints.With("error").Inc()
		return fmt.Errorf("online: writing checkpoint %q: %w", st.name, err)
	}
	m.met.checkpoints.With("ok").Inc()
	m.cfg.Logger.Debug("online stream checkpointed",
		"model", st.name, "rows", cp.Seen, "reservoir", len(cp.Reservoir))
	return nil
}

// removeCheckpoint deletes a dropped stream's sidecar (best effort).
func (m *Manager) removeCheckpoint(name string) {
	if m.cfg.CheckpointDir == "" {
		return
	}
	_ = os.Remove(checkpointPath(m.cfg.CheckpointDir, name))
}

// loadCheckpoints restores every parseable sidecar in the checkpoint
// directory (creating it when absent). Unparseable sidecars are logged
// and skipped, never fatal.
func (m *Manager) loadCheckpoints() error {
	dir := m.cfg.CheckpointDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("online: creating checkpoint dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("online: reading checkpoint dir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), checkpointSuffix) {
			continue
		}
		path := filepath.Join(dir, e.Name())
		st, err := m.loadCheckpoint(path)
		if err != nil {
			m.cfg.Logger.Warn("online checkpoint skipped", "path", path, "err", err)
			continue
		}
		m.streams[st.name] = st
		m.met.reservoir.Add(float64(len(st.reservoir)))
		m.cfg.Logger.Info("online stream resumed",
			"model", st.name, "rows", st.sm.Count(), "reservoir", len(st.reservoir))
	}
	return nil
}

// loadCheckpoint parses one sidecar into a live stream and re-attaches
// its per-version GE records to the store (versions the store no longer
// retains are ignored by it). The reservoir RNG is re-derived from the
// configured seed (its position is not state worth persisting: Seen is
// restored, so replacement probabilities stay correct, the sample just
// continues with a fresh random tape).
func (m *Manager) loadCheckpoint(path string) (*Stream, error) {
	doc, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cp streamCheckpoint
	if err := json.Unmarshal(doc, &cp); err != nil {
		return nil, fmt.Errorf("decoding: %w", err)
	}
	if cp.Format != checkpointFormat {
		return nil, fmt.Errorf("checkpoint format %d, want %d", cp.Format, checkpointFormat)
	}
	if cp.Name == "" {
		return nil, fmt.Errorf("checkpoint missing model name")
	}
	sm, err := core.LoadStreamMiner(bytes.NewReader(cp.Stream))
	if err != nil {
		return nil, fmt.Errorf("restoring stream: %w", err)
	}
	if sm.Decay() != cp.Decay {
		return nil, fmt.Errorf("checkpoint decay %v disagrees with stream decay %v", cp.Decay, sm.Decay())
	}
	if cp.Seen < 0 || cp.Seen < len(cp.Reservoir) {
		return nil, fmt.Errorf("checkpoint seen %d below reservoir size %d", cp.Seen, len(cp.Reservoir))
	}
	for i, row := range cp.Reservoir {
		if len(row) != sm.Width() {
			return nil, fmt.Errorf("reservoir row %d has width %d, stream has %d", i, len(row), sm.Width())
		}
	}
	st := m.newStream(cp.Name, cp.Decay)
	st.sm = sm
	st.seen = cp.Seen
	st.republishes = cp.Republishes
	st.promotions = cp.Promotions
	st.rejections = cp.Rejections
	st.lastVersion = cp.LastVersion
	st.lastCandGE = cp.LastCandGE
	st.lastServedGE = cp.LastServGE
	if len(cp.Reservoir) > m.cfg.ReservoirSize {
		cp.Reservoir = cp.Reservoir[:m.cfg.ReservoirSize]
	}
	st.reservoir = cp.Reservoir
	if n := len(cp.GEHistory); n > m.cfg.GEHistorySize {
		cp.GEHistory = cp.GEHistory[n-m.cfg.GEHistorySize:]
	}
	st.geHistory = cp.GEHistory
	if n := len(cp.Outcomes); n > outcomeWindow {
		cp.Outcomes = cp.Outcomes[n-outcomeWindow:]
	}
	st.outcomes = cp.Outcomes
	for v, ge := range cp.VersionGE {
		m.store.SetVersionGE(cp.Name, v, ge)
	}
	st.geEps = cp.GEEps
	st.autoRollbacks = cp.AutoRollbacks
	return st, nil
}

// atomicWrite lands doc at path via the tmp+fsync+rename+dir-sync
// discipline shared with the store's snapshot writer.
func atomicWrite(path string, doc []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(doc); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
