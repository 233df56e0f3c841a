package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"ratiorules/internal/core"
)

// snapshotFormat versions the snapshot schema for forward compatibility.
const snapshotFormat = 1

const (
	walFileName      = "wal.log"
	snapshotFileName = "snapshot.json"
	lockFileName     = "lock"
)

// SnapshotRev is one retained revision inside a SnapshotDoc.
type SnapshotRev struct {
	Version int             `json:"version"`
	Rules   json.RawMessage `json:"rules"`
}

// SnapshotDoc is the full store state as of Seq: snapshot.json on disk
// and the follower bootstrap payload on the wire. WAL events with seq <=
// Seq are already folded in and are skipped on replay. LastVersion
// outlives deletes so a re-created model continues its version counter
// and ETags never repeat. Format is set (to snapshotFormat) only on
// disk; replication docs omit it. GE annotations are advisory and
// in-memory only; they are not part of the document.
type SnapshotDoc struct {
	Format      int                      `json:"format,omitempty"`
	Seq         uint64                   `json:"seq"`
	Models      map[string][]SnapshotRev `json:"models"`
	LastVersion map[string]int           `json:"last_version,omitempty"`
}

// docLocked builds the SnapshotDoc of the current state. Callers hold
// s.mu (read or write).
func (s *Store) docLocked() *SnapshotDoc {
	doc := &SnapshotDoc{
		Seq:         s.seq,
		Models:      make(map[string][]SnapshotRev, len(s.models)),
		LastVersion: make(map[string]int, len(s.lastVersion)),
	}
	for name, m := range s.models {
		revs := make([]SnapshotRev, len(m.revs))
		for i, r := range m.revs {
			revs[i] = SnapshotRev{Version: r.version, Rules: r.raw}
		}
		doc.Models[name] = revs
	}
	for name, v := range s.lastVersion {
		doc.LastVersion[name] = v
	}
	return doc
}

// loadDoc validates a SnapshotDoc into model state without touching the
// store: every revision must Load, histories are sorted by version, and
// the version counters are raised to cover the revisions even if the
// doc omitted last_version.
func loadDoc(doc *SnapshotDoc) (map[string]*model, map[string]int, error) {
	models := make(map[string]*model, len(doc.Models))
	lastVersion := make(map[string]int, len(doc.LastVersion))
	for name, v := range doc.LastVersion {
		lastVersion[name] = v
	}
	for name, revs := range doc.Models {
		m := &model{revs: make([]rev, len(revs))}
		for i, sr := range revs {
			rules, err := core.Load(bytes.NewReader(sr.Rules))
			if err != nil {
				return nil, nil, fmt.Errorf("store: snapshot model %q v%d: %w", name, sr.Version, err)
			}
			m.revs[i] = rev{version: sr.Version, rules: rules, raw: sr.Rules}
			lastVersion[name] = max(lastVersion[name], sr.Version)
		}
		sort.Slice(m.revs, func(i, j int) bool { return m.revs[i].version < m.revs[j].version })
		models[name] = m
	}
	return models, lastVersion, nil
}

// loadSnapshot reads the snapshot if present; a missing file yields an
// empty state. A corrupt snapshot is a hard error: snapshot writes are
// atomic (temp + rename), so damage here means real disk trouble and
// silently starting empty would discard committed data.
func loadSnapshot(path string) (*SnapshotDoc, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return &SnapshotDoc{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: reading snapshot: %w", err)
	}
	var snap SnapshotDoc
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("store: corrupt snapshot %s: %w", path, err)
	}
	if snap.Format != snapshotFormat {
		return nil, fmt.Errorf("store: snapshot format %d, want %d", snap.Format, snapshotFormat)
	}
	return &snap, nil
}

// writeSnapshot atomically replaces the snapshot: write to a temp file
// in the same directory, fsync it, rename over the target, then fsync
// the directory so the rename itself is durable.
func writeSnapshot(dir string, snap *SnapshotDoc) error {
	data, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("store: encoding snapshot: %w", err)
	}
	path := filepath.Join(dir, snapshotFileName)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating snapshot temp: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: syncing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: closing snapshot temp: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: installing snapshot: %w", err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed file survives a crash.
// Not all platforms support fsync on directories; that is best-effort.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}
