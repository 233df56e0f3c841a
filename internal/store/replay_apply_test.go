package store

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ratiorules/internal/obs"
)

// TestReplayMatchesApplyEvent pins that WAL replay and ApplyEvent accept
// and reject the same events: a CRC-valid record that ApplyEvent would
// refuse is skipped on replay with a warning, never installed.
func TestReplayMatchesApplyEvent(t *testing.T) {
	raw := rawOf(t, testRules(t, 2))
	events := []Event{
		{Seq: 1, Op: opPut, Name: "a", Version: 1, Rules: raw},
		{Seq: 2, Op: opPut, Name: "", Version: 1, Rules: raw},  // empty name
		{Seq: 3, Op: opPut, Name: "b", Version: 0, Rules: raw}, // version 0
		{Seq: 4, Op: opDelete, Name: ""},                       // empty name
		{Seq: 5, Op: opPut, Name: "c", Version: 1, Rules: raw},
	}
	bad := map[uint64]bool{2: true, 3: true, 4: true}

	var wal bytes.Buffer
	for _, ev := range events {
		payload, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		wal.Write(encodeRecord(payload))
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walFileName), wal.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var logs bytes.Buffer
	st, err := Open(dir, WithObs(obs.NewRegistry()),
		WithLogger(slog.New(slog.NewTextHandler(&logs, nil))))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got, want := st.Names(), []string{"a", "c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed names %q, want %q", got, want)
	}
	if n := strings.Count(logs.String(), "skipping unreplayable WAL event"); n != len(bad) {
		t.Fatalf("%d skip warnings, want %d:\n%s", n, len(bad), logs.String())
	}

	// ApplyEvent on a follower draws the same line. Each bad event is
	// tried at the seq where it would be next, so only validation can
	// refuse it.
	f := OpenMemory(WithObs(obs.NewRegistry()))
	for _, ev := range events {
		if bad[ev.Seq] {
			probe := ev
			probe.Seq = f.Seq() + 1
			if applied, err := f.ApplyEvent(probe); applied || err == nil {
				t.Errorf("ApplyEvent(seq %d %s %q v%d) = %v, %v; want rejected",
					ev.Seq, ev.Op, ev.Name, ev.Version, applied, err)
			}
			continue
		}
		ev.Seq = f.Seq() + 1
		if applied, err := f.ApplyEvent(ev); !applied || err != nil {
			t.Fatalf("ApplyEvent(%s %q) = %v, %v", ev.Op, ev.Name, applied, err)
		}
	}
	if got := f.Names(); !reflect.DeepEqual(got, st.Names()) {
		t.Fatalf("applied names %q, replayed %q", got, st.Names())
	}
}
