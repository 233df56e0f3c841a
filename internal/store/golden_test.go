package store_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ratiorules/internal/core"
	"ratiorules/internal/matrix"
	"ratiorules/internal/obs"
	"ratiorules/internal/obs/trace"
	"ratiorules/internal/replica"
	"ratiorules/internal/store"
)

// goldenDir holds a fixture written by a format-1 store (see
// writeGoldenFixture): a store directory, one event frame, one snapshot
// frame, the snapshot.json that Snapshot() writes after opening the
// directory, and the reads a store must serve from it.
const goldenDir = "testdata/format1"

// writeGolden regenerates the fixture instead of checking it. The
// fixture pins the formats, so write it only with a store whose format
// is trusted, never with the code under test:
//
//	go test ./internal/store -run TestGoldenFormat1 -write-golden "$PWD/internal/store/testdata/format1"
var writeGolden = flag.String("write-golden", "", "write the format-1 fixture into this directory instead of checking it")

type goldenExpect struct {
	Names    []string          `json:"names"`
	Versions map[string][]int  `json:"versions"`
	Heads    map[string]int    `json:"heads"`
	Raw      map[string]string `json:"raw"`
	NextPut  map[string]int    `json:"next_put"`
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(goldenDir, name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// openGoldenCopy opens a private copy of the fixture store directory.
func openGoldenCopy(t *testing.T) (*store.Store, string) {
	t.Helper()
	dir := t.TempDir()
	for _, f := range []string{"snapshot.json", "wal.log"} {
		if err := os.WriteFile(filepath.Join(dir, f), readGolden(t, filepath.Join("store", f)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := store.Open(dir, store.WithSnapshotEvery(0), store.WithObs(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, dir
}

// goldenRules mines a 2-attribute model whose b:a ratio is slope.
func goldenRules(t *testing.T, slope float64) *core.Rules {
	t.Helper()
	rows := make([][]float64, 20)
	for i := range rows {
		v := 1 + float64(i)*0.25
		rows[i] = []float64{v, slope * v}
	}
	x, err := matrix.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	miner, err := core.NewMiner(core.WithAttrNames([]string{"a", "b"}))
	if err != nil {
		t.Fatal(err)
	}
	r, err := miner.MineMatrix(x)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// assertServes checks names, retained versions and head bytes against
// the fixture's expectations.
func assertServes(t *testing.T, label string, s *store.Store, want goldenExpect) {
	t.Helper()
	if got := s.Names(); !reflect.DeepEqual(got, want.Names) {
		t.Fatalf("%s: names %v, want %v", label, got, want.Names)
	}
	for _, name := range want.Names {
		infos, _ := s.Versions(name)
		var vs []int
		for _, vi := range infos {
			vs = append(vs, vi.Version)
		}
		if !reflect.DeepEqual(vs, want.Versions[name]) {
			t.Errorf("%s: %s versions %v, want %v", label, name, vs, want.Versions[name])
		}
		raw, v, ok := s.GetRaw(name)
		if !ok || v != want.Heads[name] || string(raw) != want.Raw[name] {
			t.Errorf("%s: %s head v%d %q, want v%d %q", label, name, v, raw, want.Heads[name], want.Raw[name])
		}
	}
}

// TestGoldenFormat1 pins the on-disk and on-wire formats: a store
// directory, event frame and snapshot frame written by a format-1
// store must open, decode and apply to the same reads, and re-encoding
// the recovered state must reproduce the fixture bytes exactly.
func TestGoldenFormat1(t *testing.T) {
	if *writeGolden != "" {
		writeGoldenFixture(t, *writeGolden)
		t.Skipf("wrote fixture to %s", *writeGolden)
	}
	var want goldenExpect
	if err := json.Unmarshal(readGolden(t, "expect.json"), &want); err != nil {
		t.Fatal(err)
	}

	t.Run("store", func(t *testing.T) {
		s, dir := openGoldenCopy(t)
		assertServes(t, "open", s, want)
		if err := s.Snapshot(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, "snapshot.json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, readGolden(t, "resnapshot.json")) {
			t.Fatalf("Snapshot() wrote\n%s\nwant\n%s", got, readGolden(t, "resnapshot.json"))
		}
		if fi, err := os.Stat(filepath.Join(dir, "wal.log")); err != nil || fi.Size() != 0 {
			t.Fatalf("WAL after snapshot: %v, %v", fi, err)
		}
		for name, wantV := range want.NextPut {
			if v, err := s.Put(name, goldenRules(t, 7)); err != nil || v != wantV {
				t.Errorf("next Put(%s) = v%d, %v; want v%d", name, v, err, wantV)
			}
		}
	})

	t.Run("snapshot frame", func(t *testing.T) {
		raw := readGolden(t, "snapshot.frame")
		fr, err := replica.ReadFrame(bytes.NewReader(raw))
		if err != nil || fr.Kind != replica.KindSnapshot {
			t.Fatalf("ReadFrame: kind %v, %v", fr.Kind, err)
		}
		f := store.OpenMemory(store.WithObs(obs.NewRegistry()))
		if err := f.RestoreSnapshot(fr.Snapshot); err != nil {
			t.Fatal(err)
		}
		assertServes(t, "restore", f, want)
		src, _ := openGoldenCopy(t)
		again, err := replica.AppendSnapshot(nil, src.SnapshotDoc())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, raw) {
			t.Fatalf("re-encoded snapshot frame differs:\n%q\nwant\n%q", again, raw)
		}
	})

	t.Run("event frame", func(t *testing.T) {
		raw := readGolden(t, "event.frame")
		fr, err := replica.ReadFrame(bytes.NewReader(raw))
		if err != nil || fr.Kind != replica.KindEvent {
			t.Fatalf("ReadFrame: kind %v, %v", fr.Kind, err)
		}
		if fr.Event.Trace == "" {
			t.Fatal("fixture event lost its trace")
		}
		// Bring a follower to the seq just before the event, from the
		// fixture's own snapshot.json.
		var doc store.SnapshotDoc
		if err := json.Unmarshal(readGolden(t, "store/snapshot.json"), &doc); err != nil {
			t.Fatal(err)
		}
		if doc.Seq != fr.Event.Seq-1 {
			t.Fatalf("fixture snapshot seq %d, event seq %d", doc.Seq, fr.Event.Seq)
		}
		f := store.OpenMemory(store.WithObs(obs.NewRegistry()))
		if err := f.RestoreSnapshot(&doc); err != nil {
			t.Fatal(err)
		}
		if applied, err := f.ApplyEvent(fr.Event); !applied || err != nil {
			t.Fatalf("ApplyEvent = %v, %v", applied, err)
		}
		src, _ := openGoldenCopy(t)
		wantRaw, ok := src.GetVersionRaw(fr.Event.Name, fr.Event.Version)
		gotRaw, v, _ := f.GetRaw(fr.Event.Name)
		if !ok || v != fr.Event.Version || !bytes.Equal(gotRaw, wantRaw) {
			t.Fatalf("applied head v%d %q, want v%d %q", v, gotRaw, fr.Event.Version, wantRaw)
		}
		evs, err := f.EventsSince(doc.Seq)
		if err != nil || len(evs) != 1 {
			t.Fatalf("EventsSince = %v, %v", evs, err)
		}
		again, err := replica.AppendEvent(nil, evs[0])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, raw) {
			t.Fatalf("re-encoded event frame differs:\n%q\nwant\n%q", again, raw)
		}
	})
}

// writeGoldenFixture builds the fixture with the store under test. Its
// snapshot.json holds a traced put and a plain put; its wal.log holds a
// traced put, a rollback (journaled as a put), a put and delete of
// gamma, and a plain put. The event frame is the traced seq-3 put.
func writeGoldenFixture(t *testing.T, out string) {
	t.Helper()
	work := t.TempDir()
	s, err := store.Open(work, store.WithSnapshotEvery(0), store.WithObs(obs.NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tr := trace.New(trace.Config{})
	traced := func(name string) context.Context {
		ctx, sp := tr.StartRoot(context.Background(), name, trace.SpanContext{})
		sp.End()
		return ctx
	}
	must := func(_ any, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	write := func(name string, data []byte) {
		t.Helper()
		path := filepath.Join(out, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	readWork := func(name string) []byte {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(work, name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	must(s.PutContext(traced("put alpha"), "alpha", goldenRules(t, 2)))
	must(s.Put("beta", goldenRules(t, 3)))
	must(nil, s.Snapshot())
	must(s.PutContext(traced("put alpha v2"), "alpha", goldenRules(t, 4)))
	_, _, err = s.Rollback("alpha", 1)
	must(nil, err)
	must(s.Put("gamma", goldenRules(t, 5)))
	must(s.Delete("gamma"))
	must(s.Put("beta", goldenRules(t, 6)))
	for _, f := range []string{"snapshot.json", "wal.log"} {
		write(filepath.Join("store", f), readWork(f))
	}

	events, err := s.EventsSince(2)
	must(nil, err)
	frame, err := replica.AppendEvent(nil, events[0])
	must(nil, err)
	write("event.frame", frame)
	frame, err = replica.AppendSnapshot(nil, s.SnapshotDoc())
	must(nil, err)
	write("snapshot.frame", frame)

	exp := goldenExpect{Names: s.Names(), Versions: map[string][]int{}, Heads: map[string]int{},
		Raw: map[string]string{}, NextPut: map[string]int{}}
	for _, name := range exp.Names {
		infos, _ := s.Versions(name)
		for _, vi := range infos {
			exp.Versions[name] = append(exp.Versions[name], vi.Version)
		}
		raw, v, _ := s.GetRaw(name)
		exp.Heads[name], exp.Raw[name] = v, string(raw)
	}
	must(nil, s.Snapshot())
	write("resnapshot.json", readWork("snapshot.json"))
	for _, name := range []string{"alpha", "gamma", "delta"} {
		v, err := s.Put(name, goldenRules(t, 7))
		must(nil, err)
		exp.NextPut[name] = v
	}
	data, err := json.MarshalIndent(exp, "", "  ")
	must(nil, err)
	write("expect.json", append(data, '\n'))
}
