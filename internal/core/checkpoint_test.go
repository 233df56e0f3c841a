package core

import (
	"math/rand"
	"strings"
	"testing"

	"ratiorules/internal/matrix"
)

func TestStreamCheckpointResumeExact(t *testing.T) {
	rng := rand.New(rand.NewSource(110))
	x := randomCorrelated(rng, 200, 4)

	// Uninterrupted run.
	whole, err := NewStreamMiner(4, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := whole.Push(x.RawRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	want, err := whole.Rules()
	if err != nil {
		t.Fatal(err)
	}

	// Checkpoint at row 120, resume, continue.
	first, err := NewStreamMiner(4, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 120; i++ {
		if err := first.Push(x.RawRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	var buf strings.Builder
	if err := first.Save(&buf); err != nil {
		t.Fatal(err)
	}
	resumed, err := LoadStreamMiner(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 120; i < 200; i++ {
		if err := resumed.Push(x.RawRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := resumed.Rules()
	if err != nil {
		t.Fatal(err)
	}

	if got.TrainedRows() != want.TrainedRows() {
		t.Fatalf("TrainedRows = %d, want %d", got.TrainedRows(), want.TrainedRows())
	}
	if !matrix.EqualApproxVec(got.Means(), want.Means(), 1e-12) {
		t.Error("means differ after resume")
	}
	if !matrix.EqualApproxVec(got.Eigenvalues(), want.Eigenvalues(), 1e-9*(1+want.Eigenvalues()[0])) {
		t.Error("eigenvalues differ after resume")
	}
	for i := 0; i < want.K() && i < got.K(); i++ {
		if !matrix.EqualApproxVec(got.Rule(i), want.Rule(i), 1e-9) {
			t.Errorf("rule %d differs after resume", i)
		}
	}
}

func TestLoadStreamMinerRejectsCorrupt(t *testing.T) {
	cases := map[string]string{
		"not json":       "{",
		"wrong version":  `{"version":99,"width":2,"sums":[0,0],"cross":[[0,0],[0]]}`,
		"bad width":      `{"version":1,"width":0,"sums":[],"cross":[]}`,
		"sums mismatch":  `{"version":1,"width":2,"sums":[0],"cross":[[0,0],[0]]}`,
		"cross mismatch": `{"version":1,"width":2,"sums":[0,0],"cross":[[0],[0]]}`,
		"negative count": `{"version":1,"width":2,"count":-1,"sums":[0,0],"cross":[[0,0],[0]]}`,
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := LoadStreamMiner(strings.NewReader(in)); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

func TestLoadStreamMinerBadOptions(t *testing.T) {
	sm, err := NewStreamMiner(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sm.Push([]float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := sm.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadStreamMiner(strings.NewReader(buf.String()), WithEnergy(-1)); err == nil {
		t.Error("invalid option at load must fail")
	}
	if _, err := LoadStreamMiner(strings.NewReader(buf.String()), WithAttrNames([]string{"a", "b", "c"})); err == nil {
		t.Error("attr width mismatch at load must fail")
	}
}

// Clone is the in-memory twin of a Save/LoadStreamMiner round trip: the
// copy's checkpoint is byte-identical to the original's, and rows pushed
// into either afterwards never reach the other.
func TestStreamMinerCloneIsDeep(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	x := randomCorrelated(rng, 60, 5)
	orig, err := NewStreamMiner(5, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := orig.Push(x.RawRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	clone := orig.Clone()
	checkpoint := func(s *StreamMiner) string {
		var buf strings.Builder
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	at40 := checkpoint(orig)
	if got := checkpoint(clone); got != at40 {
		t.Fatalf("clone checkpoint differs:\n%s\nvs\n%s", got, at40)
	}
	for i := 40; i < 60; i++ {
		if err := orig.Push(x.RawRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := checkpoint(clone); got != at40 {
		t.Fatal("pushes into the original reached the clone")
	}
	at60 := checkpoint(orig)
	if err := clone.Push(x.RawRow(0)); err != nil {
		t.Fatal(err)
	}
	if got := checkpoint(orig); got != at60 {
		t.Fatal("pushes into the clone reached the original")
	}
}
