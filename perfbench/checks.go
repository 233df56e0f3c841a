package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"ratiorules/internal/core"
)

// relTol bounds the relative difference between a served value and the
// in-process reference computed from the same float64 inputs.
const relTol = 1e-9

func near(a, b float64) bool {
	return math.Abs(a-b) <= relTol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func nearSlices(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !near(a[i], b[i]) {
			return false
		}
	}
	return true
}

// checkIngested compares the served model after an ingest run with a
// decay-0 core.StreamMiner fed the same rows in the same order: the row
// count must match exactly, the means and eigenvalues within relTol.
func checkIngested(served *core.Rules, in *inputs, rows int) error {
	if served.TrainedRows() != rows {
		return fmt.Errorf("served model trained on %d rows, %d were sent", served.TrainedRows(), rows)
	}
	sm, err := core.NewStreamMiner(len(in.pool[0]), 0)
	if err != nil {
		return err
	}
	for i := 0; i < rows; i++ {
		if err := sm.Push(in.pool[i%len(in.pool)]); err != nil {
			return err
		}
	}
	ref, err := sm.Rules()
	if err != nil {
		return err
	}
	if !nearSlices(served.Means(), ref.Means()) {
		return fmt.Errorf("served means differ from the in-process stream miner")
	}
	if !nearSlices(served.Eigenvalues(), ref.Eigenvalues()) {
		return fmt.Errorf("served eigenvalues %v differ from in-process %v", served.Eigenvalues(), ref.Eigenvalues())
	}
	return nil
}

// batchChecker verifies every /batch/fill answer line against
// core.Rules.FillRow on the served model.
type batchChecker struct {
	in       *inputs
	expected [][]float64 // FillRow result per pool row
	encoded  [][]byte    // the same as the server would encode it
	bad      int
	first    string // the first line that differed
}

func newBatchChecker(rules *core.Rules, in *inputs) (*batchChecker, error) {
	c := &batchChecker{in: in}
	for i, row := range in.pool {
		holes := in.patterns[i%len(in.patterns)]
		want, err := rules.FillRow(withHoles(row, holes), holes)
		if err != nil {
			return nil, err
		}
		enc, err := json.Marshal(want)
		if err != nil {
			return nil, err
		}
		c.expected = append(c.expected, want)
		c.encoded = append(c.encoded, append(enc, '}'))
	}
	return c, nil
}

// line checks answer line i: the encoded form is compared byte for byte
// first, and decoded within relTol only when the bytes differ.
func (c *batchChecker) line(i int, line []byte) {
	p := i % len(c.in.pool)
	_, filled, ok := bytes.Cut(line, []byte(`"filled":`))
	if ok && bytes.Equal(filled, c.encoded[p]) {
		return
	}
	var got struct {
		Index  int       `json:"index"`
		Filled []float64 `json:"filled"`
	}
	if json.Unmarshal(line, &got) != nil || got.Index != i || !nearSlices(got.Filled, c.expected[p]) {
		c.bad++
		if c.bad == 1 {
			c.first = fmt.Sprintf("line %d = %.200s, want filled %v", i, line, c.expected[p])
		}
	}
}

// checkPinned recomputes every pinned fill with FillRow on the rules
// the reader fetched for that version.
func checkPinned(rr *readResult, in *inputs) error {
	for _, pf := range rr.pinned {
		rules, ok := rr.versions[pf.version]
		if !ok {
			return fmt.Errorf("pinned fill on version %d, which no GET returned", pf.version)
		}
		holes := in.patterns[pf.row%len(in.patterns)]
		want, err := rules.FillRow(withHoles(in.pool[pf.row], holes), holes)
		if err != nil {
			return err
		}
		if !nearSlices(pf.filled, want) {
			return fmt.Errorf("fill of row %d at version %d = %v, FillRow gives %v", pf.row, pf.version, pf.filled, want)
		}
	}
	if len(rr.pinned) == 0 {
		return fmt.Errorf("no pinned fills were checked")
	}
	return nil
}
