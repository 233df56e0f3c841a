package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	"ratiorules/internal/core"
)

// rowCodecSeeds are the lines FuzzRowCodec starts from: every number
// form at the edge of the JSON grammar, in each row shape.
var rowCodecSeeds = []string{
	`[1.5, 3.0]`,
	`[-0]`, `[1e400]`, `[-1e400]`, `[1e-400]`, `[1E+2]`, `[01]`, `[.5]`, `[NaN]`, `[0x10]`, `[1_0]`,
	`[1.]`, `[1e]`, `[-]`, `[+1]`, `[Infinity]`, `[4.9e-324]`, `[1.7976931348623157e308]`,
	`[ 1 ,	2 ,` + "\r\n" + ` 3 ]`, `[1,2]x`, `[1,2] [3]`, `[1,2,]`, `[]`, `[ ]`, `null`, `[null]`, `["1"]`, `[true]`,
	`{"row":[1,2]}`, `{ "row" : [ 1 , 2 ] }`, `{"row":null}`, `{"row":[]}`, `{"row":[1],"row":[2]}`,
	`{"ROW":[1]}`, `{"r\u006fw":[1]}`, `{"row":[1],"x":2}`, `{}`, `{"row":[1]}}`, `{"row":"1"}`,
	`{"record":[3,0],"holes":[1]}`, `{"holes":[1],"record":[3,0]}`, `{"record":[3,0]}`, `{"holes":[1]}`,
	`{"record":[3,0],"holes":[1.0]}`, `{"record":[3,0],"holes":[1e0]}`, `{"record":[3,0],"holes":[-0]}`,
	`{"record":[3,0],"holes":[9223372036854775808]}`, `{"record":[3,0],"holes":[-9223372036854775808]}`,
	`{"record":[1],"record":[2]}`, `{"record":[1],"holes":[0],"holes":[1]}`, `{"record":null,"holes":[1]}`,
	`{"record":[1],"extra":true}`, `{"Record":[1]}`, `{"record":[1],}`, `{"record":[1] "holes":[0]}`,
	`{"record""holes":[]}`, `{"row""row":[1]}`,
	"\u00a0[1]\u00a0", "\v[1]", " [2] ", "",
}

// FuzzRowCodec holds the codec to encoding/json. Decoding: every line
// is accepted or rejected by both, with the same error text, and an
// accepted row is bit-identical. Encoding: every appended line is
// byte-identical to json.Encoder's, and a value json.Encoder refuses
// (NaN, ±Inf) makes the appender report failure.
func FuzzRowCodec(f *testing.F) {
	for _, s := range rowCodecSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var dec rowDecoder
		for range 2 { // the second pass reuses the decoder's scratch
			got, gotErr := dec.ingestRow(line)
			want, wantErr := decodeIngestRow(bytes.TrimSpace(line))
			sameResult(t, "ingest", line, got, want, gotErr, wantErr)
		}

		fill, fillErr := dec.fillRow(line)
		var wantFill batchFillRow
		wantFillErr := unmarshalRow(line, &wantFill)
		sameResult(t, "fill record", line, fill.Record, wantFill.Record, fillErr, wantFillErr)
		if fillErr == nil && !reflect.DeepEqual(fill.Holes, wantFill.Holes) {
			t.Fatalf("fill holes of %q: got %v, want %v", line, fill.Holes, wantFill.Holes)
		}

		out, outErr := dec.outlierRow(line)
		var wantOut batchOutlierRow
		wantOutErr := unmarshalRow(line, &wantOut)
		sameResult(t, "outliers", line, out.Record, wantOut.Record, outErr, wantOutErr)

		// Encoding: the line's bytes read as float64 bit patterns reach
		// NaN, ±Inf, subnormals and both zeros, beside the decoded values.
		vals := append([]float64(nil), fill.Record...)
		for b := line; len(b) >= 8 && len(vals) < 32; b = b[8:] {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(b)))
		}
		index := len(line) - 3
		sameLine(t, appendAck(nil, index, len(vals)), true, ingestAck{Index: index, Count: len(vals)})
		b, ok := appendFillLine(nil, index, vals)
		sameLine(t, b, ok, batchFillLine{Index: index, Filled: vals})
		var cells []core.CellOutlier
		for i, v := range vals {
			b, ok := appendForecastLine(nil, i, v)
			sameLine(t, b, ok, batchForecastLine{Index: i, Value: v})
			cells = append(cells, core.CellOutlier{Row: index, Col: i, Actual: v, Predicted: -v, Score: v / 3})
		}
		b, ok = appendOutliersLine(nil, index, cells)
		if cells == nil {
			cells = []core.CellOutlier{}
		}
		sameLine(t, b, ok, batchOutliersLine{Index: index, Outliers: cells})
	})
}

// unmarshalRow is the encoding/json decoding of one batch line.
func unmarshalRow(line []byte, v any) error {
	if err := json.Unmarshal(line, v); err != nil {
		return fmt.Errorf("%w: %v", errBadRow, err)
	}
	return nil
}

func sameResult(t *testing.T, what string, line []byte, got, want []float64, gotErr, wantErr error) {
	t.Helper()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s %q: error %v, encoding/json %v", what, line, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if len(got) != len(want) || (got == nil) != (want == nil) {
		t.Fatalf("%s %q: got %v, encoding/json %v", what, line, got, want)
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s %q: value %d is %v, encoding/json %v", what, line, i, got[i], want[i])
		}
	}
}

func sameLine(t *testing.T, got []byte, ok bool, v any) {
	t.Helper()
	var want bytes.Buffer
	err := json.NewEncoder(&want).Encode(v)
	if ok != (err == nil) {
		t.Fatalf("encoding %+v: appender ok=%v, json.Encoder error %v", v, ok, err)
	}
	if ok && !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("encoding %+v:\n got %q\nwant %q", v, got, want.Bytes())
	}
}

// TestRowCodecFastPathAllocs pins what the codec saves: an ingest row
// decodes into the request's scratch and an ack appends into the
// pooled buffer, neither allocating per row.
func TestRowCodecFastPathAllocs(t *testing.T) {
	var dec rowDecoder
	buf := make([]byte, 0, 1024)
	for _, line := range []string{
		`[1.25, -3, 4e-7, 123456.789, 0, 2, 3, 4]`,
		` {"row": [1.25,-3,4e-7,123456.789,0,2,3,4]} `,
	} {
		raw := []byte(line)
		allocs := testing.AllocsPerRun(100, func() {
			row, err := dec.ingestRow(raw)
			if err != nil || len(row) != 8 {
				t.Fatalf("row %v, err %v", row, err)
			}
			buf = appendAck(buf[:0], 12345, 67890)
		})
		if allocs != 0 {
			t.Errorf("%s: decode + ack allocate %v times per row, want 0", line, allocs)
		}
	}
	// Batch rows outlive the decode, so they get their own slices, but
	// the common shapes never take the encoding/json fallback.
	for _, line := range []string{`{"record":[3,0],"holes":[1]}`, `{ "holes" : [1] , "record" : [3,0] }`, `{"record":[3,0]}`} {
		if _, ok := dec.recordRow([]byte(line)); !ok {
			t.Errorf("%s: fast path declined", line)
		}
	}
}
