package server

// The NDJSON row codec shared by live ingest (single-node and
// clustered) and the batch endpoints. Decoding scans the JSON number
// grammar by hand and hands each literal to strconv, the same call
// encoding/json makes, so accepted values are bit-identical. It covers
// the three row shapes clients actually send — a bare [...] array,
// {"row":[...]} and {"record":[...],"holes":[...]} — and anything else
// (other keys, duplicate keys, nulls, escapes, malformed input) falls
// back to encoding/json, so every line is accepted or rejected exactly
// as before, with the same error text. Encoding appends result lines to
// a byte slice, byte-identical to what json.Encoder writes for the same
// values; a NaN or Inf reports failure so the caller can emit a row
// error instead.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"ratiorules/internal/core"
)

// rowDecoder holds one request's decode scratch. Not safe for
// concurrent use: each request decodes on one goroutine.
type rowDecoder struct {
	floats []float64
	ints   []int
}

// ingestRow parses one ingest line: a bare JSON array of numbers or an
// object with a "row" field. The fast path's result aliases the
// decoder's scratch and is valid until the next call.
func (d *rowDecoder) ingestRow(raw []byte) ([]float64, error) {
	trimmed := bytes.TrimSpace(raw)
	if d.floats == nil {
		d.floats = make([]float64, 0, 16) // [] decodes non-nil, as in encoding/json
	}
	s := rowScan{b: trimmed}
	if len(trimmed) > 0 && trimmed[0] == '{' {
		s.i = 1
		if s.key(`"row"`) {
			if row, ok := s.floats(d.floats[:0]); ok && s.byte('}') && s.end() {
				d.floats = row
				return row, nil
			}
		}
	} else if row, ok := s.floats(d.floats[:0]); ok && s.end() {
		d.floats = row
		return row, nil
	}
	return decodeIngestRow(trimmed)
}

// decodeIngestRow is the encoding/json decoder of one ingest line; the
// fallback for lines the fast path does not cover.
func decodeIngestRow(trimmed []byte) ([]float64, error) {
	if len(trimmed) > 0 && trimmed[0] == '{' {
		var obj struct {
			Row []float64 `json:"row"`
		}
		if err := json.Unmarshal(trimmed, &obj); err != nil {
			return nil, fmt.Errorf("%w: %v", errBadRow, err)
		}
		if obj.Row == nil {
			return nil, fmt.Errorf("%w: missing \"row\"", errBadRow)
		}
		return obj.Row, nil
	}
	var row []float64
	if err := json.Unmarshal(trimmed, &row); err != nil {
		return nil, fmt.Errorf("%w: %v", errBadRow, err)
	}
	return row, nil
}

// fillRow parses one batch/fill line into freshly allocated slices
// (the row outlives the call: it queues for the worker pool).
func (d *rowDecoder) fillRow(raw []byte) (batchFillRow, error) {
	if row, ok := d.recordRow(raw); ok {
		return row, nil
	}
	var row batchFillRow
	if err := json.Unmarshal(raw, &row); err != nil {
		return row, fmt.Errorf("%w: %v", errBadRow, err)
	}
	return row, nil
}

// outlierRow parses one batch/outliers line. encoding/json ignores the
// "holes" member there, so the fast path may parse and drop it.
func (d *rowDecoder) outlierRow(raw []byte) (batchOutlierRow, error) {
	if row, ok := d.recordRow(raw); ok {
		return batchOutlierRow{Record: row.Record}, nil
	}
	var row batchOutlierRow
	if err := json.Unmarshal(raw, &row); err != nil {
		return row, fmt.Errorf("%w: %v", errBadRow, err)
	}
	return row, nil
}

// recordRow is the fast path for {"record":[...],"holes":[...]}: both
// members optional, in either order, each at most once. ok=false means
// the line needs encoding/json.
func (d *rowDecoder) recordRow(raw []byte) (row batchFillRow, ok bool) {
	s := rowScan{b: raw}
	if !s.byte('{') {
		return row, false
	}
	if s.byte('}') {
		return row, s.end()
	}
	for {
		switch {
		case row.Record == nil && s.key(`"record"`):
			if d.floats, ok = s.floats(d.floats[:0]); !ok {
				return row, false
			}
			row.Record = append(make([]float64, 0, len(d.floats)), d.floats...)
		case row.Holes == nil && s.key(`"holes"`):
			if d.ints, ok = s.ints(d.ints[:0]); !ok {
				return row, false
			}
			row.Holes = append(make([]int, 0, len(d.ints)), d.ints...)
		default:
			return row, false
		}
		if s.byte('}') {
			return row, s.end()
		}
		if !s.byte(',') {
			return row, false
		}
	}
}

// rowScan is a cursor over one JSON value. Every method skips leading
// JSON whitespace and reports false, leaving the cursor unspecified, on
// anything outside the grammar it handles.
type rowScan struct {
	b []byte
	i int
}

func (s *rowScan) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// byte consumes c.
func (s *rowScan) byte(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// end reports whether only whitespace remains.
func (s *rowScan) end() bool {
	s.ws()
	return s.i == len(s.b)
}

// key consumes the quoted member name k (exact bytes, so escaped or
// differently cased names fall back) and the colon after it. On a
// mismatch the cursor stays put, so the caller can try another name.
func (s *rowScan) key(k string) bool {
	s.ws()
	start := s.i
	if len(s.b)-s.i < len(k) || string(s.b[s.i:s.i+len(k)]) != k {
		return false
	}
	s.i += len(k)
	if !s.byte(':') {
		s.i = start
		return false
	}
	return true
}

// number consumes one JSON number literal:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
// integral reports that it has no fraction or exponent.
func (s *rowScan) number() (lit []byte, integral, ok bool) {
	s.ws()
	b, i := s.b, s.i
	start := i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return nil, false, false
	}
	integral = true
	if i < len(b) && b[i] == '.' {
		j := skipDigits(b, i+1)
		if j == i+1 {
			return nil, false, false
		}
		i, integral = j, false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := skipDigits(b, i)
		if j == i {
			return nil, false, false
		}
		i, integral = j, false
	}
	s.i = i
	return b[start:i], integral, true
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

// floats consumes a JSON array of numbers, appending them to dst.
// Values out of float64 range fail (encoding/json rejects them). It and
// ints stay separate loops: sharing one generic loop with a conversion
// callback decoded an 8-column row about 20% slower on x86-64.
func (s *rowScan) floats(dst []float64) ([]float64, bool) {
	if !s.byte('[') {
		return dst, false
	}
	if s.byte(']') {
		return dst, true
	}
	for {
		lit, _, ok := s.number()
		if !ok {
			return dst, false
		}
		f, err := strconv.ParseFloat(string(lit), 64)
		if err != nil {
			return dst, false
		}
		dst = append(dst, f)
		if s.byte(']') {
			return dst, true
		}
		if !s.byte(',') {
			return dst, false
		}
	}
}

// ints consumes a JSON array of integers, appending them to dst. A
// fraction, exponent or overflow fails (encoding/json rejects them for
// an int).
func (s *rowScan) ints(dst []int) ([]int, bool) {
	if !s.byte('[') {
		return dst, false
	}
	if s.byte(']') {
		return dst, true
	}
	for {
		lit, integral, ok := s.number()
		if !ok || !integral {
			return dst, false
		}
		n, err := strconv.Atoi(string(lit))
		if err != nil {
			return dst, false
		}
		dst = append(dst, n)
		if s.byte(']') {
			return dst, true
		}
		if !s.byte(',') {
			return dst, false
		}
	}
}

// appendFloat appends f exactly as encoding/json formats a float64:
// shortest round-trip digits, exponent form outside [1e-6, 1e21), no
// zero padding in the exponent. ok=false for NaN and ±Inf, which JSON
// cannot represent.
func appendFloat(b []byte, f float64) (_ []byte, ok bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// appendFloats appends a JSON array of floats.
func appendFloats(b []byte, fs []float64) (_ []byte, ok bool) {
	b = append(b, '[')
	for i, f := range fs {
		if i > 0 {
			b = append(b, ',')
		}
		if b, ok = appendFloat(b, f); !ok {
			return b, false
		}
	}
	return append(b, ']'), true
}

// appendIndex opens a result line: {"index":i,
func appendIndex(b []byte, index int) []byte {
	b = append(b, `{"index":`...)
	b = strconv.AppendInt(b, int64(index), 10)
	return append(b, ',')
}

// appendAck appends an ingestAck line.
func appendAck(b []byte, index, count int) []byte {
	b = appendIndex(b, index)
	b = append(b, `"count":`...)
	b = strconv.AppendInt(b, int64(count), 10)
	return append(b, "}\n"...)
}

// appendFillLine appends a batchFillLine. On ok=false the caller must
// discard the returned slice.
func appendFillLine(b []byte, index int, filled []float64) (_ []byte, ok bool) {
	b = append(appendIndex(b, index), `"filled":`...)
	if filled == nil {
		b = append(b, "null"...)
	} else if b, ok = appendFloats(b, filled); !ok {
		return b, false
	}
	return append(b, "}\n"...), true
}

// appendForecastLine appends a batchForecastLine.
func appendForecastLine(b []byte, index int, v float64) (_ []byte, ok bool) {
	b = append(appendIndex(b, index), `"value":`...)
	if b, ok = appendFloat(b, v); !ok {
		return b, false
	}
	return append(b, "}\n"...), true
}

// appendOutliersLine appends a batchOutliersLine. Nil cells encode as
// [], never null: the line promises a list.
func appendOutliersLine(b []byte, index int, cells []core.CellOutlier) (_ []byte, ok bool) {
	b = append(appendIndex(b, index), `"outliers":[`...)
	for i, c := range cells {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"Row":`...)
		b = strconv.AppendInt(b, int64(c.Row), 10)
		b = append(b, `,"Col":`...)
		b = strconv.AppendInt(b, int64(c.Col), 10)
		b = append(b, `,"Actual":`...)
		if b, ok = appendFloat(b, c.Actual); !ok {
			return b, false
		}
		b = append(b, `,"Predicted":`...)
		if b, ok = appendFloat(b, c.Predicted); !ok {
			return b, false
		}
		b = append(b, `,"Score":`...)
		if b, ok = appendFloat(b, c.Score); !ok {
			return b, false
		}
		b = append(b, '}')
	}
	return append(b, "]}\n"...), true
}
