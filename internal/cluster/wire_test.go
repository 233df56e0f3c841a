package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

func TestChunkRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct {
		width, rows int
		decay       float64
	}{
		{1, 1, 0}, {3, 2, 0}, {5, 257, 0.25}, {32, 64, 0}, {7, 0, 0.5},
	}
	var stream bytes.Buffer
	want := make([]Chunk, 0, len(cases))
	for i, tc := range cases {
		payload := make([]float64, tc.rows*tc.width)
		for j := range payload {
			payload[j] = rng.NormFloat64() * 1e3
		}
		frame := AppendChunk(nil, uint64(i+1), tc.width, tc.decay, payload)
		stream.Write(frame)
		want = append(want, Chunk{Seq: uint64(i + 1), Width: tc.width, Decay: tc.decay, Rows: payload})
	}
	r := &stream
	for i, w := range want {
		got, err := ReadChunk(r)
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		if got.Seq != w.Seq || got.Width != w.Width || got.Decay != w.Decay {
			t.Fatalf("chunk %d header: got %+v want %+v", i, got, w)
		}
		if len(got.Rows) != len(w.Rows) {
			t.Fatalf("chunk %d: %d values, want %d", i, len(got.Rows), len(w.Rows))
		}
		for j := range w.Rows {
			if got.Rows[j] != w.Rows[j] {
				t.Fatalf("chunk %d value %d: got %v want %v", i, j, got.Rows[j], w.Rows[j])
			}
		}
	}
	if _, err := ReadChunk(r); err != io.EOF {
		t.Fatalf("end of stream: got %v, want io.EOF", err)
	}
}

func TestChunkCorruption(t *testing.T) {
	payload := []float64{1, 2, 3, 4, 5, 6}
	frame := AppendChunk(nil, 42, 3, 0.5, payload)

	// Flipping any single byte must fail the read: magic, dims, or CRC.
	for i := range frame {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x40
		if _, err := ReadChunk(bytes.NewReader(bad)); err == nil {
			t.Fatalf("byte %d flipped: read succeeded", i)
		}
	}
	// Every truncation point must fail without passing io.EOF through
	// (the frame started, so a clean EOF is a lie).
	for n := 1; n < len(frame); n++ {
		_, err := ReadChunk(bytes.NewReader(frame[:n]))
		if err == nil || err == io.EOF {
			t.Fatalf("truncated at %d: got %v", n, err)
		}
	}
	// Absurd dims are rejected before allocating the payload.
	huge := append([]byte(nil), frame...)
	huge[8] = 0xff
	huge[9] = 0xff
	huge[10] = 0xff
	huge[11] = 0x7f
	if _, err := ReadChunk(bytes.NewReader(huge)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("absurd row count: got %v, want ErrBadFrame", err)
	}
}

func TestAckRoundTrip(t *testing.T) {
	var stream bytes.Buffer
	want := []Ack{
		{Seq: 1, Rows: 512, Code: AckOK, ShardRows: 512},
		{Seq: 2, Rows: 9, Code: AckWidthConflict, ShardRows: 512},
		{Seq: math.MaxUint64, Rows: 0, Code: AckBadChunk, ShardRows: math.MaxUint64},
	}
	for _, a := range want {
		stream.Write(AppendAck(nil, a))
	}
	for i, w := range want {
		got, err := ReadAck(&stream)
		if err != nil {
			t.Fatalf("ack %d: %v", i, err)
		}
		if got != w {
			t.Fatalf("ack %d: got %+v want %+v", i, got, w)
		}
	}
	if _, err := ReadAck(&stream); err != io.EOF {
		t.Fatalf("end of stream: got %v, want io.EOF", err)
	}
}

func TestAckCorruption(t *testing.T) {
	frame := AppendAck(nil, Ack{Seq: 3, Rows: 100, Code: AckOK, ShardRows: 300})
	for i := range frame {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x01
		if _, err := ReadAck(bytes.NewReader(bad)); err == nil {
			t.Fatalf("byte %d flipped: read succeeded", i)
		}
	}
	for n := 1; n < len(frame); n++ {
		_, err := ReadAck(bytes.NewReader(frame[:n]))
		if err == nil || err == io.EOF {
			t.Fatalf("truncated at %d: got %v", n, err)
		}
	}
}

func TestChunkTraceRoundTrip(t *testing.T) {
	const tp = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	payload := []float64{1, 2, 3, 4, 5, 6}
	var stream bytes.Buffer
	stream.Write(AppendChunkTrace(nil, 7, 3, 0.5, tp, payload))
	stream.Write(AppendChunkTrace(nil, 8, 3, 0.5, "", payload))

	got, err := ReadChunk(&stream)
	if err != nil {
		t.Fatalf("v2 chunk: %v", err)
	}
	if got.Trace != tp || got.Seq != 7 || got.Width != 3 || got.Decay != 0.5 {
		t.Fatalf("v2 chunk: %+v, want trace %q seq 7", got, tp)
	}
	for j, v := range payload {
		if got.Rows[j] != v {
			t.Fatalf("v2 chunk value %d: got %v want %v", j, got.Rows[j], v)
		}
	}
	// A traced and an untraced frame interleave on one stream.
	got, err = ReadChunk(&stream)
	if err != nil {
		t.Fatalf("v1 chunk after v2: %v", err)
	}
	if got.Trace != "" || got.Seq != 8 {
		t.Fatalf("v1 chunk after v2: %+v, want empty trace seq 8", got)
	}
}

// TestChunkTraceBackCompat pins the wire contract: an empty traceparent
// must emit a frame byte-identical to the v1 encoder, so untraced
// coordinators keep feeding old workers.
func TestChunkTraceBackCompat(t *testing.T) {
	payload := []float64{3, 1, 4, 1, 5, 9}
	v1 := AppendChunk(nil, 11, 2, 0.25, payload)
	v2 := AppendChunkTrace(nil, 11, 2, 0.25, "", payload)
	if !bytes.Equal(v1, v2) {
		t.Fatalf("untraced AppendChunkTrace differs from AppendChunk:\n v1 %x\n v2 %x", v1, v2)
	}
}

// TestChunkTraceOversized: a traceparent past MaxChunkTrace is dropped
// (falls back to v1 framing) rather than producing an undecodable
// frame.
func TestChunkTraceOversized(t *testing.T) {
	big := string(bytes.Repeat([]byte{'a'}, MaxChunkTrace+1))
	payload := []float64{1, 2}
	frame := AppendChunkTrace(nil, 1, 2, 0, big, payload)
	got, err := ReadChunk(bytes.NewReader(frame))
	if err != nil {
		t.Fatalf("oversized-trace frame unreadable: %v", err)
	}
	if got.Trace != "" {
		t.Fatalf("oversized trace survived: %q", got.Trace)
	}
}

func TestChunkTraceCorruption(t *testing.T) {
	const tp = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	frame := AppendChunkTrace(nil, 9, 2, 0, tp, []float64{1, 2, 3, 4})
	// Every single-byte flip must fail: magic, dims, the trace length,
	// the trace bytes, payload, or CRC.
	for i := range frame {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x01
		if _, err := ReadChunk(bytes.NewReader(bad)); err == nil {
			t.Fatalf("byte %d flipped: read succeeded", i)
		}
	}
	// Truncation anywhere must surface as a framing error, not io.EOF.
	for n := 1; n < len(frame); n++ {
		_, err := ReadChunk(bytes.NewReader(frame[:n]))
		if err == nil || err == io.EOF {
			t.Fatalf("truncated at %d: got %v", n, err)
		}
	}
	if _, err := ReadChunk(bytes.NewReader(frame)); err != nil {
		t.Fatalf("pristine frame: %v", err)
	}
}

// TestChunkCellCap: rows and width each within their caps can still
// multiply to gigabytes; the decoder rejects such a header before it
// allocates the payload, and accepts a chunk of exactly maxChunkCells.
func TestChunkCellCap(t *testing.T) {
	at := make([]float64, maxChunkCells)
	frame := AppendChunk(nil, 1, MaxWireWidth, 0, at)
	if got, err := ReadChunk(bytes.NewReader(frame)); err != nil || len(got.Rows) != maxChunkCells {
		t.Fatalf("chunk at the cell cap: %d cells, %v", len(got.Rows), err)
	}

	binary.LittleEndian.PutUint32(frame[8:], maxChunkCells/MaxWireWidth+1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadChunk(bytes.NewReader(frame))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("chunk over the cell cap: got %v, want ErrBadFrame", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("rejecting an over-cap header allocated %d bytes", n)
	}
}
