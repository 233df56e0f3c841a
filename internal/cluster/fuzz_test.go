package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// checkWireErr asserts a decoder's error contract: io.EOF only for an
// input that ends before a frame starts, everything else ErrBadFrame.
func checkWireErr(t *testing.T, what string, data []byte, err error) {
	t.Helper()
	switch {
	case err == io.EOF:
		if len(data) != 0 {
			t.Fatalf("%s: io.EOF on %d bytes of input", what, len(data))
		}
	case !errors.Is(err, ErrBadFrame):
		t.Fatalf("%s: error %v does not wrap ErrBadFrame", what, err)
	}
}

// FuzzClusterWire throws arbitrary bytes at the worker-hop decoders,
// ReadChunk and ReadAck. Neither may panic or return an error outside
// its contract, and a frame either accepts must re-encode to exactly
// the bytes it consumed: each value has one encoding, so anything else
// means the decoder accepted bytes it does not check.
func FuzzClusterWire(f *testing.F) {
	const tp = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	chunk := AppendChunk(nil, 1, 3, 0.5, []float64{1, 2, 3, 4, 5, 6})
	ack := AppendAck(nil, Ack{Seq: 3, Rows: 100, Code: AckOK, ShardRows: 300})
	f.Add([]byte{})
	f.Add(chunk)
	f.Add(AppendChunkTrace(nil, 2, 2, 0, tp, []float64{1, 2}))
	f.Add(AppendChunk(nil, 4, 7, 0, nil)) // zero rows
	f.Add(chunk[:len(chunk)-3])           // torn
	f.Add(ack)
	f.Add(ack[:ackFrameLen-1])
	f.Add(append(append([]byte(nil), chunk...), ack...))
	huge := bytes.Clone(chunk) // dims within the row and width caps, 2 GiB of cells
	binary.LittleEndian.PutUint32(huge[4:], MaxWireWidth)
	binary.LittleEndian.PutUint32(huge[8:], MaxChunkRows)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		c, err := ReadChunk(r)
		if err != nil {
			checkWireErr(t, "ReadChunk", data, err)
		} else {
			frame := data[:len(data)-r.Len()]
			again := AppendChunkTrace(nil, c.Seq, c.Width, c.Decay, c.Trace, c.Rows)
			if !bytes.Equal(again, frame) {
				t.Fatalf("chunk re-encodes differently:\n read %x\n again %x", frame, again)
			}
		}

		r = bytes.NewReader(data)
		a, err := ReadAck(r)
		if err != nil {
			checkWireErr(t, "ReadAck", data, err)
		} else if again := AppendAck(nil, a); !bytes.Equal(again, data[:ackFrameLen]) {
			t.Fatalf("ack re-encodes differently:\n read %x\n again %x", data[:ackFrameLen], again)
		}
	})
}
