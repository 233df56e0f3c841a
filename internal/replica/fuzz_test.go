package replica

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"ratiorules/internal/store"
)

// appendFrameOf re-encodes a decoded frame with the encoder of its kind.
func appendFrameOf(fr Frame) ([]byte, error) {
	switch fr.Kind {
	case KindEvent:
		return AppendEvent(nil, fr.Event)
	case KindSnapshot:
		return AppendSnapshot(nil, fr.Snapshot)
	default:
		return AppendHeartbeat(nil, fr.Seq), nil
	}
}

// FuzzReplicaFrame throws arbitrary bytes at the follower's frame
// decoder. It must not panic; its errors are io.EOF for an input that
// ends before a frame starts and ErrBadFrame otherwise. An accepted
// heartbeat re-encodes to exactly the bytes read. Event and snapshot
// payloads are JSON, which spells one value many ways, so for them the
// re-encoding must be a fixed point: decoding it and encoding again
// gives the same bytes.
func FuzzReplicaFrame(f *testing.F) {
	leader := store.OpenMemory()
	if _, err := leader.Put("m", testRules(f, 2)); err != nil {
		f.Fatal(err)
	}
	events, err := leader.EventsSince(0)
	if err != nil {
		f.Fatal(err)
	}
	event, err := AppendEvent(nil, events[0])
	if err != nil {
		f.Fatal(err)
	}
	snapshot, err := AppendSnapshot(nil, leader.SnapshotDoc())
	if err != nil {
		f.Fatal(err)
	}
	heartbeat := AppendHeartbeat(nil, 42)
	f.Add([]byte{})
	f.Add(heartbeat)
	f.Add(event)
	f.Add(snapshot)
	f.Add(event[:len(event)-2]) // torn
	f.Add(append(bytes.Clone(heartbeat), event...))
	absurd := bytes.Clone(heartbeat)
	absurd[4], absurd[5], absurd[6], absurd[7] = 0xff, 0xff, 0xff, 0xff
	f.Add(absurd)

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		fr, err := ReadFrame(r)
		switch {
		case err == io.EOF:
			if len(data) != 0 {
				t.Fatalf("io.EOF on %d bytes of input", len(data))
			}
			return
		case err != nil:
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("error %v does not wrap ErrBadFrame", err)
			}
			return
		}
		frame := data[:len(data)-r.Len()]
		again, err := appendFrameOf(fr)
		if err != nil {
			t.Fatalf("re-encoding accepted frame: %v", err)
		}
		if fr.Kind == KindHeartbeat {
			if !bytes.Equal(again, frame) {
				t.Fatalf("heartbeat re-encodes differently:\n read %x\n again %x", frame, again)
			}
			return
		}
		fr2, err := ReadFrame(bytes.NewReader(again))
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		twice, err := appendFrameOf(fr2)
		if err != nil || fr2.Kind != fr.Kind || !bytes.Equal(twice, again) {
			t.Fatalf("re-encoding is not a fixed point (kind %d -> %d, err %v):\n once %x\n twice %x",
				fr.Kind, fr2.Kind, err, again, twice)
		}
	})
}
