// Package replica ships the store's committed WAL to follower
// processes: a leader-side HTTP handler streams events from a
// client-supplied seq (falling back to a full snapshot when the
// follower is behind the retained replication log), and a Follower
// tails that stream into its own read-only store replica, reconnecting
// with backoff from the last applied seq. Because events carry the
// canonical raw model JSON and the follower journals them under the
// leader's seq, follower reads — bodies and ETags — are byte-identical
// to the leader at the same seq, and a restarted follower resumes from
// its checkpointed position with no record applied twice.
package replica

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"ratiorules/internal/store"
)

// The stream speaks CRC-framed frames rather than bare NDJSON so a
// half-written record from a dying leader can never be half-applied. A
// frame is
//
//	magic u32 | payload len u32 | payload | crc32c u32
//
// with the Castagnoli checksum covering header and payload, the same
// polynomial as the cluster wire. Three frame kinds:
//
//	"RRE1"  event      payload = store.Event JSON
//	"RRS1"  snapshot   payload = store.SnapshotDoc JSON
//	"RRH1"  heartbeat  payload = 8-byte LE leader head seq
//
// Heartbeats flow while the stream is idle so the follower can bound
// its staleness (and detect a dead leader) without any event traffic.
const (
	eventMagic     = uint32('R')<<24 | uint32('R')<<16 | uint32('E')<<8 | uint32('1')
	snapshotMagic  = uint32('R')<<24 | uint32('R')<<16 | uint32('S')<<8 | uint32('1')
	heartbeatMagic = uint32('R')<<24 | uint32('R')<<16 | uint32('H')<<8 | uint32('1')

	frameHeaderLen = 4 + 4

	// maxFramePayload bounds a single frame; snapshots of realistic rule
	// stores are far smaller, and a corrupt length must not allocate GBs.
	maxFramePayload = 64 << 20

	// payloadStep is the most ReadFrame allocates ahead of the bytes it
	// has received: a header may claim up to maxFramePayload, and the
	// buffer grows only as the payload actually arrives.
	payloadStep = 64 << 10
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrBadFrame covers every framing violation: wrong magic, absurd
// lengths, checksum mismatches, or undecodable payloads.
var ErrBadFrame = errors.New("replica: bad wire frame")

// Kind tags a decoded frame.
type Kind int

const (
	KindEvent Kind = iota + 1
	KindSnapshot
	KindHeartbeat
)

// Frame is one decoded replication frame. Exactly one of Event /
// Snapshot / heartbeat Seq is meaningful, per Kind.
type Frame struct {
	Kind     Kind
	Event    store.Event
	Snapshot *store.SnapshotDoc
	Seq      uint64 // heartbeat: leader head seq
}

// appendFrame encodes header+payload+crc onto dst.
func appendFrame(dst []byte, magic uint32, payload []byte) []byte {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, magic)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	crc := crc32.Checksum(dst[start:], castagnoli)
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// AppendEvent encodes one committed event frame onto dst.
func AppendEvent(dst []byte, ev store.Event) ([]byte, error) {
	payload, err := json.Marshal(ev)
	if err != nil {
		return dst, fmt.Errorf("replica: encoding event seq %d: %w", ev.Seq, err)
	}
	return appendFrame(dst, eventMagic, payload), nil
}

// AppendSnapshot encodes a full snapshot frame onto dst.
func AppendSnapshot(dst []byte, doc *store.SnapshotDoc) ([]byte, error) {
	payload, err := json.Marshal(doc)
	if err != nil {
		return dst, fmt.Errorf("replica: encoding snapshot seq %d: %w", doc.Seq, err)
	}
	return appendFrame(dst, snapshotMagic, payload), nil
}

// AppendHeartbeat encodes a heartbeat carrying the leader head seq.
func AppendHeartbeat(dst []byte, seq uint64) []byte {
	var payload [8]byte
	binary.LittleEndian.PutUint64(payload[:], seq)
	return appendFrame(dst, heartbeatMagic, payload[:])
}

// readPayload reads exactly n bytes from r. The buffer starts at no
// more than payloadStep and grows only as bytes arrive, so a lying
// length costs memory in proportion to what was really received.
func readPayload(r io.Reader, n int) ([]byte, error) {
	var buf bytes.Buffer
	buf.Grow(min(n, payloadStep))
	if _, err := io.CopyN(&buf, r, int64(n)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ReadFrame decodes the next frame from r. io.EOF passes through
// untouched when the stream ends cleanly between frames; everything
// else wraps ErrBadFrame.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return Frame{}, err // io.EOF: clean end between frames
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return Frame{}, fmt.Errorf("replica: truncated frame header: %w", ErrBadFrame)
	}
	magic := binary.LittleEndian.Uint32(hdr[0:])
	switch magic {
	case eventMagic, snapshotMagic, heartbeatMagic:
	default:
		return Frame{}, fmt.Errorf("replica: frame magic %08x: %w", magic, ErrBadFrame)
	}
	n := binary.LittleEndian.Uint32(hdr[4:])
	if n > maxFramePayload {
		return Frame{}, fmt.Errorf("replica: frame payload %d bytes: %w", n, ErrBadFrame)
	}
	payload, err := readPayload(r, int(n))
	if err != nil {
		return Frame{}, fmt.Errorf("replica: truncated frame payload: %w", ErrBadFrame)
	}
	crc := crc32.Checksum(hdr[:], castagnoli)
	crc = crc32.Update(crc, castagnoli, payload)
	var tail [4]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return Frame{}, fmt.Errorf("replica: truncated frame checksum: %w", ErrBadFrame)
	}
	if got := binary.LittleEndian.Uint32(tail[:]); got != crc {
		return Frame{}, fmt.Errorf("replica: frame crc %08x, want %08x: %w", got, crc, ErrBadFrame)
	}

	switch magic {
	case eventMagic:
		var ev store.Event
		if err := json.Unmarshal(payload, &ev); err != nil {
			return Frame{}, fmt.Errorf("replica: decoding event frame: %v: %w", err, ErrBadFrame)
		}
		return Frame{Kind: KindEvent, Event: ev}, nil
	case snapshotMagic:
		doc := new(store.SnapshotDoc)
		if err := json.Unmarshal(payload, doc); err != nil {
			return Frame{}, fmt.Errorf("replica: decoding snapshot frame: %v: %w", err, ErrBadFrame)
		}
		return Frame{Kind: KindSnapshot, Snapshot: doc}, nil
	default: // heartbeatMagic
		if len(payload) != 8 {
			return Frame{}, fmt.Errorf("replica: heartbeat payload %d bytes: %w", len(payload), ErrBadFrame)
		}
		return Frame{Kind: KindHeartbeat, Seq: binary.LittleEndian.Uint64(payload)}, nil
	}
}
