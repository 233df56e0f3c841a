package store

import (
	"bytes"
	"encoding/json"
	"testing"
)

// fuzzSeedRecords builds a small valid WAL for seeding the fuzzer.
func fuzzSeedRecords(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i, ev := range []Event{
		{Seq: 1, Op: opPut, Name: "m", Version: 1, Rules: json.RawMessage(`{"means":[0],"eigenvalues":[1],"total_variance":1,"trained_rows":2,"vectors":[[1]]}`)},
		{Seq: 2, Op: opDelete, Name: "m"},
	} {
		payload, err := json.Marshal(ev)
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		buf.Write(encodeRecord(payload))
	}
	return buf.Bytes()
}

// FuzzWALDecode throws arbitrary bytes at the WAL record decoder: it
// must never panic, must report a valid-prefix offset inside the input,
// and decoding that prefix again must be a fixed point (the truncate
// step of recovery must converge in one pass).
func FuzzWALDecode(f *testing.F) {
	valid := fuzzSeedRecords(f)
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])           // torn tail
	f.Add(append([]byte{0xff}, valid...)) // leading garbage
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)-1] ^= 0x01
	f.Add(corrupt)                                    // CRC failure in the last record
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // absurd length header

	f.Fuzz(func(t *testing.T, data []byte) {
		events, valid := decodeRecords(data)
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid offset %d outside [0, %d]", valid, len(data))
		}
		again, validAgain := decodeRecords(data[:valid])
		if validAgain != valid || len(again) != len(events) {
			t.Fatalf("re-decode of valid prefix: offset %d/%d, %d/%d events",
				validAgain, valid, len(again), len(events))
		}
		// Every decoded event must survive a marshal/encode/decode
		// round trip — what recovery replays is what append committed.
		var rebuilt bytes.Buffer
		for _, ev := range events {
			payload, err := json.Marshal(ev)
			if err != nil {
				t.Fatalf("re-marshal: %v", err)
			}
			rebuilt.Write(encodeRecord(payload))
		}
		round, roundValid := decodeRecords(rebuilt.Bytes())
		if roundValid != rebuilt.Len() || len(round) != len(events) {
			t.Fatalf("round trip lost records: %d/%d", len(round), len(events))
		}
	})
}

// TestDecodeRecordsUnit pins the exact decoder behavior the fuzz target
// asserts structurally: clean logs decode fully, torn tails stop at the
// record boundary.
func TestDecodeRecordsUnit(t *testing.T) {
	data := fuzzSeedRecords(t)
	events, valid := decodeRecords(data)
	if valid != len(data) || len(events) != 2 {
		t.Fatalf("clean decode: offset %d/%d, %d events", valid, len(data), len(events))
	}
	if events[0].Op != opPut || events[0].Seq != 1 || events[1].Op != opDelete || events[1].Seq != 2 {
		t.Fatalf("decoded events wrong: %+v", events)
	}
	// Find the first record's frame size to check mid-stream cuts.
	payload0, _ := json.Marshal(events[0])
	first := walHeaderSize + len(payload0)
	for _, cut := range []int{0, 1, walHeaderSize - 1, walHeaderSize, first - 1} {
		ev, v := decodeRecords(data[:cut])
		if len(ev) != 0 || v != 0 {
			t.Errorf("cut %d: %d events, offset %d; want none", cut, len(ev), v)
		}
	}
	ev, v := decodeRecords(data[:first+3])
	if len(ev) != 1 || v != first {
		t.Errorf("torn second record: %d events, offset %d, want 1 event at %d", len(ev), v, first)
	}
}
