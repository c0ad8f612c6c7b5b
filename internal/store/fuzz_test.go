package store

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// FuzzReadFrame walks arbitrary bytes as a frame sequence, as recovery
// does: the decoder must never panic, every frame it accepts must advance
// and re-encode to exactly the bytes it was read from, and validFrameAt
// must agree with readFrame.
func FuzzReadFrame(f *testing.F) {
	rec := appendRecordPayload(nil, record{varName: "facts[1]", hasVar: true, answer: true,
		meta: map[string]string{"source": "seed"}})
	seg := appendFrame(nil, appendSegmentHeaderPayload(nil, segmentHeader{seq: 1, firstIndex: 0}))
	seg = appendFrame(seg, rec)
	f.Add(seg)
	f.Add(seg[:len(seg)-3]) // torn suffix
	f.Add(appendFrame(nil, appendSnapshotHeaderPayload(nil, snapshotHeader{records: 2})))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})             // empty frame
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4}) // insane length
	f.Fuzz(func(t *testing.T, data []byte) {
		for off := 0; off < len(data); {
			payload, next, ferr := readFrame(data, off)
			if valid := validFrameAt(data, off); valid != (ferr == nil) {
				t.Fatalf("validFrameAt = %v, readFrame error = %v at offset %d", valid, ferr, off)
			}
			if ferr != nil {
				return
			}
			if next <= off || next > len(data) {
				t.Fatalf("frame at %d reports next offset %d (len %d)", off, next, len(data))
			}
			if got := appendFrame(nil, payload); !bytes.Equal(got, data[off:next]) {
				t.Fatalf("frame at %d re-encodes to %x, read from %x", off, got, data[off:next])
			}
			off = next
		}
	})
}

// FuzzDecodeRecordPayload feeds arbitrary payloads to the record decoder:
// it must never panic, and a payload that decodes must re-encode, through
// appendRecordPayload, to a payload that decodes to the same record.
func FuzzDecodeRecordPayload(f *testing.F) {
	f.Add(appendRecordPayload(nil, record{varName: "facts[7]", hasVar: true, answer: true,
		meta: map[string]string{"source": "a", "i": "7"}}))
	f.Add(appendRecordPayload(nil, record{meta: map[string]string{"k": ""}}))
	f.Add(appendRecordPayload(nil, record{}))
	f.Add([]byte{frameRecord, 0xff, 0x05, 'a'})   // name length past the payload
	f.Add([]byte{frameRecord, 0x00, 0x80})        // unterminated uvarint
	f.Add([]byte{frameRecord, 0x00, 0x00, 0x00})  // trailing byte
	f.Add([]byte{frameSegmentHeader, 0x00, 0x00}) // wrong frame type
	f.Fuzz(func(t *testing.T, payload []byte) {
		r, err := decodeRecordPayload(payload)
		if err != nil {
			return
		}
		enc := appendRecordPayload(nil, r)
		r2, err := decodeRecordPayload(enc)
		if err != nil {
			t.Fatalf("re-encoded payload %x does not decode: %v", enc, err)
		}
		if !reflect.DeepEqual(r, r2) {
			t.Fatalf("round trip changed the record:\nfirst  %+v\nsecond %+v", r, r2)
		}
	})
}

// FuzzReadSidecar feeds arbitrary bytes to readSidecar as the block index
// of segment seq: it must never panic, and a sidecar it accepts must be
// internally consistent — the segment it names, a record range that does
// not overflow, a non-negative size, a strictly ascending variable list
// every member of which containsVar finds — and must read back unchanged
// after being encoded the way writeSidecar encodes it.
func FuzzReadSidecar(f *testing.F) {
	valid, err := json.Marshal(&segmentMeta{Seq: 3, FirstIndex: 40, Records: 2, Bytes: 96,
		Vars: []string{"facts[1]", "facts[2]"}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid, uint64(3))
	f.Add(valid, uint64(4)) // another segment's sidecar
	f.Add([]byte(`{"seq":1,"first_index":0,"records":0,"bytes":12,"vars":null}`), uint64(1))
	f.Add([]byte(`{"seq":1,"vars":["b","a"]}`), uint64(1))                                    // unsorted
	f.Add([]byte(`{"seq":1,"vars":["a","a"]}`), uint64(1))                                    // duplicate
	f.Add([]byte(`{"seq":1,"first_index":18446744073709551615,"records":2}`), uint64(1))      // overflow
	f.Add([]byte(`{"seq":1,"bytes":-1}`), uint64(1))                                          // negative size
	f.Add([]byte(`{"seq":1,"first_index":1,"records":1,"bytes":1,"vars":["x"]}x`), uint64(1)) // trailing junk
	f.Add([]byte(`null`), uint64(0))
	f.Add([]byte{}, uint64(0))
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte, seq uint64) {
		if err := os.WriteFile(sidecarPath(dir, seq), data, 0o644); err != nil {
			t.Fatal(err)
		}
		defer os.Remove(sidecarPath(dir, seq))
		m, ok := readSidecar(dir, seq)
		if !ok {
			return
		}
		if m.Seq != seq {
			t.Fatalf("accepted the sidecar of segment %d as segment %d", m.Seq, seq)
		}
		if m.endIndex() < m.FirstIndex {
			t.Fatalf("accepted an overflowing record range: first %d, %d records", m.FirstIndex, m.Records)
		}
		if m.Bytes < 0 {
			t.Fatalf("accepted a negative size %d", m.Bytes)
		}
		for i, v := range m.Vars {
			if i > 0 && m.Vars[i-1] >= v {
				t.Fatalf("accepted a variable list that is not strictly ascending: %q", m.Vars)
			}
			if !m.containsVar(v) {
				t.Fatalf("containsVar(%q) = false for a listed variable", v)
			}
		}
		// Re-encode as writeSidecar does (its fsync would dominate the run).
		enc, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(sidecarPath(dir, seq), append(enc, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		again, ok := readSidecar(dir, seq)
		if !ok || !reflect.DeepEqual(m, again) {
			t.Fatalf("round trip changed the sidecar:\nfirst  %+v\nsecond %+v (ok %v)", m, again, ok)
		}
	})
}
