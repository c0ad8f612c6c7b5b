package store

import (
	"bytes"
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
