package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Segment files. The WAL is a chain of size-bounded segments named
// wal-<seq>.seg with monotonically increasing sequence numbers; the
// highest-numbered segment is the live one, every earlier segment is
// sealed (immutable). Sealing writes a sidecar block index wal-<seq>.sidx
// next to the segment: record count, byte size, first record's global
// index, and the sorted set of variable names the segment touches. The
// sidecar lets recovery and cold lookups decide per segment — "everything
// here is already in the snapshot", "this variable never appears here" —
// without reading the segment, which is what makes restart time track the
// un-snapshotted tail instead of total history. Sidecars are pure
// acceleration: deleting one costs a rebuild scan, never correctness.

// File naming inside a store directory.
const (
	segmentPrefix  = "wal-"
	segmentSuffix  = ".seg"
	sidecarSuffix  = ".sidx"
	snapshotName   = "snapshot.qbs"
	manifestName   = "MANIFEST.json"
	segmentSeqWide = 8 // zero-padded digits in segment file names
)

// segmentPath renders the file name of segment seq under dir.
func segmentPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%0*d%s", segmentPrefix, segmentSeqWide, seq, segmentSuffix))
}

// sidecarPath renders the block-index file name of segment seq under dir.
func sidecarPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%0*d%s", segmentPrefix, segmentSeqWide, seq, sidecarSuffix))
}

// parseSegmentName extracts the sequence number from a segment file name.
func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segmentPrefix) || !strings.HasSuffix(name, segmentSuffix) {
		return 0, false
	}
	seq, err := strconv.ParseUint(name[len(segmentPrefix):len(name)-len(segmentSuffix)], 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// listSegments returns the sequence numbers of the segments in dir, sorted
// ascending.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		if seq, ok := parseSegmentName(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// segmentMeta describes one sealed segment: the sidecar's content, held in
// memory for block-index decisions.
type segmentMeta struct {
	// Seq is the segment's sequence number.
	Seq uint64 `json:"seq"`
	// FirstIndex is the global record index of the segment's first record.
	FirstIndex uint64 `json:"first_index"`
	// Records is the number of record frames in the segment.
	Records uint64 `json:"records"`
	// Bytes is the segment file's size when sealed.
	Bytes int64 `json:"bytes"`
	// Vars is the sorted, deduplicated set of variable names recorded in
	// the segment (metadata-only records contribute nothing).
	Vars []string `json:"vars"`
}

// endIndex is the global index one past the segment's last record.
func (m *segmentMeta) endIndex() uint64 { return m.FirstIndex + m.Records }

// containsVar reports whether the segment records an answer for the named
// variable, by binary search over the sorted sidecar list.
func (m *segmentMeta) containsVar(name string) bool {
	i := sort.SearchStrings(m.Vars, name)
	return i < len(m.Vars) && m.Vars[i] == name
}

// writeSidecar persists a segment's block index crash-consistently
// (temp file + fsync + atomic rename).
func writeSidecar(dir string, m *segmentMeta) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return writeFileAtomic(sidecarPath(dir, m.Seq), append(data, '\n'))
}

// readSidecar loads a segment's block index; ok is false when the sidecar
// is absent or unusable (callers rebuild by scanning the segment). A
// sidecar is unusable unless it names segment seq, its record range does
// not overflow, its byte size is not negative and its variable list is
// strictly ascending (containsVar's binary search relies on it).
func readSidecar(dir string, seq uint64) (*segmentMeta, bool) {
	data, err := os.ReadFile(sidecarPath(dir, seq))
	if err != nil {
		return nil, false
	}
	var m segmentMeta
	if json.Unmarshal(data, &m) != nil || m.Seq != seq ||
		m.endIndex() < m.FirstIndex || m.Bytes < 0 {
		return nil, false
	}
	for i := 1; i < len(m.Vars); i++ {
		if m.Vars[i-1] >= m.Vars[i] {
			return nil, false
		}
	}
	return &m, true
}

// scanResult is what a full segment scan yields.
type scanResult struct {
	header     segmentHeader
	records    []record
	bytes      int64 // offset one past the last well-formed frame
	torn       bool  // a torn suffix follows bytes (live segment: truncate)
	tornSize   int64 // bytes in the torn suffix
	headerTorn bool  // the header frame itself is torn: crash mid-create
}

// scanSegment reads and verifies one segment file. Damage handling is
// positional: a torn suffix — malformed bytes at the end of the file with
// no well-formed frame after them, the signature of a crash mid-append —
// is reported via torn (the caller truncates it from the live segment and
// rejects it in sealed ones); malformed data with a well-formed frame
// anywhere after it is in-place corruption and fails the scan with a
// CorruptionError carrying the byte offset and record index.
func scanSegment(path string) (*scanResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	res := &scanResult{}
	if len(data) == 0 {
		// A crash inside createSegment, before the header write landed.
		res.headerTorn, res.torn = true, true
		return res, nil
	}
	payload, off, ferr := readFrame(data, 0)
	if ferr != nil {
		// Damaged header. A torn one — with nothing well-formed after it —
		// is a crash mid-create: the segment never held a record. A
		// well-formed frame after the damage means mid-file corruption.
		if !ferr.torn {
			for probe := 1; probe < len(data); probe++ {
				if validFrameAt(data, probe) {
					return nil, &CorruptionError{Path: path, Offset: 0, Record: 0,
						Err: fmt.Errorf("segment header frame: %w", ferr.err)}
				}
			}
		}
		res.headerTorn, res.torn = true, true
		res.tornSize = int64(len(data))
		return res, nil
	}
	hdr, err := decodeSegmentHeaderPayload(payload)
	if err != nil {
		return nil, &CorruptionError{Path: path, Offset: 0, Record: 0, Err: err}
	}
	res.header = hdr
	res.bytes = int64(off)
	for off < len(data) {
		frameStart := off
		payload, next, ferr := readFrame(data, off)
		if ferr == nil {
			rec, derr := decodeRecordPayload(payload)
			if derr != nil {
				ferr = &frameError{err: derr}
			} else {
				res.records = append(res.records, rec)
				res.bytes = int64(next)
				off = next
				continue
			}
		}
		// Malformed data at frameStart. Torn suffix, or mid-file damage?
		// A torn suffix has no well-formed frame after the damage (the
		// partial write is the last thing that happened to the file).
		if !ferr.torn {
			for probe := frameStart + 1; probe < len(data); probe++ {
				if validFrameAt(data, probe) {
					return nil, &CorruptionError{Path: path, Offset: int64(frameStart),
						Record: len(res.records), Err: ferr.err}
				}
			}
		}
		res.torn = true
		res.tornSize = int64(len(data) - frameStart)
		break
	}
	return res, nil
}

// createSegment creates the next live segment: a fresh file whose first
// frame is the self-describing header pinning (seq, firstIndex), synced —
// along with its directory entry — before any record lands in it.
func createSegment(dir string, seq, firstIndex uint64) (*activeSegment, error) {
	path := segmentPath(dir, seq)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	hdr := appendFrame(nil, appendSegmentHeaderPayload(nil, segmentHeader{seq: seq, firstIndex: firstIndex}))
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return &activeSegment{
		f:          f,
		path:       path,
		seq:        seq,
		firstIndex: firstIndex,
		bytes:      int64(len(hdr)),
		vars:       make(map[string]struct{}),
	}, nil
}

// writeFileAtomic writes data to path crash-consistently: temp file in the
// same directory, fsync, atomic rename, directory fsync.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so renames and creates within it are durable.
// Platforms where directories cannot be fsynced are not treated as
// failures.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !os.IsPermission(err) {
		return err
	}
	return nil
}
