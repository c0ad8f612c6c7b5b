package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"qres/internal/boolexpr"
	"qres/internal/resolve"
)

// manifest is the store's durable root pointer, swapped atomically on
// every snapshot. Recovery trusts nothing else: the snapshot covers the
// repository's first SnapshotRecords records, which correspond exactly to
// WAL records below WALWatermark — replay starts there.
type manifest struct {
	// SnapshotRecords is the number of records in snapshot.qbs.
	SnapshotRecords uint64 `json:"snapshot_records"`
	// WALWatermark is the global WAL index the snapshot covers: every WAL
	// record with index < WALWatermark is contained in the snapshot.
	WALWatermark uint64 `json:"wal_watermark"`
}

// writeManifest persists the manifest atomically.
func writeManifest(dir string, m manifest) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(dir, manifestName), append(data, '\n'))
}

// readManifest loads the manifest; ok is false when none exists yet.
func readManifest(dir string) (manifest, bool, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return manifest{}, false, nil
	}
	if err != nil {
		return manifest{}, false, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return manifest{}, false, fmt.Errorf("store: manifest: %w", err)
	}
	return m, true, nil
}

// Snapshot atomically persists a prefix of the repository and advances the
// WAL watermark past it, then deletes every sealed segment the new
// snapshot fully covers. It does not exclude concurrent appends: the
// (prefix length, WAL watermark) pair is captured under the commit-order
// lock — one uncontended lock acquisition — and everything after that runs
// against an immutable record prefix while writers keep appending. Explicit calls (graceful shutdown) and the
// background compactor both land here.
func (s *Store) Snapshot(repo *resolve.Repository) error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()

	s.mu.Lock()
	n := uint64(repo.Len())
	mark := s.total
	s.mu.Unlock()

	recs := repo.Records()
	if uint64(len(recs)) < n {
		return fmt.Errorf("store: repository shrank during snapshot (%d < %d)", len(recs), n)
	}
	recs = recs[:n]
	if err := s.writeSnapshotFile(recs); err != nil {
		return err
	}
	man := manifest{SnapshotRecords: n, WALWatermark: mark}
	if err := writeManifest(s.dir, man); err != nil {
		return err
	}

	// The manifest is durable: every sealed segment it covers is dead
	// weight. Deleting is best-effort — a leftover segment is skipped via
	// its sidecar on the next recovery and reaped by the next compaction.
	s.smu.Lock()
	s.man = man
	var drop, keep []*segmentMeta
	for _, m := range s.sealed {
		if m.endIndex() <= man.WALWatermark {
			drop = append(drop, m)
		} else {
			keep = append(keep, m)
		}
	}
	s.sealed = keep
	s.smu.Unlock()
	for _, m := range drop {
		os.Remove(segmentPath(s.dir, m.Seq))
		os.Remove(sidecarPath(s.dir, m.Seq))
	}
	s.compactions.Add(1)
	s.met.compactionDone(nil)
	s.met.setSnapshotRecords(float64(n))
	s.publishGauges()
	return nil
}

// writeSnapshotFile streams the records into a crash-consistent snapshot:
// temp file, frames through a buffered writer, fsync, atomic rename,
// directory fsync.
func (s *Store) writeSnapshotFile(recs []resolve.ProbeRecord) error {
	path := filepath.Join(s.dir, snapshotName)
	tmp, err := os.CreateTemp(s.dir, snapshotName+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	bw := bufio.NewWriterSize(tmp, 1<<20)
	frame := appendFrame(nil, appendSnapshotHeaderPayload(nil, snapshotHeader{records: uint64(len(recs))}))
	if _, err := bw.Write(frame); err != nil {
		tmp.Close()
		return err
	}
	scratch := make([]byte, 0, 256)
	for _, pr := range recs {
		scratch = appendRecordPayload(scratch[:0], recordFromProbe(pr, s.nameFn))
		frame = appendFrame(frame[:0], scratch)
		if _, err := bw.Write(frame); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
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
	return syncDir(s.dir)
}

// loadSnapshotFile replays the snapshot into repo, returning the number of
// records it held. Snapshots are written atomically, so any damage is
// corruption, never a torn tail.
func loadSnapshotFile(path string, repo *resolve.Repository, resolveFn func(string) (boolexpr.Var, bool)) (uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	payload, off, ferr := readFrame(data, 0)
	if ferr != nil {
		return 0, &CorruptionError{Path: path, Offset: 0, Record: 0,
			Err: fmt.Errorf("snapshot header frame: %w", ferr.err)}
	}
	hdr, err := decodeSnapshotHeaderPayload(payload)
	if err != nil {
		return 0, &CorruptionError{Path: path, Offset: 0, Record: 0, Err: err}
	}
	var count uint64
	for off < len(data) {
		frameStart := off
		payload, next, ferr := readFrame(data, off)
		if ferr != nil {
			return 0, &CorruptionError{Path: path, Offset: int64(frameStart),
				Record: int(count), Err: ferr.err}
		}
		rec, derr := decodeRecordPayload(payload)
		if derr != nil {
			return 0, &CorruptionError{Path: path, Offset: int64(frameStart),
				Record: int(count), Err: derr}
		}
		rec.apply(repo, resolveFn)
		count++
		off = next
	}
	if count != hdr.records {
		return 0, &CorruptionError{Path: path, Offset: int64(len(data)), Record: int(count),
			Err: fmt.Errorf("snapshot holds %d records, header promises %d", count, hdr.records)}
	}
	return count, nil
}

// compactLoop folds sealed segments into the snapshot on a timer until the
// store closes. A failed fold is counted and retried next interval; the
// store keeps serving appends either way.
func (s *Store) compactLoop(interval time.Duration) {
	defer close(s.compactDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.compactStop:
			return
		case <-t.C:
			if !s.shouldCompact() {
				continue
			}
			// Snapshot itself accounts for a successful fold; only the
			// failure path is counted here.
			if err := s.Snapshot(s.repo); err != nil {
				s.compactErrs.Add(1)
				s.met.compactionDone(err)
			}
		}
	}
}

// shouldCompact reports whether a fold would free anything: at least one
// sealed segment lies beyond the snapshot watermark. Tail records still in
// the live segment are not worth a full snapshot pass — they are exactly
// what cheap replay on restart is for.
func (s *Store) shouldCompact() bool {
	s.smu.Lock()
	defer s.smu.Unlock()
	for _, m := range s.sealed {
		if m.endIndex() > s.man.WALWatermark {
			return true
		}
	}
	return false
}
