package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"qres/internal/boolexpr"
	"qres/internal/obs"
	"qres/internal/resolve"
)

// Files of the retired flat JSONL store. A store directory holding these
// and no manifest is migrated in place on first open.
const (
	legacySnapshotFile = "probes.snapshot.jsonl"
	legacyWALFile      = "probes.wal.jsonl"
)

// Options configures Open. The zero value is usable when variable names
// never need to round-trip (metadata-only workloads).
type Options struct {
	// NameFn renders a variable for persistence; nil drops variable
	// bindings on disk (records persist as metadata-only).
	NameFn func(boolexpr.Var) string
	// ResolveFn binds a persisted variable name on recovery; names it
	// cannot resolve degrade to metadata-only records.
	ResolveFn func(string) (boolexpr.Var, bool)
	// SegmentBytes is the soft size bound at which the live segment is
	// sealed and rotated. Zero means 4 MiB. Rotation happens between
	// commit batches, so segments may overshoot by one batch.
	SegmentBytes int64
	// CompactInterval is how often the background compactor folds sealed
	// segments into the snapshot. Zero or negative disables background
	// compaction (explicit Snapshot calls still work).
	CompactInterval time.Duration
	// Metrics, when non-nil, receives the store_* series (fsync latency,
	// batch sizes, segment gauges, compaction counters).
	Metrics *obs.Registry
}

// defaultSegmentBytes is the live-segment rotation bound when Options
// leaves SegmentBytes zero.
const defaultSegmentBytes = 4 << 20

// Open recovers (or creates) a segmented store in dir and returns it with
// the repository rebuilt from snapshot plus WAL tail. Recovery work tracks
// the un-snapshotted tail: sealed segments whose sidecar proves every
// record sits below the snapshot watermark are skipped without being read.
// A torn suffix on the live segment — the signature of a crash mid-append —
// is truncated away; any other damage fails Open with a CorruptionError
// locating the damaged file, byte offset, and record index.
//
// Directories written by the retired flat JSONL store are migrated in
// place: the legacy snapshot and WAL are read once, folded into a
// new-format snapshot, and removed.
func Open(dir string, opts Options) (*Store, *resolve.Repository, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}

	if err := migrateLegacy(dir, opts); err != nil {
		return nil, nil, err
	}

	man, haveMan, err := readManifest(dir)
	if err != nil {
		return nil, nil, err
	}
	repo := resolve.NewRepository()
	if haveMan && man.SnapshotRecords > 0 {
		snapPath := filepath.Join(dir, snapshotName)
		n, err := loadSnapshotFile(snapPath, repo, opts.ResolveFn)
		if err != nil {
			return nil, nil, err
		}
		if n != man.SnapshotRecords {
			return nil, nil, fmt.Errorf("store: snapshot holds %d records, manifest promises %d", n, man.SnapshotRecords)
		}
	}

	s := &Store{
		dir:       dir,
		segBytes:  opts.SegmentBytes,
		nameFn:    opts.NameFn,
		resolveFn: opts.ResolveFn,
		met:       newStoreMetrics(opts.Metrics),
		repo:      repo,
		man:       man,
	}
	s.flushC = sync.NewCond(&s.mu)
	s.flusherDone = make(chan struct{})

	if err := s.recoverSegments(repo, man); err != nil {
		return nil, nil, err
	}

	s.met.setSnapshotRecords(float64(man.SnapshotRecords))
	s.publishGauges()
	go s.flushLoop()
	if opts.CompactInterval > 0 {
		s.compactStop = make(chan struct{})
		s.compactDone = make(chan struct{})
		go s.compactLoop(opts.CompactInterval)
	}
	return s, repo, nil
}

// recoverSegments walks the WAL chain: skips snapshot-covered segments by
// sidecar, replays the tail into repo, repairs a torn live suffix, seals
// what was live, and opens a fresh active segment. On return s.total,
// s.sealed, and s.active describe a consistent chain.
func (s *Store) recoverSegments(repo *resolve.Repository, man manifest) error {
	seqs, err := listSegments(s.dir)
	if err != nil {
		return err
	}

	// end tracks the chain's high-water mark: one past the last record
	// accounted for by snapshot or replayed segment.
	end := man.WALWatermark
	lastSeq := uint64(0)
	for i, seq := range seqs {
		lastSeq = seq
		live := i == len(seqs)-1

		if !live {
			if meta, ok := readSidecar(s.dir, seq); ok && meta.endIndex() <= man.WALWatermark {
				// Block-index skip: every record here is already in the
				// snapshot. Reap the leftover (compaction deletes are
				// best-effort) without reading a byte of it.
				os.Remove(segmentPath(s.dir, seq))
				os.Remove(sidecarPath(s.dir, seq))
				continue
			}
		}

		path := segmentPath(s.dir, seq)
		res, err := scanSegment(path)
		if err != nil {
			return err
		}
		if res.headerTorn {
			// A crash inside createSegment: the header never landed, so
			// the segment never held a record. Only ever the newest file.
			if !live {
				return &CorruptionError{Path: path, Offset: 0, Record: 0,
					Err: fmt.Errorf("torn header in sealed segment")}
			}
			if err := os.Remove(path); err != nil {
				return err
			}
			os.Remove(sidecarPath(s.dir, seq))
			continue
		}
		if res.header.seq != seq {
			return &CorruptionError{Path: path, Offset: 0, Record: 0,
				Err: fmt.Errorf("segment header seq %d does not match file name", res.header.seq)}
		}
		if res.torn {
			if !live {
				// Sealed segments are fully synced before their successor
				// exists; a torn suffix here is real damage.
				return &CorruptionError{Path: path, Offset: res.bytes, Record: len(res.records),
					Err: fmt.Errorf("torn suffix (%d bytes) in sealed segment", res.tornSize)}
			}
			if err := truncateSegment(path, res.bytes); err != nil {
				return err
			}
		}

		first := res.header.firstIndex
		segEnd := first + uint64(len(res.records))
		// Chain check: a gap before this segment is fine only when the
		// snapshot covers it (compaction deleted the covered prefix).
		if first > end {
			return &CorruptionError{Path: path, Offset: 0, Record: 0,
				Err: fmt.Errorf("segment starts at record %d but chain only reaches %d", first, end)}
		}

		if segEnd <= man.WALWatermark {
			// Fully covered by the snapshot (the sidecar was missing or
			// stale, so we only learned it from the scan). Reap it.
			if !live {
				os.Remove(path)
				os.Remove(sidecarPath(s.dir, seq))
				continue
			}
		} else {
			// Replay the records beyond the watermark, in order.
			for j, rec := range res.records {
				if first+uint64(j) < man.WALWatermark {
					continue
				}
				rec.apply(repo, s.resolveFn)
			}
		}
		if segEnd > end {
			end = segEnd
		}

		if live {
			// Seal what was live: never append to a recovered segment.
			// Empty or fully-covered files are deleted instead of sealed.
			if len(res.records) == 0 || segEnd <= man.WALWatermark {
				if err := os.Remove(path); err != nil {
					return err
				}
				os.Remove(sidecarPath(s.dir, seq))
				continue
			}
			meta := &segmentMeta{
				Seq:        seq,
				FirstIndex: first,
				Records:    uint64(len(res.records)),
				Bytes:      res.bytes,
				Vars:       scanVarSet(res.records),
			}
			if err := writeSidecar(s.dir, meta); err != nil {
				return err
			}
			s.sealed = append(s.sealed, meta)
		} else {
			meta, ok := readSidecar(s.dir, seq)
			if !ok || meta.Records != uint64(len(res.records)) || meta.FirstIndex != first {
				meta = &segmentMeta{
					Seq:        seq,
					FirstIndex: first,
					Records:    uint64(len(res.records)),
					Bytes:      res.bytes,
					Vars:       scanVarSet(res.records),
				}
				if err := writeSidecar(s.dir, meta); err != nil {
					return err
				}
			}
			s.sealed = append(s.sealed, meta)
		}
	}

	active, err := createSegment(s.dir, lastSeq+1, end)
	if err != nil {
		return err
	}
	s.active = active
	s.total = end
	return nil
}

// scanVarSet collects the sorted variable-name set of scanned records, for
// rebuilding a sidecar.
func scanVarSet(recs []record) []string {
	set := make(map[string]struct{})
	for _, r := range recs {
		if r.hasVar {
			set[r.varName] = struct{}{}
		}
	}
	return sortedVarSet(set)
}

// truncateSegment cuts a torn suffix off the live segment and syncs the
// repair.
func truncateSegment(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Truncate(size); err != nil {
		return err
	}
	return f.Sync()
}

// migrateLegacy converts a directory written by the retired flat JSONL
// store in place: read the legacy snapshot, then the legacy WAL on top of
// it, write the state as a new-format snapshot + manifest, and delete the
// legacy files. The legacy files are only read: resolve.LoadJSON skips a
// torn trailing line (a crash mid-append) and rejects mid-file damage, in
// which case Open fails with both files left as they were. A directory
// already holding a manifest only gets leftover legacy files removed (a
// crash mid-migration re-runs harmlessly: the legacy files are deleted
// only after the manifest is durable).
func migrateLegacy(dir string, opts Options) error {
	_, haveMan, err := readManifest(dir)
	if err != nil {
		return err
	}
	legacySnap := filepath.Join(dir, legacySnapshotFile)
	legacyWAL := filepath.Join(dir, legacyWALFile)
	if haveMan {
		os.Remove(legacySnap)
		os.Remove(legacyWAL)
		return nil
	}
	if !fileExists(legacySnap) && !fileExists(legacyWAL) {
		return nil
	}
	var recs []resolve.ProbeRecord
	for _, path := range []string{legacySnap, legacyWAL} {
		part, err := loadLegacyFile(path, opts.ResolveFn)
		if err != nil {
			return fmt.Errorf("store: migrating legacy store: %s: %w", filepath.Base(path), err)
		}
		recs = append(recs, part...)
	}
	tmp := &Store{dir: dir, nameFn: opts.NameFn}
	if err := tmp.writeSnapshotFile(recs); err != nil {
		return err
	}
	n := uint64(len(recs))
	if err := writeManifest(dir, manifest{SnapshotRecords: n, WALWatermark: n}); err != nil {
		return err
	}
	os.Remove(legacySnap)
	os.Remove(legacyWAL)
	return nil
}

// loadLegacyFile reads one legacy JSONL file; an absent file holds no
// records.
func loadLegacyFile(path string, resolveFn func(string) (boolexpr.Var, bool)) ([]resolve.ProbeRecord, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	repo, err := resolve.LoadJSON(f, resolveFn)
	if err != nil {
		return nil, err
	}
	return repo.Records(), nil
}

// fileExists reports whether path exists.
func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
