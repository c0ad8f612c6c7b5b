package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"qres/internal/boolexpr"
	"qres/internal/resolve"
)

// testEnv bundles a registry with the Options every test store shares.
type testEnv struct {
	reg  *boolexpr.Registry
	opts Options
}

func newTestEnv() *testEnv {
	reg := boolexpr.NewRegistry()
	return &testEnv{
		reg: reg,
		opts: Options{
			NameFn:    reg.Name,
			ResolveFn: func(n string) (boolexpr.Var, bool) { return reg.Lookup(n) },
		},
	}
}

// addOne pairs one repository add with one WAL append inside a single
// Update, as the server's answer path does.
func addOne(t *testing.T, st *Store, repo *resolve.Repository, rec resolve.ProbeRecord) {
	t.Helper()
	err := st.Update(func(ap func(...resolve.ProbeRecord) error) error {
		if rec.HasVar {
			repo.AddVar(rec.Var, rec.Meta, rec.Answer)
		} else {
			repo.Add(rec.Meta, rec.Answer)
		}
		return ap(rec)
	}, nil)
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
}

// probeSeq builds n distinct records, mixing variable-bound and
// metadata-only ones.
func (e *testEnv) probeSeq(n int) []resolve.ProbeRecord {
	recs := make([]resolve.ProbeRecord, n)
	for i := range recs {
		recs[i] = resolve.ProbeRecord{
			Meta:   map[string]string{"i": strconv.Itoa(i), "source": "test"},
			Answer: i%3 != 0,
		}
		if i%4 != 3 { // every fourth record is metadata-only
			recs[i].Var = e.reg.Intern(fmt.Sprintf("facts[%d]", i))
			recs[i].HasVar = true
		}
	}
	return recs
}

// saveBytes renders a repository through the canonical JSONL writer, the
// byte-level yardstick for recovery equivalence.
func saveBytes(t *testing.T, repo *resolve.Repository, name func(boolexpr.Var) string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := repo.SaveJSON(&buf, name); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestStoreRoundTrip(t *testing.T) {
	env := newTestEnv()
	dir := t.TempDir()
	st, repo, err := Open(dir, env.opts)
	if err != nil {
		t.Fatal(err)
	}
	recs := env.probeSeq(20)
	for _, rec := range recs {
		addOne(t, st, repo, rec)
	}
	if got := st.WALRecords(); got != 20 {
		t.Errorf("WALRecords = %d, want 20", got)
	}
	want := saveBytes(t, repo, env.reg.Name)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash-equivalent close: recovery replays the tail.
	st2, repo2, err := Open(dir, env.opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := saveBytes(t, repo2, env.reg.Name); !bytes.Equal(got, want) {
		t.Errorf("recovered repository differs:\ngot  %s\nwant %s", got, want)
	}
}

// Update's then callback runs after the commit lock is released — a
// nested Update from inside it would deadlock otherwise — and before
// Update returns; it is skipped when the store refuses the update.
func TestUpdateThenRunsOutsideCommitLock(t *testing.T) {
	env := newTestEnv()
	st, repo, err := Open(t.TempDir(), env.opts)
	if err != nil {
		t.Fatal(err)
	}
	recs := env.probeSeq(2)
	ran := false
	err = st.Update(func(ap func(...resolve.ProbeRecord) error) error {
		repo.Add(recs[0].Meta, recs[0].Answer)
		return ap(recs[0])
	}, func() {
		ran = true
		addOne(t, st, repo, recs[1])
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("then did not run before Update returned")
	}
	if got := st.WALRecords(); got != 2 {
		t.Errorf("WALRecords = %d, want 2", got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	err = st.Update(func(func(...resolve.ProbeRecord) error) error {
		t.Error("fn ran on a closed store")
		return nil
	}, func() { t.Error("then ran on a closed store") })
	if !errors.Is(err, ErrClosed) {
		t.Errorf("Update after Close = %v, want ErrClosed", err)
	}
}

func TestRecoveryMatchesLiveRepository(t *testing.T) {
	// A probe stream with several segment rotations, a mid-stream snapshot
	// and a crash-equivalent close recovers to the bytes of the live
	// repository as it stood before the close.
	env := newTestEnv()
	dir := t.TempDir()
	st, repo, err := Open(dir, Options{
		NameFn: env.opts.NameFn, ResolveFn: env.opts.ResolveFn,
		SegmentBytes: 512, // force several rotations
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range env.probeSeq(60) {
		addOne(t, st, repo, rec)
		if i == 40 {
			if err := st.Snapshot(repo); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := saveBytes(t, repo, env.reg.Name)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, back, err := Open(dir, env.opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := saveBytes(t, back, env.reg.Name); !bytes.Equal(got, want) {
		t.Errorf("recovered repository differs from the live one:\ngot  %s\nwant %s", got, want)
	}
}

func TestGroupCommitDurability(t *testing.T) {
	// Concurrent answer paths, with a snapshotter looping beside them:
	// every Update that returned must survive a crash-equivalent close
	// exactly once (no loss, no duplicate replay across a snapshot
	// watermark), and the concurrent appends should have shared fsyncs.
	env := newTestEnv()
	dir := t.TempDir()
	st, repo, err := Open(dir, env.opts)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers+1)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec := resolve.ProbeRecord{
					Meta:   map[string]string{"w": strconv.Itoa(w), "i": strconv.Itoa(i)},
					Answer: true,
				}
				err := st.Update(func(ap func(...resolve.ProbeRecord) error) error {
					repo.Add(rec.Meta, rec.Answer)
					return ap(rec)
				}, nil)
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := st.Snapshot(repo); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-snapDone
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.Fsyncs == 0 || stats.Fsyncs > writers*perWriter {
		t.Errorf("Fsyncs = %d, want in [1, %d]", stats.Fsyncs, writers*perWriter)
	}
	want := saveBytes(t, repo, env.reg.Name)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, repo2, err := Open(dir, env.opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := repo2.Len(); got != writers*perWriter {
		t.Errorf("recovered %d records, want %d (acked appends lost or replayed twice)", got, writers*perWriter)
	}
	if got := saveBytes(t, repo2, env.reg.Name); !bytes.Equal(got, want) {
		t.Errorf("recovered repository differs from the live one:\ngot  %s\nwant %s", got, want)
	}
}

func TestSnapshotCompactsSealedSegments(t *testing.T) {
	env := newTestEnv()
	dir := t.TempDir()
	st, repo, err := Open(dir, Options{
		NameFn: env.opts.NameFn, ResolveFn: env.opts.ResolveFn,
		SegmentBytes: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range env.probeSeq(50) {
		addOne(t, st, repo, rec)
	}
	before := st.Stats()
	if before.SealedSegments == 0 {
		t.Fatalf("no rotation at SegmentBytes=256 after 50 records")
	}
	if err := st.Snapshot(repo); err != nil {
		t.Fatal(err)
	}
	after := st.Stats()
	if after.SealedSegments != 0 {
		t.Errorf("SealedSegments = %d after snapshot, want 0", after.SealedSegments)
	}
	if after.SnapshotRecords != 50 {
		t.Errorf("SnapshotRecords = %d, want 50", after.SnapshotRecords)
	}
	if got := st.WALRecords(); got != 0 {
		t.Errorf("WALRecords = %d after snapshot, want 0", got)
	}
	// Records appended after the snapshot are tail-only replay work.
	addOne(t, st, repo, resolve.ProbeRecord{Meta: map[string]string{"i": "tail"}, Answer: true})
	if got := st.WALRecords(); got != 1 {
		t.Errorf("WALRecords = %d after post-snapshot append, want 1", got)
	}
	want := saveBytes(t, repo, env.reg.Name)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, repo2, err := Open(dir, env.opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := saveBytes(t, repo2, env.reg.Name); !bytes.Equal(got, want) {
		t.Errorf("post-compaction recovery differs:\ngot  %s\nwant %s", got, want)
	}
}

func TestBackgroundCompactorFoldsSealedSegments(t *testing.T) {
	env := newTestEnv()
	dir := t.TempDir()
	st, repo, err := Open(dir, Options{
		NameFn: env.opts.NameFn, ResolveFn: env.opts.ResolveFn,
		SegmentBytes:    256,
		CompactInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, rec := range env.probeSeq(50) {
		addOne(t, st, repo, rec)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		stats := st.Stats()
		if stats.Compactions > 0 && stats.SealedSegments == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("compactor never folded sealed segments: %+v", stats)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Appends keep working while and after compaction runs.
	addOne(t, st, repo, resolve.ProbeRecord{Meta: map[string]string{"i": "post"}, Answer: true})
}

func TestRecoverySkipsCoveredSegmentsWithoutReadingThem(t *testing.T) {
	// The block-index skip is what makes restart sublinear: a sealed
	// segment whose sidecar proves it is below the snapshot watermark is
	// never read. Left-over covered segments (best-effort deletes) are
	// fine even when their contents are garbage.
	env := newTestEnv()
	dir := t.TempDir()
	st, repo, err := Open(dir, Options{
		NameFn: env.opts.NameFn, ResolveFn: env.opts.ResolveFn,
		SegmentBytes: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range env.probeSeq(40) {
		addOne(t, st, repo, rec)
	}
	// Capture a sealed segment + sidecar, snapshot (which deletes it),
	// then restore the pair with the segment body replaced by garbage.
	seqs, err := listSegments(dir)
	if err != nil || len(seqs) < 2 {
		t.Fatalf("want >= 2 segments, got %v (err %v)", seqs, err)
	}
	coveredSeq := seqs[0]
	sidecar, rerr := os.ReadFile(sidecarPath(dir, coveredSeq))
	if rerr != nil {
		t.Fatal(rerr)
	}
	if err := st.Snapshot(repo); err != nil {
		t.Fatal(err)
	}
	want := saveBytes(t, repo, env.reg.Name)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segmentPath(dir, coveredSeq), []byte("garbage, never read"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(sidecarPath(dir, coveredSeq), sidecar, 0o644); err != nil {
		t.Fatal(err)
	}

	st2, repo2, err := Open(dir, env.opts)
	if err != nil {
		t.Fatalf("recovery read a snapshot-covered segment: %v", err)
	}
	defer st2.Close()
	if got := saveBytes(t, repo2, env.reg.Name); !bytes.Equal(got, want) {
		t.Errorf("recovery differs:\ngot  %s\nwant %s", got, want)
	}
	if fileExists(segmentPath(dir, coveredSeq)) {
		t.Errorf("covered leftover segment %d not reaped", coveredSeq)
	}
}

func TestMidSegmentCorruptionIsLocated(t *testing.T) {
	env := newTestEnv()
	dir := t.TempDir()
	st, repo, err := Open(dir, env.opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range env.probeSeq(10) {
		addOne(t, st, repo, rec)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte in the middle of the live segment: CRC fails
	// there, well-formed frames follow, so this is mid-file damage —
	// reported with file, offset, and record index, never repaired.
	seqs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := segmentPath(dir, seqs[len(seqs)-1])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mid := len(data) / 2
	data[mid] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, err = Open(dir, env.opts)
	if err == nil {
		t.Fatal("mid-segment corruption accepted")
	}
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v (type %T) does not wrap *CorruptionError", err, err)
	}
	if ce.Path != path {
		t.Errorf("Path = %q, want %q", ce.Path, path)
	}
	if ce.Offset <= 0 || ce.Offset >= int64(len(data)) {
		t.Errorf("Offset = %d, want within (0, %d)", ce.Offset, len(data))
	}
	if ce.Record < 0 || ce.Record >= 10 {
		t.Errorf("Record = %d, want within [0, 10)", ce.Record)
	}
}

// copyFixture copies a legacy store fixture into a fresh directory, so a
// test can open (and migrate) it without touching the checked-in files.
func copyFixture(t *testing.T, name string) (dir string, files map[string][]byte) {
	t.Helper()
	dir = t.TempDir()
	files = make(map[string][]byte)
	for _, f := range []string{legacySnapshotFile, legacyWALFile} {
		data, err := os.ReadFile(filepath.Join("testdata", name, f))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f), data, 0o644); err != nil {
			t.Fatal(err)
		}
		files[f] = data
	}
	return dir, files
}

func TestLegacyFlatStoreMigration(t *testing.T) {
	// testdata/legacy_flat was written by the retired flat JSONL store: a
	// 21-record snapshot, a 9-record WAL tail, and a torn trailing
	// fragment from a crash mid-append. It is migrated in place on first
	// open, recovers to want.jsonl byte for byte, and is never consulted
	// again.
	env := newTestEnv()
	env.probeSeq(30) // intern facts[0..29] so variable names resolve
	want, err := os.ReadFile(filepath.Join("testdata", "legacy_flat", "want.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	dir, _ := copyFixture(t, "legacy_flat")

	st, repo, err := Open(dir, env.opts)
	if err != nil {
		t.Fatalf("migration: %v", err)
	}
	if got := saveBytes(t, repo, env.reg.Name); !bytes.Equal(got, want) {
		t.Errorf("migrated repository differs:\ngot  %s\nwant %s", got, want)
	}
	for _, name := range []string{legacySnapshotFile, legacyWALFile} {
		if fileExists(filepath.Join(dir, name)) {
			t.Errorf("legacy file %s survived migration", name)
		}
	}
	// Keep using the migrated store, then recover once more.
	addOne(t, st, repo, resolve.ProbeRecord{Meta: map[string]string{"i": "post"}, Answer: false})
	want = saveBytes(t, repo, env.reg.Name)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, repo2, err := Open(dir, env.opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := saveBytes(t, repo2, env.reg.Name); !bytes.Equal(got, want) {
		t.Errorf("post-migration recovery differs:\ngot  %s\nwant %s", got, want)
	}
}

func TestLegacyFlatStoreDamageFailsOpen(t *testing.T) {
	// testdata/legacy_flat_damaged holds a flat-store WAL whose fourth
	// line is cut short with well-formed lines after it: mid-file damage,
	// not a crash tear. Open must refuse it and leave both legacy files
	// byte-for-byte as they were.
	env := newTestEnv()
	env.probeSeq(30)
	dir, before := copyFixture(t, "legacy_flat_damaged")
	if st, _, err := Open(dir, env.opts); err == nil {
		st.Close()
		t.Fatal("Open accepted a legacy WAL with mid-file damage")
	}
	for name, want := range before {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("legacy file %s: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("failed migration modified legacy file %s", name)
		}
	}
	if fileExists(filepath.Join(dir, manifestName)) {
		t.Error("failed migration wrote a manifest")
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	env := newTestEnv()
	st, _, err := Open(t.TempDir(), env.opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	err = st.Append(resolve.ProbeRecord{Meta: map[string]string{"i": "late"}, Answer: true})
	if !errors.Is(err, ErrClosed) {
		t.Errorf("append after close: err = %v, want ErrClosed", err)
	}
}
