package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qres/internal/boolexpr"
	"qres/internal/resolve"
	"qres/internal/store"
	"qres/internal/table"
	"qres/internal/uncertain"
)

// claimTuples sizes the exactly-once test's database.
const claimTuples = 160

// claimsDB builds a one-relation uncertain database of n tuples whose
// metadata spreads over a few sources, so online learning has something
// to fit.
func claimsDB(n int) *uncertain.DB {
	db := table.NewDatabase()
	rel := table.NewRelation("Claims", table.NewSchema(
		table.Column{Name: "Id", Kind: table.KindInt},
		table.Column{Name: "Name", Kind: table.KindString},
	))
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("claim-%d", i)
		rel.MustAppend(table.Tuple{table.Int(int64(i)), table.String_(name)},
			table.Metadata{"source": fmt.Sprintf("src%d", i%4), "has_value": name})
	}
	db.MustAdd(rel)
	return uncertain.New(db)
}

// Every acknowledged answer is durable exactly once, whatever the
// interleaving of concurrent answers, snapshots and compactions. Each of
// several cycles reopens the store, checks the recovered repository, and
// serves sessions over overlapping windows that answer concurrently on a
// store with tiny segments, while a snapshot loop, a writer holding the
// commit lock and the background compactor (every millisecond) run beside
// them. Midway through the traffic the store closes crash-style: no final
// snapshot (which would rewrite the whole repository under a fresh
// watermark and hide a stale one), so recovery starts from a periodic
// snapshot taken while answers were in flight. The recovered repository
// must hold each answer exactly as often as it was acknowledged, and no
// other record. An answer path that adds to the repository outside the
// store's commit lock fails this: a snapshot taken between the add and the
// WAL append covers the record, and recovery replays it again (or, when
// the append comes too late, recovers an answer that was never
// acknowledged).
func TestAnswersDurableExactlyOnce(t *testing.T) {
	const cycles = 3
	udb := claimsDB(claimTuples)
	gt := uncertain.GenerateFixed(udb, 0.5, 5)
	dir := t.TempDir()
	opts := store.Options{
		NameFn:          udb.Registry().Name,
		ResolveFn:       udb.Registry().Lookup,
		SegmentBytes:    256,
		CompactInterval: time.Millisecond,
	}
	acked := map[boolexpr.Var]int{}
	for cycle := 0; cycle <= cycles; cycle++ {
		st, repo, err := store.Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		checkExactlyOnce(t, udb, repo, acked)
		if cycle == cycles || t.Failed() {
			st.Close()
			return
		}
		serveUntilCrash(t, udb, gt, st, repo, acked, int64(cycle))
	}
}

// serveUntilCrash serves concurrent sessions over st until a third of
// their expected answers are acknowledged (or every session is done),
// then closes st crash-style, counting each acknowledged answer in acked.
func serveUntilCrash(t *testing.T, udb *uncertain.DB, gt *uncertain.GroundTruth,
	st *store.Store, repo *resolve.Repository, acked map[boolexpr.Var]int, seed int64) {
	t.Helper()
	const sessions, window = 4, 60
	srv, err := New(Config{DB: udb, Repo: repo, Store: st, MaxSessions: sessions})
	if err != nil {
		t.Fatal(err)
	}
	hts := httptest.NewServer(srv)

	// Two background writers run until the crash: a snapshot loop, and a
	// writer that holds the commit lock for a while without appending
	// anything, so answers queue for the lock beside snapshot captures.
	stopBg := make(chan struct{})
	bgDone := make(chan error, 2)
	background := func(step func() error) {
		for {
			select {
			case <-stopBg:
				bgDone <- nil
				return
			default:
			}
			if err := step(); err != nil {
				bgDone <- err
				return
			}
		}
	}
	go background(func() error { return st.Snapshot(repo) })
	go background(func() error {
		return st.Update(func(func(...resolve.ProbeRecord) error) error {
			time.Sleep(time.Millisecond)
			return nil
		}, nil)
	})

	var (
		mu      sync.Mutex
		total   int
		crash   = make(chan struct{})
		once    sync.Once
		crashed atomic.Bool
		wg      sync.WaitGroup
		errs    = make(chan error, sessions)
	)
	stride := (claimTuples - window) / (sessions - 1)
	crashAt := sessions * window / 3 / 2
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lo := i * stride
			create := CreateSessionRequest{
				Query: fmt.Sprintf("SELECT Name FROM Claims WHERE Id >= %d AND Id < %d", lo, lo+window),
				Seed:  seed*sessions + int64(i) + 1, Trees: 30,
			}
			var info SessionInfo
			if code, err := doJSON("POST", hts.URL+"/v1/sessions", create, &info); err != nil || code != http.StatusCreated {
				errs <- fmt.Errorf("create: status %d, err %v", code, err)
				return
			}
			for !info.Done {
				var pr ProbeResponse
				if code, err := doJSON("GET", hts.URL+"/v1/sessions/"+info.ID+"/probe", nil, &pr); err != nil || code != http.StatusOK {
					errs <- fmt.Errorf("probe: status %d, err %v", code, err)
					return
				}
				if pr.Done {
					return
				}
				v, _ := udb.VarFor(pr.Probe.Table, pr.Probe.Index)
				ans, _ := gt.Val.Get(v)
				var ar AnswerResponse
				code, err := doJSON("POST", hts.URL+"/v1/sessions/"+info.ID+"/answer",
					AnswerRequest{Table: pr.Probe.Table, Index: pr.Probe.Index, Answer: ans}, &ar)
				if err != nil || code != http.StatusOK {
					if !crashed.Load() {
						errs <- fmt.Errorf("answer: status %d, err %v", code, err)
					}
					return // after the crash, answers fail with the store closed
				}
				mu.Lock()
				acked[v]++
				total++
				if total == crashAt {
					once.Do(func() { close(crash) })
				}
				mu.Unlock()
				info.Done = ar.Done
			}
		}(i)
	}
	go func() {
		wg.Wait()
		once.Do(func() { close(crash) })
	}()

	<-crash
	close(stopBg)
	for i := 0; i < 2; i++ {
		if err := <-bgDone; err != nil {
			t.Errorf("background writer: %v", err)
		}
	}
	crashed.Store(true)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	hts.Close()
	close(srv.sweepStop)
	<-srv.sweepDone
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if total == 0 {
		t.Error("no answer was acknowledged")
	}
}

// checkExactlyOnce compares a recovered repository with the acknowledged
// answers, variable by variable.
func checkExactlyOnce(t *testing.T, udb *uncertain.DB, repo *resolve.Repository, acked map[boolexpr.Var]int) {
	t.Helper()
	want := 0
	for _, n := range acked {
		want += n
	}
	if repo.Len() != want {
		t.Errorf("recovered %d records, %d answers were acknowledged", repo.Len(), want)
	}
	recovered := map[boolexpr.Var]int{}
	for _, rec := range repo.Records() {
		if !rec.HasVar {
			t.Fatalf("recovered record without a variable: %+v", rec)
		}
		recovered[rec.Var]++
	}
	for v, n := range acked {
		if recovered[v] != n {
			t.Errorf("%s: acknowledged %d times, recovered %d times", udb.Registry().Name(v), n, recovered[v])
		}
	}
	for v, n := range recovered {
		if acked[v] == 0 {
			t.Errorf("%s: recovered %d times, never acknowledged", udb.Registry().Name(v), n)
		}
	}
}
