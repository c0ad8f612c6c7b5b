package resolve

import (
	"errors"
	"testing"

	"qres/internal/engine"
	"qres/internal/oracle"
	"qres/internal/testdb"
	"qres/internal/uncertain"
)

// paperSetup builds the paper's running example with a fixed ground truth.
func paperSetup(t *testing.T, seed int64) (*uncertain.DB, *engine.Result, *uncertain.GroundTruth) {
	t.Helper()
	udb := testdb.PaperUncertainDB()
	res, err := engine.Run(udb, testdb.PaperQuery())
	if err != nil {
		t.Fatal(err)
	}
	gt := uncertain.GenerateRDT(udb, 3, seed)
	return udb, res, gt
}

// TestAsyncMatchesSynchronousResolve drives the same configuration once
// through the synchronous Run loop and once through the asynchronous
// NextProbe/SubmitAnswer pair, asserting identical probe counts, probe
// sequences and row resolutions.
func TestAsyncMatchesSynchronousResolve(t *testing.T) {
	for _, strat := range []Config{
		{Utility: General{}, Learning: LearnOnline, Seed: 7},
		{Utility: RO{}, Learning: LearnOffline, Seed: 7},
		{Baseline: BaselineRandom, Seed: 7},
	} {
		udb, res, gt := paperSetup(t, 11)
		orc := oracle.NewGroundTruth(gt.Val)

		syncSess, err := NewSession(udb, res, orc, NewRepository(), strat)
		if err != nil {
			t.Fatal(err)
		}
		syncOut, err := syncSess.Run()
		if err != nil {
			t.Fatal(err)
		}

		asyncSess, err := NewSession(udb, res, nil, NewRepository(), strat)
		if err != nil {
			t.Fatal(err)
		}
		var sequence []ProbeRequest
		for {
			req, done, err := asyncSess.NextProbe()
			if err != nil {
				t.Fatal(err)
			}
			if done {
				break
			}
			// Idempotence: a retried NextProbe returns the same request.
			again, done2, err := asyncSess.NextProbe()
			if err != nil || done2 || again.Var != req.Var {
				t.Fatalf("NextProbe not idempotent: %v %v %v vs %v", again, done2, err, req)
			}
			sequence = append(sequence, req)
			answer, ok := gt.Val.Get(req.Var)
			if !ok {
				t.Fatalf("no ground truth for %d", req.Var)
			}
			if _, err := asyncSess.SubmitAnswer(req.Var, answer); err != nil {
				t.Fatal(err)
			}
		}
		asyncOut, err := asyncSess.Run()
		if err != nil {
			t.Fatal(err)
		}

		if len(sequence) != syncOut.Probes {
			t.Errorf("%s: async probes = %d, sync = %d", strat.Name(), len(sequence), syncOut.Probes)
		}
		if asyncOut.Probes != syncOut.Probes {
			t.Errorf("%s: outcome probes differ: %d vs %d", strat.Name(), asyncOut.Probes, syncOut.Probes)
		}
		if len(asyncOut.Answers) != len(syncOut.Answers) {
			t.Fatalf("%s: answer counts differ", strat.Name())
		}
		for i := range asyncOut.Answers {
			if asyncOut.Answers[i] != syncOut.Answers[i] {
				t.Errorf("%s: row %d resolved differently: %+v vs %+v",
					strat.Name(), i, asyncOut.Answers[i], syncOut.Answers[i])
			}
			want := res.Rows[i].Prov.Eval(gt.Val)
			if asyncOut.Answers[i].Correct != want {
				t.Errorf("%s: row %d = %v, ground truth %v", strat.Name(), i, asyncOut.Answers[i].Correct, want)
			}
		}
	}
}

// TestAsyncInterleavedSessions interleaves two async sessions over the
// same query (round-robin, one probe each per turn) sharing nothing, and
// checks each still matches its own synchronous run — parking one session
// must not perturb another.
func TestAsyncInterleavedSessions(t *testing.T) {
	udb, res, gt := paperSetup(t, 23)
	cfg := Config{Utility: General{}, Learning: LearnOnline, Seed: 3}

	ref, err := NewSession(udb, res, oracle.NewGroundTruth(gt.Val), NewRepository(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	refOut, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}

	a, err := NewSession(udb, res, nil, NewRepository(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSession(udb, res, nil, NewRepository(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[*Session]int{}
	for !a.Done() || !b.Done() {
		for _, s := range []*Session{a, b} {
			req, done, err := s.NextProbe()
			if err != nil {
				t.Fatal(err)
			}
			if done {
				continue
			}
			answer, _ := gt.Val.Get(req.Var)
			if _, err := s.SubmitAnswer(req.Var, answer); err != nil {
				t.Fatal(err)
			}
			counts[s]++
		}
	}
	for _, s := range []*Session{a, b} {
		if counts[s] != refOut.Probes {
			t.Errorf("interleaved session probes = %d, reference = %d", counts[s], refOut.Probes)
		}
		out, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		for i := range out.Answers {
			if out.Answers[i] != refOut.Answers[i] {
				t.Errorf("row %d resolved differently under interleaving", i)
			}
		}
	}
}

// TestNextProbeAppliesConcurrentAnswers shares one repository between two
// sessions created before any answers exist. After the first session
// resolves, the second must apply the repository's answers inside
// NextProbe instead of selecting already-known variables for the oracle —
// the cross-session reuse that session creation alone cannot provide.
func TestNextProbeAppliesConcurrentAnswers(t *testing.T) {
	udb, res, gt := paperSetup(t, 29)
	cfg := Config{Utility: General{}, Learning: LearnOnline, Seed: 9}
	shared := NewRepository()

	a, err := NewSession(udb, res, nil, shared, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSession(udb, res, nil, shared, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Drive a to completion; its answers land in the shared repository.
	for {
		req, done, err := a.NextProbe()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		answer, _ := gt.Val.Get(req.Var)
		if _, err := a.SubmitAnswer(req.Var, answer); err != nil {
			t.Fatal(err)
		}
	}
	// b was created against an empty repository, so none of a's answers
	// were reused at construction; NextProbe must pick them up now and
	// never hand a known variable to the oracle.
	for {
		req, done, err := b.NextProbe()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
		if _, known := shared.Answer(req.Var); known {
			t.Fatalf("NextProbe selected repository-known variable %d", req.Var)
		}
		answer, _ := gt.Val.Get(req.Var)
		if _, err := b.SubmitAnswer(req.Var, answer); err != nil {
			t.Fatal(err)
		}
	}
	// The answers that decided a's expressions decide b's identical ones,
	// so b resolves entirely from the repository.
	if got := b.Stats().Probes; got != 0 {
		t.Errorf("second session probed %d times, want 0 (full reuse)", got)
	}
	if b.Stats().KnownReused == 0 {
		t.Error("no repository reuse recorded")
	}
	out, err := b.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := range out.Answers {
		if want := res.Rows[i].Prov.Eval(gt.Val); out.Answers[i].Correct != want {
			t.Errorf("row %d = %v, ground truth %v", i, out.Answers[i].Correct, want)
		}
	}
}

// TestSubmitAnswerValidation covers the async API's error paths.
func TestSubmitAnswerValidation(t *testing.T) {
	udb, res, gt := paperSetup(t, 5)
	s, err := NewSession(udb, res, nil, NewRepository(), Config{Utility: General{}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitAnswer(0, true); err == nil {
		t.Error("answer with no outstanding probe accepted")
	}
	req, done, err := s.NextProbe()
	if err != nil || done {
		t.Fatalf("NextProbe: done=%v err=%v", done, err)
	}
	if _, err := s.SubmitAnswer(req.Var+1000, true); err == nil {
		t.Error("answer for wrong variable accepted")
	}
	// The session is still usable after rejected submissions.
	if p, ok := s.Pending(); !ok || p.Var != req.Var {
		t.Fatal("pending probe lost after rejected answers")
	}
	answer, _ := gt.Val.Get(req.Var)
	if _, err := s.SubmitAnswer(req.Var, answer); err != nil {
		t.Fatal(err)
	}
	// Step on an oracle-less session fails cleanly (unless already done).
	if !s.Done() {
		if _, _, err := s.Step(); err == nil {
			t.Error("Step without oracle accepted")
		}
	}
}

// TestRecordAdvanceMatchesSubmitAnswer drives one session through
// SubmitAnswer and a twin through its two halves: RecordAnswer (repository
// add only — no retrain, no simplification, same round) and then either
// Advance or, on alternate rounds, a NextProbe that runs the owed Advance
// itself. The twins probe the same sequence and resolve the same rows.
func TestRecordAdvanceMatchesSubmitAnswer(t *testing.T) {
	udb, res, gt := paperSetup(t, 13)
	cfg := Config{Utility: General{}, Learning: LearnOnline, MinTrain: 2, Seed: 5}
	whole, err := NewSession(udb, res, nil, NewRepository(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	repo := NewRepository()
	halves, err := NewSession(udb, res, nil, repo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := halves.Advance(); err == nil {
		t.Error("Advance with nothing recorded accepted")
	}
	for round := 0; ; round++ {
		want, wantDone, err := whole.NextProbe()
		if err != nil {
			t.Fatal(err)
		}
		got, gotDone, err := halves.NextProbe()
		if err != nil {
			t.Fatal(err)
		}
		if gotDone != wantDone || got.Var != want.Var || got.Round != want.Round {
			t.Fatalf("round %d: halves probe %+v (done %t), SubmitAnswer probe %+v (done %t)", round, got, gotDone, want, wantDone)
		}
		if wantDone {
			break
		}
		answer, _ := gt.Val.Get(want.Var)
		if _, err := whole.SubmitAnswer(want.Var, answer); err != nil {
			t.Fatal(err)
		}
		retrains, records := halves.Learner().Retrains(), repo.Len()
		if err := halves.RecordAnswer(got.Var, answer); err != nil {
			t.Fatal(err)
		}
		if repo.Len() != records+1 || halves.Learner().Retrains() != retrains {
			t.Fatalf("round %d: RecordAnswer added %d records and retrained %d times, want 1 and 0",
				round, repo.Len()-records, halves.Learner().Retrains()-retrains)
		}
		if err := halves.RecordAnswer(got.Var, answer); !errors.Is(err, ErrNoProbePending) {
			t.Fatalf("second RecordAnswer = %v, want ErrNoProbePending", err)
		}
		if round%2 == 0 {
			if _, err := halves.Advance(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if whole.Learner().Retrains() == 0 {
		t.Error("no answer retrained the learner")
	}
	if whole.Learner().Retrains() != halves.Learner().Retrains() {
		t.Errorf("retrains: halves %d, SubmitAnswer %d", halves.Learner().Retrains(), whole.Learner().Retrains())
	}
	wantOut, err := whole.Run()
	if err != nil {
		t.Fatal(err)
	}
	gotOut, err := halves.Run()
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantOut.Answers {
		if gotOut.Answers[i] != wantOut.Answers[i] {
			t.Errorf("row %d: halves %+v, SubmitAnswer %+v", i, gotOut.Answers[i], wantOut.Answers[i])
		}
	}
}
