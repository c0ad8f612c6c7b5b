package qres_test

import (
	"errors"
	"testing"

	"qres"
)

// The exported sentinel errors must surface through errors.Is at the
// public API boundary — they are the documented error contract.
func TestSentinelErrors(t *testing.T) {
	db := buildPaperDB(t)
	res, err := db.Query(paperSQL)
	if err != nil {
		t.Fatal(err)
	}
	orc := randomOracle(db, 0.5, 21)
	sess, err := db.NewSession(res, orc, qres.WithStrategy("general"), qres.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}

	if _, err := sess.Resolution(); !errors.Is(err, qres.ErrSessionNotDone) {
		t.Errorf("Resolution before done: %v, want ErrSessionNotDone", err)
	}

	// An unknown tuple in an option must wrap ErrUnknownVariable.
	db2 := buildPaperDB(t)
	res2, _ := db2.Query(paperSQL)
	_, err = db2.Resolve(res2, randomOracle(db2, 0.5, 21),
		qres.WithKnownAnswer(qres.TupleRef{Table: "NoSuchTable", Index: 0}, true))
	if !errors.Is(err, qres.ErrUnknownVariable) {
		t.Errorf("unknown tuple ref: %v, want ErrUnknownVariable", err)
	}

	// Submitting with no probe outstanding: ErrNoProbePending.
	if _, err := sess.SubmitAnswer(qres.TupleRef{Table: "Roles", Index: 0}, true); !errors.Is(err, qres.ErrNoProbePending) {
		t.Errorf("submit with no probe outstanding: %v, want ErrNoProbePending", err)
	}

	// Submitting for a tuple other than the outstanding probe: ErrProbeMismatch.
	probe, done, err := sess.NextProbe()
	if err != nil || done {
		t.Fatalf("NextProbe: done=%t err=%v", done, err)
	}
	other := qres.TupleRef{Table: "Roles", Index: 0}
	if probe.Ref == other {
		other.Index = 1
	}
	if _, err := sess.SubmitAnswer(other, true); !errors.Is(err, qres.ErrProbeMismatch) {
		t.Errorf("submit for wrong tuple: %v, want ErrProbeMismatch", err)
	}
	if _, err := sess.SubmitAnswer(probe.Ref, true); err != nil {
		t.Fatal(err)
	}

	for !sess.Done() {
		if _, _, err := sess.Step(); err != nil {
			t.Fatal(err)
		}
	}
	// Submitting after resolution completes: ErrSessionDone.
	if _, err := sess.SubmitAnswer(probe.Ref, true); !errors.Is(err, qres.ErrSessionDone) {
		t.Errorf("submit after done: %v, want ErrSessionDone", err)
	}
	if _, err := sess.Resolution(); err != nil {
		t.Errorf("Resolution after done: %v", err)
	}
	if sess.Components() < 1 {
		t.Errorf("Components() = %d, want >= 1", sess.Components())
	}
	if sig := sess.ComponentSignature(); len(sig) != 16 {
		t.Errorf("ComponentSignature() = %q, want 16 hex chars", sig)
	}
}
