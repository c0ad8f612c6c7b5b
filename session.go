package qres

import (
	"fmt"

	"qres/internal/obs"
	"qres/internal/resolve"
)

// RowStatus is the live resolution status of a result row during an
// interactive session.
type RowStatus uint8

// Row statuses.
const (
	// Unknown: the row's correctness is not yet decided.
	Unknown RowStatus = iota
	// Correct: the row is certainly a ground-truth answer.
	Correct
	// Incorrect: the row is certainly not a ground-truth answer.
	Incorrect
)

// String renders the status.
func (s RowStatus) String() string {
	switch s {
	case Correct:
		return "correct"
	case Incorrect:
		return "incorrect"
	default:
		return "unknown"
	}
}

// Session is a step-wise resolution: the caller controls the probing loop
// and can inspect which rows are already decided after every verification
// — the paper's interactive mode, where partial results stream to the user
// while the oracle works.
type Session struct {
	db      *DB
	res     *Result
	inner   *resolve.Session
	adapter *oracleAdapter
	reg     *obs.Registry
}

// NewSession prepares a step-wise resolution over the query result. orc
// may be nil: the session must then be driven through the asynchronous
// NextProbe/SubmitAnswer pair, with answers delivered from outside (a
// remote expert, a crowd platform); Step returns an error in that mode.
func (db *DB) NewSession(res *Result, orc Oracle, opts ...Option) (*Session, error) {
	o, err := db.buildOptions(opts)
	if err != nil {
		return nil, err
	}
	repo, err := db.repository(o)
	if err != nil {
		return nil, err
	}
	adapter := &oracleAdapter{db: db, inner: orc}
	var innerOracle resolve.Oracle
	if orc != nil {
		innerOracle = adapter
	}
	inner, err := resolve.NewSession(db.udb, res.res, innerOracle, repo, o.cfg)
	if err != nil {
		return nil, err
	}
	return &Session{db: db, res: res, inner: inner, adapter: adapter, reg: o.reg}, nil
}

// Step issues one verification. It returns the verified tuple and whether
// the session finished with this step. When no oracle call was issued —
// the session was already finished, or every remaining row was decided
// without probing — probed is the zero TupleRef.
func (s *Session) Step() (probed TupleRef, done bool, err error) {
	before := len(s.adapter.log)
	v, done, err := s.inner.Step()
	if err != nil {
		return TupleRef{}, done, err
	}
	if len(s.adapter.log) > before {
		if ref, ok := s.db.udb.RefFor(v); ok {
			probed = TupleRef{Table: ref.Relation, Index: ref.Index}
		}
	}
	return probed, done, nil
}

// Probe is an outstanding verification request of the asynchronous
// session API: the tuple the Probe Selector chose, rendered for a remote
// oracle — reference, column values, and the metadata the Learner trains
// on. The oracle answers by calling SubmitAnswer with the same reference.
type Probe struct {
	// Ref identifies the tuple to verify.
	Ref TupleRef
	// Values are the tuple's rendered column values.
	Values []string
	// Meta is the tuple's metadata (including derived attributes).
	Meta map[string]string
}

// NextProbe runs probe selection and parks the session on the chosen
// tuple, returning the verification request without calling any oracle —
// the asynchronous half-step that lets a remote oracle take arbitrarily
// long per answer. Calling NextProbe again before SubmitAnswer returns
// the same outstanding request (the endpoint is idempotent). done=true
// means every row is already decided and no probe is needed.
func (s *Session) NextProbe() (probe Probe, done bool, err error) {
	req, done, err := s.inner.NextProbe()
	if done || err != nil {
		return Probe{}, done, err
	}
	ref, ok := s.db.udb.RefFor(req.Var)
	if !ok {
		return Probe{}, false, fmt.Errorf("qres: probe selected unknown variable %d", req.Var)
	}
	pub := TupleRef{Table: ref.Relation, Index: ref.Index}
	values, _, _ := s.db.Tuple(pub)
	return Probe{Ref: pub, Values: values, Meta: req.Meta}, false, nil
}

// SubmitAnswer delivers the oracle's verdict for the outstanding probe:
// the answer is recorded, the Learner retrains, and the session advances.
// ref must match the reference returned by NextProbe; submitting with no
// probe outstanding or for a different tuple is an error that leaves the
// session untouched.
func (s *Session) SubmitAnswer(ref TupleRef, correct bool) (done bool, err error) {
	v, err := s.db.varFor(ref)
	if err != nil {
		return false, err
	}
	done, err = s.inner.SubmitAnswer(v, correct)
	if err == nil {
		s.adapter.log = append(s.adapter.log, ref)
	}
	return done, err
}

// Done reports whether every row's correctness is decided.
func (s *Session) Done() bool { return s.inner.Done() }

// Status returns the current per-row resolution statuses, one per result
// row, without issuing any probes.
func (s *Session) Status() []RowStatus {
	snap := s.inner.Snapshot()
	out := make([]RowStatus, len(snap))
	for i, st := range snap {
		switch st {
		case resolve.RowCorrect:
			out[i] = Correct
		case resolve.RowIncorrect:
			out[i] = Incorrect
		default:
			out[i] = Unknown
		}
	}
	return out
}

// Probes returns the number of verifications issued so far.
func (s *Session) Probes() int { return s.inner.Stats().Probes }

// Components returns the number of connected components the session's
// undecided provenance splits into. Components share no variables, so each
// is scored by its own shard — a one-component session has one shard —
// and shards are scored concurrently on up to GOMAXPROCS workers.
func (s *Session) Components() int { return s.inner.Components() }

// ComponentSignature fingerprints the session's component structure. Two
// sessions over the same query and repository state share a signature; the
// serving layer uses it to group such sessions onto one shard group.
func (s *Session) ComponentSignature() string { return s.inner.ComponentSignature() }

// Resolution finalizes the session. Calling it before the session is done
// returns ErrSessionNotDone; drive Step (or Finish) to completion first.
func (s *Session) Resolution() (*Resolution, error) {
	if !s.inner.Done() {
		return nil, ErrSessionNotDone
	}
	out, err := s.inner.Run() // no-op loop; collects the outcome
	if err != nil {
		return nil, err
	}
	return s.db.resolution(out.Answers, out.Probes, s.adapter.log, 0, 0), nil
}

// Finish drives the session to completion and returns the resolution.
func (s *Session) Finish() (*Resolution, error) {
	out, err := s.inner.Run()
	if err != nil {
		return nil, err
	}
	return s.db.resolution(out.Answers, out.Probes, s.adapter.log, 0, 0), nil
}
