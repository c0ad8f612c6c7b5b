package qres

import (
	"fmt"
	"strings"

	"qres/internal/boolexpr"
	"qres/internal/obs"
	"qres/internal/resolve"
)

// Oracle verifies individual tuples: Probe must return whether the
// referenced tuple is correct. Implementations wrap domain experts, crowd
// platforms or trusted reference sources. An Oracle used with
// ResolveParallel must be safe for concurrent use.
type Oracle interface {
	Probe(ref TupleRef) (bool, error)
}

// OracleFunc adapts a function to the Oracle interface.
type OracleFunc func(ref TupleRef) (bool, error)

// Probe implements Oracle.
func (f OracleFunc) Probe(ref TupleRef) (bool, error) { return f(ref) }

// options collects resolution settings; see the With* functions.
type options struct {
	cfg       resolve.Config
	known     []knownAnswer
	training  []trainingExample
	costs     []tupleCost
	sinks     []obs.Sink
	reg       *obs.Registry
	repo      *Repository
	strategy  string
	strandErr error
}

type knownAnswer struct {
	ref    TupleRef
	answer bool
}

type tupleCost struct {
	ref  TupleRef
	cost float64
}

type trainingExample struct {
	meta   map[string]string
	answer bool
}

// Option configures a resolution run.
type Option func(*options)

// WithStrategy selects the probe-selection strategy:
//
//	"qvalue"   — the Q-Value utility (needs CNF; large expressions split)
//	"ro"       — the RO utility (likeliest-term targeting)
//	"general"  — the General utility (alternating True/False targeting;
//	             the default, and the paper's most scalable recommendation)
//	"random"   — baseline: random probe order
//	"greedy"   — baseline: most frequent variable first
//	"lal-only" — baseline: pure active learning, no Boolean utility
func WithStrategy(name string) Option {
	return func(o *options) { o.strategy = strings.ToLower(name) }
}

// WithLearning selects how answer probabilities are learned: "ep" (none;
// every probability is 0.5), "offline" (train once on the initial known
// answers), or "online" (retrain after every probe and use LAL-guided
// exploration — the default).
func WithLearning(mode string) Option {
	return func(o *options) {
		switch strings.ToLower(mode) {
		case "ep":
			o.cfg.Learning = resolve.LearnEP
		case "offline":
			o.cfg.Learning = resolve.LearnOffline
		case "online":
			o.cfg.Learning = resolve.LearnOnline
		default:
			o.strandErr = fmt.Errorf("qres: unknown learning mode %q", mode)
		}
	}
}

// WithModel selects the Learner's classifier: "rf" (random forest, the
// default) or "nb" (naive Bayes).
func WithModel(model string) Option {
	return func(o *options) {
		switch strings.ToLower(model) {
		case "rf":
			o.cfg.Model = resolve.ModelRF
		case "nb":
			o.cfg.Model = resolve.ModelNB
		default:
			o.strandErr = fmt.Errorf("qres: unknown model %q", model)
		}
	}
}

// WithTrees sets the random-forest size (default 100).
func WithTrees(n int) Option {
	return func(o *options) { o.cfg.Trees = n }
}

// WithSeed fixes the random seed, making the probe sequence deterministic.
func WithSeed(seed int64) Option {
	return func(o *options) { o.cfg.Seed = seed }
}

// WithSplitBound sets the maximum DNF terms per expression part when
// splitting large provenance expressions (default 8).
func WithSplitBound(maxTerms int) Option {
	return func(o *options) { o.cfg.SplitMaxTerms = maxTerms }
}

// WithoutSplitting disables expression splitting (the "qvalue" strategy
// may then fail on expressions whose CNF is too large).
func WithoutSplitting() Option {
	return func(o *options) { o.cfg.DisableSplitting = true }
}

// WithCost assigns a verification cost to a tuple (default 1.0). Costs
// are always accounted in Resolution.Cost; combined with WithCostAware the
// selector also ranks candidates by score per unit cost, deferring
// expensive verifications when cheaper ones make the same progress.
func WithCost(ref TupleRef, cost float64) Option {
	return func(o *options) { o.costs = append(o.costs, tupleCost{ref: ref, cost: cost}) }
}

// WithCostAware enables cost-aware probe selection (the paper's Section 9
// extension): candidates are ranked by combined score per unit cost.
func WithCostAware() Option {
	return func(o *options) { o.cfg.CostAware = true }
}

// WithKnownAnswer seeds the session with an already-verified tuple: its
// answer is substituted into the provenance before any oracle call and it
// becomes Learner training data.
func WithKnownAnswer(ref TupleRef, correct bool) Option {
	return func(o *options) { o.known = append(o.known, knownAnswer{ref: ref, answer: correct}) }
}

// WithTrainingExample seeds the Learner with a labeled example that is not
// one of this database's tuples (e.g. verification history from other
// datasets): metadata plus the verified correctness.
func WithTrainingExample(meta map[string]string, correct bool) Option {
	return func(o *options) {
		m := make(map[string]string, len(meta))
		for k, v := range meta {
			m[k] = v
		}
		o.training = append(o.training, trainingExample{meta: m, answer: correct})
	}
}

// Resolution is the outcome of a resolution run: the exact ground-truth
// answer and its cost.
type Resolution struct {
	// Probes is the number of oracle verifications issued.
	Probes int
	// CorrectRows are the indices (into the Result) of the rows verified
	// to be ground-truth answers.
	CorrectRows []int
	// Verified maps every row index to its resolved correctness.
	Verified map[int]bool
	// Cost is the total verification cost: the sum of the probed tuples'
	// WithCost values (equal to Probes when no costs were assigned).
	Cost float64
	// ProbedTuples lists the verified tuples in probe order (nil when the
	// oracle wrapper cannot observe ordering, e.g. parallel runs).
	ProbedTuples []TupleRef
	// Components and CriticalPathProbes are set by ResolveParallel.
	Components         int
	CriticalPathProbes int
}

// IsCorrect reports the resolved correctness of a result row.
func (r *Resolution) IsCorrect(row int) bool { return r.Verified[row] }

// buildOptions assembles the internal configuration.
func (db *DB) buildOptions(opts []Option) (*options, error) {
	o := &options{strategy: "general"}
	o.cfg.Learning = resolve.LearnOnline
	for _, opt := range opts {
		opt(o)
	}
	if o.strandErr != nil {
		return nil, o.strandErr
	}
	if len(o.costs) > 0 {
		o.cfg.Costs = make(map[boolexpr.Var]float64, len(o.costs))
		for _, c := range o.costs {
			v, err := db.varFor(c.ref)
			if err != nil {
				return nil, err
			}
			o.cfg.Costs[v] = c.cost
		}
	}
	switch o.strategy {
	case "qvalue", "q-value":
		o.cfg.Utility = resolve.QValue{}
	case "ro":
		o.cfg.Utility = resolve.RO{}
	case "general":
		o.cfg.Utility = resolve.General{}
	case "random":
		o.cfg.Baseline = resolve.BaselineRandom
	case "greedy":
		o.cfg.Baseline = resolve.BaselineGreedy
	case "lal-only", "lalonly":
		o.cfg.Baseline = resolve.BaselineLALOnly
	default:
		return nil, fmt.Errorf("qres: unknown strategy %q", o.strategy)
	}
	// Every run records per-stage timings into its own registry so
	// Session.Metrics works without opting in; trace sinks only attach when
	// WithObserver / WithTrace asked for them.
	o.reg = obs.NewRegistry()
	var sink obs.Sink
	switch len(o.sinks) {
	case 0:
	case 1:
		sink = o.sinks[0]
	default:
		sink = obs.MultiSink(o.sinks)
	}
	o.cfg.Obs = obs.New("", sink, o.reg)
	return o, nil
}

// repository seeds the internal probes repository from options. With
// WithRepository the shared repository is used (and extended) in place;
// otherwise each run gets a private one.
func (db *DB) repository(o *options) (*resolve.Repository, error) {
	repo := resolve.NewRepository()
	if o.repo != nil {
		repo = o.repo.inner
	}
	for _, ex := range o.training {
		repo.Add(ex.meta, ex.answer)
	}
	for _, k := range o.known {
		v, err := db.varFor(k.ref)
		if err != nil {
			return nil, err
		}
		repo.AddVar(v, db.udb.MetaFor(v), k.answer)
	}
	return repo, nil
}

// oracleAdapter bridges the public tuple-level oracle to the internal
// variable-level one.
type oracleAdapter struct {
	db    *DB
	inner Oracle
	log   []TupleRef
}

func (a *oracleAdapter) Probe(v boolexpr.Var) (bool, error) {
	ref, ok := a.db.udb.RefFor(v)
	if !ok {
		return false, fmt.Errorf("qres: oracle asked about unknown variable %d", v)
	}
	pub := TupleRef{Table: ref.Relation, Index: ref.Index}
	answer, err := a.inner.Probe(pub)
	if err != nil {
		return false, err
	}
	a.log = append(a.log, pub)
	return answer, nil
}

// Resolve drives a full resolution session over the query result: it
// selects tuples to verify, calls the oracle, and repeats until every
// output row's correctness is decided. The result's exact ground-truth
// answer set is returned along with the number of verifications used.
func (db *DB) Resolve(res *Result, orc Oracle, opts ...Option) (*Resolution, error) {
	o, err := db.buildOptions(opts)
	if err != nil {
		return nil, err
	}
	repo, err := db.repository(o)
	if err != nil {
		return nil, err
	}
	adapter := &oracleAdapter{db: db, inner: orc}
	sess, err := resolve.NewSession(db.udb, res.res, adapter, repo, o.cfg)
	if err != nil {
		return nil, err
	}
	out, err := sess.Run()
	if err != nil {
		return nil, err
	}
	r := db.resolution(out.Answers, out.Probes, adapter.log, 0, 0)
	r.Cost = out.Stats.Cost
	return r, nil
}

// ResolveParallel resolves variable-disjoint groups of output rows
// concurrently (one independent probe-selection process per group), which
// preserves the total number of verifications while cutting latency to
// roughly the largest group's. The oracle must be safe for concurrent use.
func (db *DB) ResolveParallel(res *Result, orc Oracle, opts ...Option) (*Resolution, error) {
	o, err := db.buildOptions(opts)
	if err != nil {
		return nil, err
	}
	repo, err := db.repository(o)
	if err != nil {
		return nil, err
	}
	adapter := &concurrentAdapter{db: db, inner: orc}
	out, err := resolve.ResolveParallel(db.udb, res.res, adapter, repo, o.cfg)
	if err != nil {
		return nil, err
	}
	r := db.resolution(out.Answers, out.Probes, nil, out.Components, out.CriticalPathProbes)
	r.Cost = out.Stats.Cost
	return r, nil
}

func (db *DB) resolution(answers []resolve.RowAnswer, probes int, log []TupleRef, components, critical int) *Resolution {
	r := &Resolution{
		Probes:             probes,
		Verified:           make(map[int]bool, len(answers)),
		ProbedTuples:       log,
		Components:         components,
		CriticalPathProbes: critical,
	}
	for _, a := range answers {
		r.Verified[a.Row] = a.Correct
		if a.Correct {
			r.CorrectRows = append(r.CorrectRows, a.Row)
		}
	}
	return r
}

// concurrentAdapter is the goroutine-safe variant of oracleAdapter (probe
// ordering is not recorded).
type concurrentAdapter struct {
	db    *DB
	inner Oracle
}

func (a *concurrentAdapter) Probe(v boolexpr.Var) (bool, error) {
	ref, ok := a.db.udb.RefFor(v)
	if !ok {
		return false, fmt.Errorf("qres: oracle asked about unknown variable %d", v)
	}
	return a.inner.Probe(TupleRef{Table: ref.Relation, Index: ref.Index})
}
