package resolve

import (
	"sort"

	"qres/internal/boolexpr"
)

// scoreStats reports one scoring call's cache behaviour: how many
// candidate variables were actually rescored (cache misses) and how many
// kept their cached score.
type scoreStats struct {
	rescored int
	hits     int
	misses   int
}

// incState is one component shard's incremental scoring state: caches of
// probability estimates and per-variable utility aggregates that survive
// across probe-selection rounds and are reconciled against probe deltas
// instead of being rebuilt. All caches key on two invariants:
//
//   - Learner.Prob is a pure function of the variable while the Learner's
//     Version is unchanged, so probabilities (and everything derived from
//     them) stay valid until the model retrains — at which point every
//     cache is dropped wholesale. EP, KnownProbs and offline learners keep
//     one version for the whole session; online learning retrains per
//     probe, degrading gracefully to the full recompute it is anyway
//     equivalent to.
//   - Simplification never introduces variables, so the candidate set only
//     shrinks and cache keys are maintained purely by deletions driven by
//     probeDelta.
//
// Per utility the cached aggregate is exactly the expensive part of the
// full recompute, evaluated with the same shared helpers (qvalueVarScore,
// termWeight, weightStatsSorted, ...) in the same operation order, which
// is what makes incremental scores bit-identical to the full path.
type incState struct {
	work    *workset
	learner *Learner

	// exprIDs scopes full-scan cache builds to the shard's component.
	// Delta reconciliation needs no scoping — the session routes each
	// delta to the one shard whose component it touches.
	exprIDs []int

	// ver is the Learner version the caches were built against; haveVer
	// distinguishes "version 0" from "never initialized".
	ver     uint64
	haveVer bool

	// probs caches Learner.Prob per candidate; probsComplete records that
	// it covers the whole candidate set, which then only shrinks (noteDelta
	// deletes exactly the variables leaving), so later rounds skip the
	// per-candidate miss scan entirely.
	probs         map[boolexpr.Var]float64
	probsComplete bool

	// qv caches the Q-Value Formula (1) score per candidate; qvDirty are
	// the variables whose entries must be recomputed before use.
	qv      map[boolexpr.Var]float64
	qvDirty map[boolexpr.Var]bool

	// tc caches the undecided-term occurrence count per variable (the sum
	// of the General utility's Formula (3)); tcDirty as above. Counts are
	// integers, so incremental maintenance is exact by construction.
	tc      map[boolexpr.Var]int
	tcDirty map[boolexpr.Var]bool

	// ro caches the Formula (2) term-weight structures.
	ro *roCache
}

// roCache is the incremental state of Formula (2): per-expression term
// weights, the global sorted weight multiset sizing α, and each variable's
// best (maximum) containing-term weight.
type roCache struct {
	// weights maps an undecided expression index to its per-term weights,
	// aligned with Expr.Terms().
	weights map[int][]float64
	// sorted is the ascending multiset of every undecided term's weight —
	// the input of weightStatsSorted, maintained by binary-search
	// insertion and removal instead of a full re-sort.
	sorted []float64
	// bestW is each candidate's maximum containing-term weight.
	bestW map[boolexpr.Var]float64

	dirtyExprs map[int]bool
	dirtyVars  map[boolexpr.Var]bool
}

// eachUndecided visits the shard's undecided expressions in ascending
// index order.
func (inc *incState) eachUndecided(fn func(i int, e boolexpr.Expr)) {
	for _, i := range inc.exprIDs {
		if e := inc.work.exprs[i]; !e.Decided() {
			fn(i, e)
		}
	}
}

// noteDelta reconciles the cache key sets against one probe delta, eagerly:
// the probed and dropped variables leave every cache, variables whose
// surroundings changed are marked dirty, and touched expressions are queued
// for weight refresh. Value recomputation is deferred to the next scoring
// call (lazily, so several deltas between scoring rounds — e.g. a burst of
// repository-known answers — coalesce into one reconcile pass).
func (inc *incState) noteDelta(d *probeDelta) {
	gone := func(v boolexpr.Var) {
		delete(inc.probs, v)
		delete(inc.qv, v)
		delete(inc.qvDirty, v)
		delete(inc.tc, v)
		delete(inc.tcDirty, v)
		if inc.ro != nil {
			delete(inc.ro.bestW, v)
			delete(inc.ro.dirtyVars, v)
		}
	}
	for _, u := range d.affected {
		if inc.qv != nil {
			inc.qvDirty[u] = true
		}
		if inc.tc != nil {
			inc.tcDirty[u] = true
		}
		if inc.ro != nil {
			inc.ro.dirtyVars[u] = true
		}
	}
	if inc.ro != nil {
		for _, i := range d.touched {
			inc.ro.dirtyExprs[i] = true
		}
	}
	gone(d.probed)
	for _, u := range d.dropped {
		gone(u)
	}
}

// ensureVersion drops every cache when the Learner's model has moved since
// they were built. While the version is unchanged the caches stay valid,
// because Prob is then a pure function of the variable.
func (inc *incState) ensureVersion() {
	v := inc.learner.Version()
	if inc.haveVer && v == inc.ver {
		return
	}
	inc.ver, inc.haveVer = v, true
	inc.probs, inc.probsComplete = nil, false
	inc.qv, inc.qvDirty = nil, nil
	inc.tc, inc.tcDirty = nil, nil
	inc.ro = nil
}

// candidateProbs returns the Learner's probability estimates for the
// candidates, serving unchanged variables from the cache. The returned map
// is the cache itself; callers must treat it as read-only for the round.
func (inc *incState) candidateProbs(candidates []boolexpr.Var) (probs map[boolexpr.Var]float64, hits, misses int) {
	inc.ensureVersion()
	if inc.probsComplete {
		return inc.probs, len(candidates), 0
	}
	inc.probs = make(map[boolexpr.Var]float64, len(candidates))
	// One batch prediction (one model snapshot, batched forest traversal);
	// the floats equal per-call Prob exactly.
	vals := make([]float64, len(candidates))
	inc.learner.ProbBatch(candidates, vals)
	for i, v := range candidates {
		inc.probs[v] = vals[i]
	}
	inc.probsComplete = true
	return inc.probs, 0, len(candidates)
}

// qvalueScores maintains the per-variable Formula (1) cache: dirty
// variables are rescored with the same qvalueVarScore the full path uses;
// everything else keeps its cached score.
func (inc *incState) qvalueScores(candidates []boolexpr.Var, probs map[boolexpr.Var]float64) (func(boolexpr.Var) float64, scoreStats) {
	var st scoreStats
	if inc.qv == nil {
		inc.qv = make(map[boolexpr.Var]float64, len(candidates))
		inc.qvDirty = make(map[boolexpr.Var]bool)
		for _, v := range candidates {
			inc.qv[v] = qvalueVarScore(inc.work, v, probs[v])
		}
		st.rescored, st.misses = len(candidates), len(candidates)
	} else if len(inc.qvDirty) > 0 {
		for v := range inc.qvDirty {
			inc.qv[v] = qvalueVarScore(inc.work, v, probs[v])
		}
		st.rescored, st.misses = len(inc.qvDirty), len(inc.qvDirty)
		clear(inc.qvDirty)
	}
	st.hits = len(candidates) - st.misses
	qv := inc.qv
	return func(v boolexpr.Var) float64 { return qv[v] }, st
}

// generalFalseScores maintains the Formula (3) term-occurrence cache and
// derives the round's scores from it. The occurrence counts are exact
// integers, so the delta-maintained counts match the full scan bit for bit.
func (inc *incState) generalFalseScores(candidates []boolexpr.Var, probs map[boolexpr.Var]float64) (func(boolexpr.Var) float64, scoreStats) {
	var st scoreStats
	if inc.tc == nil {
		inc.tc = make(map[boolexpr.Var]int, len(candidates))
		inc.tcDirty = make(map[boolexpr.Var]bool)
		inc.eachUndecided(func(_ int, e boolexpr.Expr) {
			for _, t := range e.Terms() {
				for _, x := range t {
					inc.tc[x]++
				}
			}
		})
		st.rescored, st.misses = len(candidates), len(candidates)
	} else if len(inc.tcDirty) > 0 {
		for v := range inc.tcDirty {
			inc.tc[v] = termOccurrences(inc.work, v)
		}
		st.rescored, st.misses = len(inc.tcDirty), len(inc.tcDirty)
		clear(inc.tcDirty)
	}
	st.hits = len(candidates) - st.misses
	tc := inc.tc
	return func(v boolexpr.Var) float64 { return generalFalseScore(probs[v], tc[v]) }, st
}

// roReconcile maintains the Formula (2) caches: touched expressions refresh
// their term weights in the sorted multiset, dirty variables recompute
// their best containing-term weight. The final combine is roScoreFn's,
// because α must come from the k-way merge of every shard's multiset
// rather than one shard's own.
func (inc *incState) roReconcile(candidates []boolexpr.Var, probs map[boolexpr.Var]float64) scoreStats {
	inc.ensureVersion()
	prob := func(v boolexpr.Var) float64 { return probs[v] }
	var st scoreStats
	if inc.ro == nil {
		c := &roCache{
			weights:    make(map[int][]float64),
			bestW:      make(map[boolexpr.Var]float64, len(candidates)),
			dirtyExprs: make(map[int]bool),
			dirtyVars:  make(map[boolexpr.Var]bool),
		}
		inc.eachUndecided(func(i int, e boolexpr.Expr) {
			terms := e.Terms()
			ws := make([]float64, len(terms))
			for ti, t := range terms {
				w := termWeight(t, prob)
				ws[ti] = w
				for _, x := range t {
					if w > c.bestW[x] {
						c.bestW[x] = w
					}
				}
			}
			c.weights[i] = ws
			c.sorted = append(c.sorted, ws...)
		})
		sort.Float64s(c.sorted)
		inc.ro = c
		st.rescored, st.misses = len(candidates), len(candidates)
	} else {
		c := inc.ro
		if len(c.dirtyExprs) > 0 {
			for i := range c.dirtyExprs {
				for _, w := range c.weights[i] {
					c.sorted = removeSortedFloat(c.sorted, w)
				}
				delete(c.weights, i)
				e := inc.work.exprs[i]
				if e.Decided() {
					continue
				}
				terms := e.Terms()
				ws := make([]float64, len(terms))
				for ti, t := range terms {
					ws[ti] = termWeight(t, prob)
					c.sorted = insertSortedFloat(c.sorted, ws[ti])
				}
				c.weights[i] = ws
			}
			clear(c.dirtyExprs)
		}
		if len(c.dirtyVars) > 0 {
			for v := range c.dirtyVars {
				var b float64
				for _, ei := range inc.work.exprsWith(v) {
					ws := c.weights[ei]
					for ti, t := range inc.work.exprs[ei].Terms() {
						if t.Contains(v) && ws[ti] > b {
							b = ws[ti]
						}
					}
				}
				c.bestW[v] = b
			}
			st.rescored, st.misses = len(c.dirtyVars), len(c.dirtyVars)
			clear(c.dirtyVars)
		}
	}
	st.hits = len(candidates) - st.misses
	return st
}

// roScoreFn is Formula (2)'s final combine, (1−π̃) + α·(W+ε), over the
// reconciled best-weight cache. α arrives as an argument so shards can
// share the globally derived value.
func (inc *incState) roScoreFn(probs map[boolexpr.Var]float64, alpha float64) func(boolexpr.Var) float64 {
	bestW := inc.ro.bestW
	return func(v boolexpr.Var) float64 { return roVarScore(probs[v], bestW[v], alpha) }
}

// insertSortedFloat inserts x into the ascending slice by binary search.
func insertSortedFloat(xs []float64, x float64) []float64 {
	i := sort.SearchFloat64s(xs, x)
	xs = append(xs, 0)
	copy(xs[i+1:], xs[i:])
	xs[i] = x
	return xs
}

// removeSortedFloat removes one occurrence of x from the ascending slice.
// x is always present: the multiset holds exactly the weights previously
// inserted for live expressions, and term weights are recomputed with the
// same bit-identical termWeight that produced them.
func removeSortedFloat(xs []float64, x float64) []float64 {
	i := sort.SearchFloat64s(xs, x)
	return append(xs[:i], xs[i+1:]...)
}
