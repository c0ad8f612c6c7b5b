package resolve

import (
	"fmt"
	"math/rand"

	"qres/internal/boolexpr"
	"qres/internal/obs"
)

// Strategy selects the next variable to probe among the candidates of the
// current round. The framework instantiations (utility × learning mode ×
// combination function) and the paper's baselines (Random, Greedy,
// LAL-only) all implement it.
type Strategy interface {
	// Name identifies the strategy in reports ("Q-Value+LAL", "Greedy", ...).
	Name() string
	// NeedsCNF reports whether the session must maintain CNFs.
	NeedsCNF() bool
	// next picks one of candidates; candidates is non-empty and sorted.
	next(s *Session, candidates []boolexpr.Var) (boolexpr.Var, error)
}

// randomStrategy probes variables in a random order (baseline).
type randomStrategy struct{ rng *rand.Rand }

func (randomStrategy) Name() string   { return "Random" }
func (randomStrategy) NeedsCNF() bool { return false }
func (r randomStrategy) next(s *Session, candidates []boolexpr.Var) (boolexpr.Var, error) {
	var v boolexpr.Var
	s.component(obs.StageSelector, func() {
		v = candidates[r.rng.Intn(len(candidates))]
	}, obs.Int("candidates", len(candidates)))
	return v, nil
}

// greedyStrategy probes the variable with the most occurrences in the
// (current, simplified) DNF provenance (baseline). It accounts for the
// Boolean structure but ignores probabilities.
type greedyStrategy struct{}

func (greedyStrategy) Name() string   { return "Greedy" }
func (greedyStrategy) NeedsCNF() bool { return false }
func (greedyStrategy) next(s *Session, candidates []boolexpr.Var) (boolexpr.Var, error) {
	var best boolexpr.Var
	s.component(obs.StageSelector, func() {
		counts := make(map[boolexpr.Var]int)
		for _, e := range s.work.exprs {
			if e.Decided() {
				continue
			}
			for _, t := range e.Terms() {
				for _, v := range t {
					counts[v]++
				}
			}
		}
		bestCount := -1
		best = candidates[0]
		for _, v := range candidates {
			if c := counts[v]; c > bestCount {
				best, bestCount = v, c
			}
		}
	}, obs.Int("candidates", len(candidates)))
	return best, nil
}

// lalOnlyStrategy ranks purely by the Learner's uncertainty-reduction
// estimate, i.e. standard active learning with no Boolean-evaluation
// signal (the paper's "LAL only" baseline, which performs poorly).
type lalOnlyStrategy struct{}

func (lalOnlyStrategy) Name() string   { return "LAL only" }
func (lalOnlyStrategy) NeedsCNF() bool { return false }
func (lalOnlyStrategy) next(s *Session, candidates []boolexpr.Var) (boolexpr.Var, error) {
	var scores []float64
	s.component(obs.StageLAL, func() {
		s.lalBuf = s.learner.UncertaintyBatch(candidates, s.lalBuf)
		scores = s.lalBuf
	}, obs.Int("candidates", len(candidates)))
	var best boolexpr.Var
	s.component(obs.StageSelector, func() {
		bestScore := -1.0
		best = candidates[0]
		for i, v := range candidates {
			if scores[i] > bestScore {
				best, bestScore = v, scores[i]
			}
		}
	})
	return best, nil
}

// utilityStrategy is a full framework instantiation: Learner probabilities
// feed a utility function, LAL scores uncertainty reduction, and the Probe
// Selector combines them with a Combine function (Steps 4.1–4.3).
type utilityStrategy struct {
	util    Utility
	combine Combine
}

func (u utilityStrategy) Name() string {
	return fmt.Sprintf("%s+%s", u.util.Name(), "?") // overridden by Session.Name
}

func (u utilityStrategy) NeedsCNF() bool { return u.util.NeedsCNF() }

func (u utilityStrategy) next(s *Session, candidates []boolexpr.Var) (boolexpr.Var, error) {
	// The incremental path: every connected component runs Steps 4.1–4.3
	// on its own shard and the winners merge under the same selector
	// policy (see shard.go).
	if s.shards != nil {
		return s.nextSharded(u)
	}
	// The full recompute below is the incremental path's equivalence
	// oracle (DisableIncremental). Sub-step 4.1a: probability estimation,
	// timed as "Learner".
	var probs map[boolexpr.Var]float64
	s.component(obs.StageLearner, func() {
		probs = make(map[boolexpr.Var]float64, len(candidates))
		for _, v := range candidates {
			probs[v] = s.learner.Prob(v)
		}
		s.stats.ProbCacheMisses += len(candidates)
		s.obs.Count("prob_cache_misses", int64(len(candidates)))
	}, obs.Int("candidates", len(candidates)))

	// Sub-step 4.2: utility computation, timed under the utility's name.
	var scores map[boolexpr.Var]float64
	s.component(obs.StageUtility, func() {
		scores = u.util.Scores(s.work,
			func(v boolexpr.Var) float64 { return probs[v] },
			candidates, s.round)
		s.stats.VarsRescored += len(candidates)
		s.stats.ScoreCacheMisses += len(candidates)
		s.obs.Count("vars_rescored", int64(len(candidates)))
		s.obs.Count("score_cache_misses", int64(len(candidates)))
	}, obs.Str("utility", u.util.Name()))

	// Sub-step 4.1b: uncertainty reduction (LAL), timed separately. The
	// batch call reuses the session's score buffer across rounds and
	// snapshots the repository state once per round; outside online mode
	// the slice stays nil and uncertainty is 0 for every candidate.
	var uncertainty []float64
	if s.learner.Mode() == LearnOnline {
		s.component(obs.StageLAL, func() {
			s.lalBuf = s.learner.UncertaintyBatch(candidates, s.lalBuf)
			uncertainty = s.lalBuf
		})
	}

	// Sub-step 4.3: the Probe Selector combines and picks the argmax,
	// breaking ties by smallest variable for determinism. In cost-aware
	// mode candidates are ranked by score per unit cost (the Section 9
	// extension).
	var best boolexpr.Var
	s.component(obs.StageSelector, func() {
		bestScore := 0.0
		first := true
		for i, v := range candidates {
			unc := 0.0
			if uncertainty != nil {
				unc = uncertainty[i]
			}
			f := u.combine.Eval(scores[v], unc)
			if s.cfg.CostAware {
				f /= s.cost(v)
			}
			if first || f > bestScore {
				best, bestScore, first = v, f, false
			}
		}
	})
	return best, nil
}
