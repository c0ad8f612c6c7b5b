package resolve

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"qres/internal/boolexpr"
	"qres/internal/obs"
)

// Component-sharded probe selection, the session's one incremental path.
// The workset's connected components share no variables (paper Section
// 6), so each one is scored by its own shard — a per-component candidate
// list, incremental score cache and cached winner — and the Probe Selector
// merges the per-shard argmaxes under the global policy (highest combined
// score, ties to the smallest variable). A one-component workset gets one
// shard. The merge is exact: the full recompute scans all candidates
// ascending and keeps the first maximum, i.e. the smallest variable of the
// global argmax set; that variable lives in some shard, where it is also
// the shard winner, so merging shard winners by (score desc, variable asc)
// returns exactly it. Probe choices are therefore bit-identical to the
// full recompute for any GOMAXPROCS, while wall-clock per round drops to
// the dirty shards' work: a probe delta touches exactly one component,
// every other shard's caches — and, between retrains, its winner — stay
// valid.

// shard is one connected component's share of probe selection.
type shard struct {
	id int
	// exprIDs are the component's expression indices into the session
	// workset, ascending.
	exprIDs []int
	// cands is the shard's ascending candidate list, maintained by probe
	// deltas exactly like the workset's global list.
	cands []boolexpr.Var
	// inc is the shard's incremental score cache, scoped to exprIDs.
	inc *incState
	// winners caches the shard's argmax per score kind. A slot is exact
	// while the shard receives no delta and the Learner does not retrain;
	// selection then skips the shard's scoring entirely.
	winners [numScoreKinds]shardWinner
	// lalBuf is the shard's reused uncertainty-score buffer.
	lalBuf []float64

	// probs/probStats/score/unc are the in-flight state of the current
	// selection round, written only by the goroutine scoring this shard.
	probs              map[boolexpr.Var]float64
	probHits, probMiss int
	scoreStat          scoreStats
	score              func(boolexpr.Var) float64
	unc                []float64
}

// shardWinner is a cached per-shard argmax: the winning variable and its
// combined selector score, tagged with the Learner version it was scored
// under.
type shardWinner struct {
	v     boolexpr.Var
	f     float64
	ver   uint64
	valid bool
}

// scoreKind names the score family a utility uses in a given round; the
// winner cache is keyed on it because the General utility alternates
// families between rounds.
type scoreKind uint8

const (
	kindQValue scoreKind = iota
	kindRO
	kindGeneralFalse
	numScoreKinds
)

// scoreKindFor returns the family util scores with in the given round.
func scoreKindFor(util Utility, round int) (scoreKind, bool) {
	switch util.(type) {
	case QValue:
		return kindQValue, true
	case RO:
		return kindRO, true
	case General:
		if round%2 == 1 {
			return kindRO, true
		}
		return kindGeneralFalse, true
	}
	return 0, false
}

// shardingEligible reports whether this configuration runs sharded
// selection: the incremental path on and a known utility (its score
// families are what the shards cache). Baselines have their own
// strategies and never score through shards.
func (s *Session) shardingEligible() bool {
	if s.cfg.DisableIncremental || s.cfg.Baseline != BaselineNone {
		return false
	}
	_, ok := scoreKindFor(s.cfg.Utility, 0)
	return ok
}

// buildShards materializes one shard per component and the variable→shard
// index. Shard order follows the components' stable order (ascending
// smallest expression index), which the selector merge preserves.
func (s *Session) buildShards(groups [][]int) {
	s.shards = make([]*shard, len(groups))
	s.varShard = make(map[boolexpr.Var]int)
	for id, g := range groups {
		sh := &shard{id: id, exprIDs: g}
		for _, i := range g {
			for v := range s.work.exprVars[i] {
				if _, seen := s.varShard[v]; !seen {
					s.varShard[v] = id
					sh.cands = append(sh.cands, v)
				}
			}
		}
		sort.Slice(sh.cands, func(i, j int) bool { return sh.cands[i] < sh.cands[j] })
		sh.inc = &incState{work: s.work, learner: s.learner, exprIDs: g}
		s.shards[id] = sh
	}
}

// noteDelta reconciles the shard against one probe delta: the probed and
// dropped variables leave the candidate list, the incremental caches mark
// their dirty sets, and every cached winner is invalidated (the winner
// may have been one of the departing variables).
func (sh *shard) noteDelta(d *probeDelta) {
	sh.inc.noteDelta(d)
	sh.dropCand(d.probed)
	for _, u := range d.dropped {
		sh.dropCand(u)
	}
	for k := range sh.winners {
		sh.winners[k].valid = false
	}
}

// dropCand removes v from the shard's sorted candidate list, if present.
func (sh *shard) dropCand(v boolexpr.Var) {
	i := sort.Search(len(sh.cands), func(i int) bool { return sh.cands[i] >= v })
	if i < len(sh.cands) && sh.cands[i] == v {
		sh.cands = append(sh.cands[:i], sh.cands[i+1:]...)
	}
}

// nextSharded is one probe-selection round over the component shards: the
// framework sub-steps 4.1–4.3 run per shard (in parallel across up to
// GOMAXPROCS workers), then the per-shard winners merge under the
// global selector policy.
func (s *Session) nextSharded(u utilityStrategy) (boolexpr.Var, error) {
	kind, _ := scoreKindFor(u.util, s.round)
	ver := s.learner.Version()
	online := s.learner.Mode() == LearnOnline

	// Partition the live shards: a shard whose cached winner is still
	// exact (no delta since it was scored, same model version, same score
	// family, and no per-round uncertainty term) skips scoring and serves
	// every candidate from cache. RO-family rounds always rescore live
	// shards — α couples every score to the global term-weight multiset,
	// so cached combined scores go stale even in clean shards. The scored
	// buffer is reused across rounds: in steady state only the probed
	// component rescans, and this loop must stay O(#shards) with no
	// per-round allocation or it erases the win over the full
	// O(#candidates) scan.
	scored := s.scoredBuf[:0]
	reused, total := 0, 0
	for _, sh := range s.shards {
		if len(sh.cands) == 0 {
			continue
		}
		total += len(sh.cands)
		if w := sh.winners[kind]; kind != kindRO && !online && w.valid && w.ver == ver {
			reused++
			s.stats.ProbCacheHits += len(sh.cands)
			s.stats.ScoreCacheHits += len(sh.cands)
			continue
		}
		scored = append(scored, sh)
	}
	s.scoredBuf = scored
	s.stats.ShardRoundsReused += reused

	// Sub-step 4.1a: probability estimation per shard (Learner).
	s.component(obs.StageLearner, func() {
		forEachShard(len(scored), func(i int) {
			sh := scored[i]
			sh.probs, sh.probHits, sh.probMiss = sh.inc.candidateProbs(sh.cands)
		})
		for _, sh := range scored {
			s.stats.ProbCacheHits += sh.probHits
			s.stats.ProbCacheMisses += sh.probMiss
			s.obs.Count("prob_cache_hits", int64(sh.probHits))
			s.obs.Count("prob_cache_misses", int64(sh.probMiss))
		}
	}, obs.Int("candidates", total), obs.Int("shards", len(scored)))

	// Sub-step 4.2: utility computation per shard. RO-family rounds split
	// in two phases around the global α: every shard first reconciles its
	// weight cache (including decided shards with unreconciled removals,
	// whose stale weights would otherwise pollute the multiset), then α
	// derives from the k-way merged per-shard multisets — bit-identical to
	// the full recompute's multiset, because adjacent gaps depend only on the
	// merged values — and the per-shard score closures share it.
	s.component(obs.StageUtility, func() {
		if kind == kindRO {
			reconcile := scored
			for _, sh := range s.shards {
				if len(sh.cands) == 0 && sh.inc.ro != nil && len(sh.inc.ro.dirtyExprs) > 0 {
					reconcile = append(reconcile, sh)
				}
			}
			forEachShard(len(reconcile), func(i int) {
				sh := reconcile[i]
				sh.scoreStat = sh.inc.roReconcile(sh.cands, sh.probs)
			})
			lists := make([][]float64, 0, len(s.shards))
			for _, sh := range s.shards {
				if sh.inc.ro != nil && len(sh.inc.ro.sorted) > 0 {
					lists = append(lists, sh.inc.ro.sorted)
				}
			}
			alpha := roAlphaFromStats(mergedWeightStats(lists))
			for _, sh := range scored {
				sh.score = sh.inc.roScoreFn(sh.probs, alpha)
			}
		} else {
			forEachShard(len(scored), func(i int) {
				sh := scored[i]
				if kind == kindQValue {
					sh.score, sh.scoreStat = sh.inc.qvalueScores(sh.cands, sh.probs)
				} else {
					sh.score, sh.scoreStat = sh.inc.generalFalseScores(sh.cands, sh.probs)
				}
			})
		}
		for _, sh := range scored {
			s.stats.VarsRescored += sh.scoreStat.rescored
			s.stats.ScoreCacheHits += sh.scoreStat.hits
			s.stats.ScoreCacheMisses += sh.scoreStat.misses
			s.obs.Count("vars_rescored", int64(sh.scoreStat.rescored))
			s.obs.Count("score_cache_hits", int64(sh.scoreStat.hits))
			s.obs.Count("score_cache_misses", int64(sh.scoreStat.misses))
		}
	}, obs.Str("utility", u.util.Name()))

	// Sub-step 4.1b: uncertainty reduction (LAL), online mode only. The
	// per-variable estimate is a pure function of the shared Learner state,
	// so per-shard batches equal one batch over every candidate.
	if online {
		s.component(obs.StageLAL, func() {
			forEachShard(len(scored), func(i int) {
				sh := scored[i]
				sh.lalBuf = s.learner.UncertaintyBatch(sh.cands, sh.lalBuf)
				sh.unc = sh.lalBuf
			})
		})
	}

	// Sub-step 4.3: per-shard argmax (ascending candidates, first maximum
	// kept — the full scan restricted to the shard), then the global
	// merge by (combined score desc, variable asc).
	var best boolexpr.Var
	s.component(obs.StageSelector, func() {
		forEachShard(len(scored), func(i int) {
			sh := scored[i]
			bestScore := 0.0
			first := true
			var bv boolexpr.Var
			for ci, v := range sh.cands {
				unc := 0.0
				if sh.unc != nil {
					unc = sh.unc[ci]
				}
				f := u.combine.Eval(sh.score(v), unc)
				if s.cfg.CostAware {
					f /= s.cost(v)
				}
				if first || f > bestScore {
					bv, bestScore, first = v, f, false
				}
			}
			sh.winners[kind] = shardWinner{v: bv, f: bestScore, ver: ver, valid: true}
			sh.score, sh.unc = nil, nil
		})
		first := true
		var bestF float64
		for _, sh := range s.shards {
			if len(sh.cands) == 0 {
				continue
			}
			w := sh.winners[kind]
			if first || w.f > bestF || (w.f == bestF && w.v < best) {
				best, bestF, first = w.v, w.f, false
			}
		}
	}, obs.Int("shards_scored", len(scored)), obs.Int("shards_reused", reused))
	return best, nil
}

// forEachShard runs fn(i) for i in [0, n) across up to GOMAXPROCS
// workers. fn must write only its own shard's state, which keeps every
// round deterministic for any worker count.
func forEachShard(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// mergedWeightStats is weightStatsSorted over the union of ascending
// multisets, streamed through a binary min-heap of list cursors instead of
// materializing the merge. The (minW, gap) pair equals the single-multiset
// scan bit for bit: both depend only on the merged values in ascending
// order, and ties stream in some order but contribute no gap either way.
func mergedWeightStats(lists [][]float64) (minW, gap float64) {
	pos := make([]int, len(lists))
	heap := make([]int, 0, len(lists)) // list indices, min-heap by current value
	val := func(li int) float64 { return lists[li][pos[li]] }
	down := func(i int) {
		for {
			l, r, sm := 2*i+1, 2*i+2, i
			if l < len(heap) && val(heap[l]) < val(heap[sm]) {
				sm = l
			}
			if r < len(heap) && val(heap[r]) < val(heap[sm]) {
				sm = r
			}
			if sm == i {
				return
			}
			heap[i], heap[sm] = heap[sm], heap[i]
			i = sm
		}
	}
	for li := range lists {
		if len(lists[li]) > 0 {
			heap = append(heap, li)
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		down(i)
	}
	if len(heap) == 0 {
		return 0, 0
	}
	first := true
	var prev float64
	for len(heap) > 0 {
		li := heap[0]
		w := val(li)
		if first {
			minW, first = w, false
		} else if d := w - prev; d > weightGapTolerance && (gap == 0 || d < gap) {
			gap = d
		}
		prev = w
		pos[li]++
		if pos[li] == len(lists[li]) {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		down(0)
	}
	return minW, gap
}

// componentSignature fingerprints the workset's component structure:
// FNV-1a over each component's expression count, variable count and
// smallest variable, in the components' stable order. Sessions over the
// same query and repository state hash identically, which is what groups
// them onto one shard group in serving mode.
func componentSignature(w *workset, groups [][]int) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	put(uint64(len(groups)))
	for _, g := range groups {
		seen := make(map[boolexpr.Var]bool)
		minVar := boolexpr.Var(0)
		for _, i := range g {
			for v := range w.exprVars[i] {
				if !seen[v] {
					seen[v] = true
					if len(seen) == 1 || v < minVar {
						minVar = v
					}
				}
			}
		}
		put(uint64(len(g)))
		put(uint64(len(seen)))
		put(uint64(minVar))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
