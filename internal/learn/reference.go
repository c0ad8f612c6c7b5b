package learn

import (
	"math"
	"math/rand"
	"sort"
)

// This file preserves the pre-parallel forest-training implementation —
// one shared sequential RNG, map-based split counting, per-node slice
// allocation — exactly as it shipped before the parallel, warm-started
// substrate. It exists for two reasons: BenchmarkForestFit and
// BenchmarkRetrain measure the current trainer against it (they report
// the speedup over it as a benchmark metric), and the equivalence tests
// use its split search as an independent oracle for the dense-counting
// split search. It is not used by any production path.

// FitForestReference trains a forest with the reference (pre-optimization)
// loop. Because the reference draws every tree's randomness from one
// shared sequential RNG, its ensembles differ from FitForest's per-tree
// streams; it is a cost baseline, not a model-equivalence target.
func FitForestReference(d *Dataset, cfg ForestConfig) *Forest {
	if cfg.Trees <= 0 {
		cfg.Trees = 100
	}
	f := &Forest{nf: d.NumFeatures(), cfg: cfg}
	if d.Len() == 0 {
		return f
	}
	featSample := int(math.Ceil(math.Sqrt(float64(d.NumFeatures()))))
	rng := rand.New(rand.NewSource(cfg.Seed))
	for t := 0; t < cfg.Trees; t++ {
		idx := make([]int, d.Len())
		for i := range idx {
			idx[i] = rng.Intn(d.Len())
		}
		tree := fitTreeReference(d, idx, TreeConfig{
			MaxDepth:      cfg.MaxDepth,
			MinLeaf:       cfg.MinLeaf,
			FeatureSample: featSample,
		}, rng)
		f.trees = append(f.trees, tree)
	}
	return f
}

// fitTreeReference is the reference tree induction entry point.
func fitTreeReference(d *Dataset, indices []int, cfg TreeConfig, rng *rand.Rand) *Tree {
	if len(indices) == 0 {
		return &Tree{leaf: true, prob: 0.5}
	}
	return fitNodeReference(d, indices, cfg, rng, 0, float64(len(indices)))
}

func fitNodeReference(d *Dataset, idx []int, cfg TreeConfig, rng *rand.Rand, depth int, total float64) *Tree {
	pos := 0
	for _, i := range idx {
		if d.Y[i] {
			pos++
		}
	}
	prob := float64(pos) / float64(len(idx))
	if pos == 0 || pos == len(idx) ||
		(cfg.MaxDepth > 0 && depth >= cfg.MaxDepth) ||
		len(idx) < 2*cfg.minLeaf() {
		return &Tree{leaf: true, prob: prob}
	}

	feature, code, gain := bestSplitReference(d, idx, cfg, rng)
	if feature < 0 {
		return &Tree{leaf: true, prob: prob}
	}

	var left, right []int
	for _, i := range idx {
		if d.X[i][feature] == code {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < cfg.minLeaf() || len(right) < cfg.minLeaf() {
		return &Tree{leaf: true, prob: prob}
	}
	return &Tree{
		feature: feature,
		code:    code,
		gain:    gain * float64(len(idx)) / total,
		left:    fitNodeReference(d, left, cfg, rng, depth+1, total),
		right:   fitNodeReference(d, right, cfg, rng, depth+1, total),
	}
}

// bestSplitReference is the map-counting split search the dense bestSplit
// replaced; both must select the same (feature, code, gain).
func bestSplitReference(d *Dataset, idx []int, cfg TreeConfig, rng *rand.Rand) (feature int, code int32, gain float64) {
	nf := d.NumFeatures()
	features := make([]int, nf)
	for i := range features {
		features[i] = i
	}
	if cfg.FeatureSample > 0 && cfg.FeatureSample < nf && rng != nil {
		rng.Shuffle(nf, func(i, j int) { features[i], features[j] = features[j], features[i] })
		features = features[:cfg.FeatureSample]
	}

	posTotal := 0
	for _, i := range idx {
		if d.Y[i] {
			posTotal++
		}
	}
	parent := gini(posTotal, len(idx))

	feature, code, gain = -1, 0, 0
	for _, f := range features {
		type counts struct{ n, pos int }
		byCode := make(map[int32]*counts)
		for _, i := range idx {
			c := d.X[i][f]
			ct := byCode[c]
			if ct == nil {
				ct = &counts{}
				byCode[c] = ct
			}
			ct.n++
			if d.Y[i] {
				ct.pos++
			}
		}
		if len(byCode) < 2 {
			continue
		}
		codes := make([]int32, 0, len(byCode))
		for c := range byCode {
			codes = append(codes, c)
		}
		sort.Slice(codes, func(i, j int) bool { return codes[i] < codes[j] })
		for _, c := range codes {
			ct := byCode[c]
			nl, pl := ct.n, ct.pos
			nr, pr := len(idx)-nl, posTotal-pl
			w := parent -
				(float64(nl)*gini(pl, nl)+float64(nr)*gini(pr, nr))/float64(len(idx))
			if w > gain {
				feature, code, gain = f, c, w
			}
		}
	}
	return feature, code, gain
}
