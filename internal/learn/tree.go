package learn

import "math/rand"

// TreeConfig controls decision-tree induction.
type TreeConfig struct {
	// MaxDepth bounds tree depth; 0 means unbounded.
	MaxDepth int
	// MinLeaf is the minimum number of examples per leaf (default 1).
	MinLeaf int
	// FeatureSample is the number of features considered per split; 0
	// means all features. Random forests pass ~√d.
	FeatureSample int
}

func (c TreeConfig) minLeaf() int {
	if c.MinLeaf <= 0 {
		return 1
	}
	return c.MinLeaf
}

// Tree is a binary classification tree over categorical features. Inner
// nodes test feature equality (x[feature] == code goes left, everything
// else right), which handles high-cardinality string metadata such as
// entities and sources without an ordinal embedding. Leaves store the
// fraction of positive training examples, so a single tree is already a
// probability estimator.
type Tree struct {
	feature     int
	code        int32
	left, right *Tree
	prob        float64
	leaf        bool
	// gain is the Gini impurity decrease of this split, weighted by the
	// node sample fraction; summed per feature it yields the mean
	// decrease in impurity feature importance (Section 7.4).
	gain float64
}

// columns is the feature-major copy of a dataset that every worker of
// one fit reads: codes[f*n+i] is row i's code of feature f, so counting a
// feature at a node walks one contiguous column instead of chasing a row
// pointer per example.
type columns struct {
	n, nf int
	codes []int32
	y     []bool
	// span[f] is feature f's largest code plus 2: the length of the
	// per-code count range it uses (indexed code+1, Unknown at 0).
	span    []int32
	maxSpan int32
}

func newColumns(d *Dataset) *columns {
	n, nf := d.Len(), d.NumFeatures()
	c := &columns{n: n, nf: nf, codes: make([]int32, n*nf), y: d.Y, span: make([]int32, nf)}
	for i, row := range d.X {
		for f, code := range row {
			c.codes[f*n+i] = code
			c.span[f] = max(c.span[f], code+2)
		}
	}
	for _, s := range c.span {
		c.maxSpan = max(c.maxSpan, s)
	}
	return c
}

func (c *columns) col(f int) []int32 { return c.codes[f*c.n : (f+1)*c.n] }

// grower induces trees over a columns matrix; each worker owns one and
// reuses its buffers across the trees it fits.
//
// A tree's sample is held as multiplicities: w[i] is how often row i was
// drawn and wy[i] is w[i] for positive rows, 0 otherwise. Induction
// recurses over the distinct sampled rows only and weights every count by
// w, so node sizes, Gini gains, tie-breaks, stopping rules and leaf
// probabilities are the same integers and floats an index list with
// repeated rows would give, and the feature shuffles consume the RNG in
// the same pre-order.
type grower struct {
	cols  *columns
	cfg   TreeConfig
	rng   *rand.Rand
	total float64 // sample size; split gains are weighted by cnt/total

	w, wy  []int32
	rows   []int32 // distinct sampled rows, partitioned in place per node
	counts []int32 // weighted per-code counts at a node, indexed code+1 (Unknown lands at 0)
	poss   []int32 // weighted per-code positive counts, same indexing
	seen   []int32 // codes observed at the current node
	feats  []int
}

func newGrower(cols *columns, cfg TreeConfig, rng *rand.Rand) *grower {
	n, nc := cols.n, int(cols.maxSpan)
	rowBuf := make([]int32, 3*n)
	codeBuf := make([]int32, 2*nc)
	return &grower{
		cols:   cols,
		cfg:    cfg,
		rng:    rng,
		w:      rowBuf[:n:n],
		wy:     rowBuf[n : 2*n : 2*n],
		rows:   rowBuf[2*n : 2*n],
		counts: codeBuf[:nc:nc],
		poss:   codeBuf[nc:],
		feats:  make([]int, cols.nf),
	}
}

// bootstrap reseeds g.rng to seed and draws an n-row bootstrap sample
// into g.w, leaving the stream positioned for the tree's feature shuffles.
func (g *grower) bootstrap(seed int64) {
	g.rng.Seed(seed)
	clear(g.w)
	n := g.cols.n
	for k := 0; k < n; k++ {
		g.w[g.rng.Intn(n)]++
	}
}

// fit induces one tree over the sample in g.w, which must be non-empty.
func (g *grower) fit() *Tree {
	rows := g.rows[:0]
	cnt, pos := 0, 0
	for i, m := range g.w {
		if m == 0 {
			continue
		}
		rows = append(rows, int32(i))
		cnt += int(m)
		if g.cols.y[i] {
			g.wy[i] = m
			pos += int(m)
		} else {
			g.wy[i] = 0
		}
	}
	g.total = float64(cnt)
	return g.node(rows, cnt, pos, 0)
}

// FitTree induces a tree from the dataset rows at the given indices
// (repeats count with their multiplicity). rng drives feature
// subsampling; it may be nil when cfg.FeatureSample is 0. The dataset
// must be non-empty and valid. The indices slice is not modified.
func FitTree(d *Dataset, indices []int, cfg TreeConfig, rng *rand.Rand) *Tree {
	if len(indices) == 0 {
		return &Tree{leaf: true, prob: 0.5}
	}
	g := newGrower(newColumns(d), cfg, rng)
	for _, i := range indices {
		g.w[i]++
	}
	return g.fit()
}

// node recursively induces the subtree over rows, a node sample of cnt
// examples (counted with multiplicity), pos of them positive. rows is
// partitioned in place: the left block then the right block.
func (g *grower) node(rows []int32, cnt, pos, depth int) *Tree {
	prob := float64(pos) / float64(cnt)
	minLeaf := g.cfg.minLeaf()
	if pos == 0 || pos == cnt ||
		(g.cfg.MaxDepth > 0 && depth >= g.cfg.MaxDepth) ||
		cnt < 2*minLeaf {
		return &Tree{leaf: true, prob: prob}
	}

	feature, code, gain, nl, pl := g.bestSplit(rows, cnt, pos)
	if feature < 0 || nl < minLeaf || cnt-nl < minLeaf {
		return &Tree{leaf: true, prob: prob}
	}

	// Partition in place, left block first. Order inside a block does
	// not matter: split search sums integer counts and breaks ties by
	// code, never by row order.
	col := g.cols.col(feature)
	k, j := 0, len(rows)-1
	for k <= j {
		if col[rows[k]] == code {
			k++
		} else {
			rows[k], rows[j] = rows[j], rows[k]
			j--
		}
	}
	return &Tree{
		feature: feature,
		code:    code,
		gain:    gain * float64(cnt) / g.total,
		left:    g.node(rows[:k], nl, pl, depth+1),
		right:   g.node(rows[k:], cnt-nl, pos-pl, depth+1),
	}
}

// gini computes the Gini impurity of a (pos, n) class count.
func gini(pos, n int) float64 {
	if n == 0 {
		return 0
	}
	p := float64(pos) / float64(n)
	return 2 * p * (1 - p)
}

// bestSplit searches for the (feature, code) equality split maximizing
// Gini impurity decrease over the node sample, and returns the winning
// left side's weighted size and positive count. With FeatureSample > 0 it
// examines a random feature subset (sampling without replacement), the
// random-forest decorrelation mechanism.
//
// Among equal gains the lowest code wins, as in an ascending scan (tied
// gains would otherwise pick a random winner, making training
// irreproducible under a fixed seed). The selected split is identical to
// the one the map-based reference implementation finds — see
// FitForestReference and the equivalence tests.
func (g *grower) bestSplit(rows []int32, cnt, pos int) (feature int, code int32, gain float64, nl, pl int) {
	nf := g.cols.nf
	features := g.feats[:nf]
	for i := range features {
		features[i] = i
	}
	if g.cfg.FeatureSample > 0 && g.cfg.FeatureSample < nf && g.rng != nil {
		g.rng.Shuffle(nf, func(i, j int) { features[i], features[j] = features[j], features[i] })
		features = features[:g.cfg.FeatureSample]
	}

	parent := gini(pos, cnt)
	counts, poss, w, wy := g.counts, g.poss, g.w, g.wy
	// score is the Gini decrease of sending code c-1 left.
	score := func(c int32) float64 {
		l, lp := int(counts[c]), int(poss[c])
		r, rp := cnt-l, pos-lp
		return parent -
			(float64(l)*gini(lp, l)+float64(r)*gini(rp, r))/float64(cnt)
	}

	feature = -1
	for _, f := range features {
		// Find the feature's best code, the lowest among equal gains (what
		// an ascending scan keeping strict improvements selects), over the
		// distinct codes present at this node, resetting the counts behind.
		col := g.cols.col(f)
		bc, bv, bl, blp, distinct := int32(-1), 0.0, int32(0), int32(0), 0
		consider := func(c int32) {
			if v := score(c); bc < 0 || v > bv || (v == bv && c < bc) {
				bc, bv, bl, blp = c, v, counts[c], poss[c]
			}
			counts[c], poss[c] = 0, 0
		}
		if span := g.cols.span[f]; len(rows) >= int(span) {
			// Dense: walk the feature's whole code range.
			for _, i := range rows {
				c := col[i] + 1
				counts[c] += w[i]
				poss[c] += wy[i]
			}
			for c := int32(0); c < span; c++ {
				if counts[c] != 0 {
					distinct++
					consider(c)
				}
			}
		} else {
			// Sparse: visit only the codes seen at this node.
			seen := g.seen[:0]
			for _, i := range rows {
				c := col[i] + 1
				if counts[c] == 0 {
					seen = append(seen, c)
				}
				counts[c] += w[i]
				poss[c] += wy[i]
			}
			for _, c := range seen {
				consider(c)
			}
			distinct = len(seen)
			g.seen = seen[:0]
		}
		if distinct >= 2 && bv > gain {
			feature, code, gain, nl, pl = f, bc-1, bv, int(bl), int(blp)
		}
	}
	return feature, code, gain, nl, pl
}

// ProbTrue returns the positive-class probability the tree assigns to x.
func (t *Tree) ProbTrue(x []int32) float64 {
	node := t
	for !node.leaf {
		if x[node.feature] == node.code {
			node = node.left
		} else {
			node = node.right
		}
	}
	return node.prob
}

// Predict returns the majority-class prediction for x.
func (t *Tree) Predict(x []int32) bool { return t.ProbTrue(x) >= 0.5 }

// Depth returns the depth of the tree (0 for a single leaf).
func (t *Tree) Depth() int {
	if t.leaf {
		return 0
	}
	l, r := t.left.Depth(), t.right.Depth()
	if l > r {
		return l + 1
	}
	return r + 1
}

// accumulateImportance adds each split's weighted impurity decrease to
// imp[feature].
func (t *Tree) accumulateImportance(imp []float64) {
	if t.leaf {
		return
	}
	imp[t.feature] += t.gain
	t.left.accumulateImportance(imp)
	t.right.accumulateImportance(imp)
}
