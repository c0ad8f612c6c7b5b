package learn

import (
	"math/rand"
	"reflect"
	"testing"

	"qres/internal/datagen"
	"qres/internal/uncertain"
)

// wideDataset builds n rows whose feature 0 has card0 codes (a
// high-cardinality attribute such as an entity name) and whose other
// nf-1 features have 5, with about one code in twenty Unknown. Labels
// follow a noisy rule over features 0 and 1.
func wideDataset(n, nf int, card0 int32, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{}
	for i := 0; i < n; i++ {
		x := make([]int32, nf)
		for f := range x {
			card := int32(5)
			if f == 0 {
				card = card0
			}
			x[f] = rng.Int31n(card)
			if rng.Intn(20) == 0 {
				x[f] = Unknown
			}
		}
		y := x[0]%3 == 0
		if nf > 1 && x[1] < 2 {
			y = !y
		}
		if rng.Float64() < 0.15 {
			y = !y
		}
		d.Add(x, y)
	}
	return d
}

// nellDataset encodes the NELL knowledge base at the benchmark's size and
// data seed (150 athletes, seed 1) the way the Learner does: a fresh
// Encoder over the answered probes' metadata, one row per probe, labelled
// by the hidden ground truth. Up to n probes are drawn in a seeded order.
func nellDataset(n int) *Dataset {
	db := datagen.NELL(datagen.NELLConfig{Athletes: 150, Seed: 1})
	gt := uncertain.GenerateRDT(db, 4, 1)
	vars := db.AllVars()
	rand.New(rand.NewSource(1)).Shuffle(len(vars), func(i, j int) { vars[i], vars[j] = vars[j], vars[i] })
	vars = vars[:min(n, len(vars))]
	metas := make([]map[string]string, len(vars))
	for i, v := range vars {
		metas[i] = db.MetaFor(v)
	}
	enc := NewEncoder(metas)
	d := &Dataset{}
	for i, v := range vars {
		ans, _ := gt.Val.Get(v)
		d.Add(enc.Encode(metas[i]), ans)
	}
	return d
}

// inductionDatasets is the table the oracle property tests sweep.
func inductionDatasets() map[string]*Dataset {
	return map[string]*Dataset{
		"wide230x5":  wideDataset(400, 5, 230, 1),
		"wide210x3":  wideDataset(250, 3, 210, 2),
		"random6x9":  randomDataset(300, 6, 9, 3),
		"random2x4":  randomDataset(120, 2, 4, 4), // √2 rounds up to 2: no feature sampling
		"random1x7":  randomDataset(60, 1, 7, 5),
		"tiny":       randomDataset(3, 4, 3, 6),
		"nell":       nellDataset(450),
		"nell-small": nellDataset(150),
	}
}

// TestFitForestMatchesOracle checks that multiplicity-weighted,
// column-major induction builds exactly the trees the index-based oracle
// builds, for every tree-shape setting and worker count.
func TestFitForestMatchesOracle(t *testing.T) {
	for name, d := range inductionDatasets() {
		for _, minLeaf := range []int{1, 3} {
			for _, maxDepth := range []int{0, 4} {
				cfg := ForestConfig{Trees: 12, MinLeaf: minLeaf, MaxDepth: maxDepth, Seed: 17}
				want := fitForestOracle(d, cfg)
				for _, w := range workerCounts {
					cfg.Workers = w
					got := FitForest(d, cfg)
					if !reflect.DeepEqual(got.trees, want) {
						t.Fatalf("%s MinLeaf=%d MaxDepth=%d Workers=%d: trees differ from the oracle",
							name, minLeaf, maxDepth, w)
					}
				}
			}
		}
	}
}

// TestFitTreeMatchesOracle checks FitTree against the oracle on index
// lists with duplicates (bootstrap draws), without duplicates, and with
// feature sampling on and off.
func TestFitTreeMatchesOracle(t *testing.T) {
	for name, d := range inductionDatasets() {
		n := d.Len()
		rng := rand.New(rand.NewSource(int64(n)))
		draws := make([]int, n+n/2)
		for i := range draws {
			draws[i] = rng.Intn(n)
		}
		samples := map[string][]int{
			"draws":  draws,
			"perm":   rng.Perm(n)[:max(1, n/2)],
			"repeat": {0, 0, 0, n - 1, n - 1},
		}
		for sname, idx := range samples {
			for _, fs := range []int{0, 2} {
				for _, minLeaf := range []int{1, 3} {
					for _, maxDepth := range []int{0, 4} {
						cfg := TreeConfig{MaxDepth: maxDepth, MinLeaf: minLeaf, FeatureSample: fs}
						keep := append([]int(nil), idx...)
						got := FitTree(d, idx, cfg, rand.New(rand.NewSource(9)))
						want := fitTreeOracle(d, idx, cfg, rand.New(rand.NewSource(9)))
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s/%s FeatureSample=%d MinLeaf=%d MaxDepth=%d: tree differs from the oracle",
								name, sname, fs, minLeaf, maxDepth)
						}
						if !reflect.DeepEqual(idx, keep) {
							t.Fatalf("%s/%s: FitTree modified its indices", name, sname)
						}
					}
				}
			}
		}
	}
}

// TestFitForestMatchesOracleRandom sweeps many small random datasets and
// seeds, so that ties, pure nodes and single-code features all occur.
func TestFitForestMatchesOracleRandom(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n, nf := 2+rng.Intn(80), 1+rng.Intn(6)
		d := randomDataset(n, nf, int32(2+rng.Intn(12)), int64(trial))
		cfg := ForestConfig{Trees: 6, MinLeaf: 1 + 2*rng.Intn(2), MaxDepth: 4 * rng.Intn(2), Seed: int64(trial)}
		want := fitForestOracle(d, cfg)
		cfg.Workers = workerCounts[trial%len(workerCounts)]
		if got := FitForest(d, cfg); !reflect.DeepEqual(got.trees, want) {
			t.Fatalf("trial %d (n=%d nf=%d %+v): trees differ from the oracle", trial, n, nf, cfg)
		}
	}
}
