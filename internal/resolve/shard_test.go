package resolve

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"qres/internal/boolexpr"
	"qres/internal/engine"
	"qres/internal/oracle"
	"qres/internal/table"
	"qres/internal/uncertain"
)

// multiComponentWorkload builds a synthetic workset of `comps` connected
// components: each component draws its variables from a private range, so
// the union-find split is exactly `comps` groups. Rows interleave the
// components (row i belongs to component i%comps), exercising grouping of
// non-contiguous expression indices.
func multiComponentWorkload(t testing.TB, comps, varsPer, exprsPer, maxTerms, maxTermSize int, seed int64) (*uncertain.DB, *engine.Result) {
	t.Helper()
	db := table.NewDatabase()
	rel := table.NewRelation("facts", table.NewSchema(table.Column{Name: "id", Kind: table.KindInt}))
	rng := rand.New(rand.NewSource(seed))
	nvars := comps * varsPer
	for i := 0; i < nvars; i++ {
		rel.MustAppend(table.Tuple{table.Int(int64(i))},
			table.Metadata{"source": fmt.Sprintf("src-%d", i%5)})
	}
	db.MustAdd(rel)
	udb := uncertain.New(db)

	res := &engine.Result{Columns: []engine.OutCol{{Name: "id", Kind: table.KindInt}}}
	for i := 0; i < comps*exprsPer; i++ {
		c := i % comps
		nt := 1 + rng.Intn(maxTerms)
		terms := make([]boolexpr.Term, 0, nt)
		for j := 0; j < nt; j++ {
			size := 1 + rng.Intn(maxTermSize)
			vars := make([]boolexpr.Var, 0, size)
			for k := 0; k < size; k++ {
				vars = append(vars, boolexpr.Var(c*varsPer+rng.Intn(varsPer)))
			}
			terms = append(terms, boolexpr.NewTerm(vars...))
		}
		res.Rows = append(res.Rows, engine.Row{
			Tuple: table.Tuple{table.Int(int64(i))},
			Prov:  boolexpr.NewExpr(terms...),
		})
	}
	return udb, res
}

// The incremental path — one shard per connected component — must be
// invisible: for every utility and learning mode, the probe sequence and
// the resolved answer set must be bit-identical to the full recompute
// (DisableIncremental), on multi-component worksets and on a
// one-component workset, which gets exactly one shard. The shard pool
// sizes itself from GOMAXPROCS, so worker-count coverage comes from
// running this test under -cpu=1,2,4,8.
func TestShardEquivalenceSynthetic(t *testing.T) {
	workloads := []struct {
		name                     string
		comps, varsPer, exprsPer int
		oneComponent             bool
		trial                    int64
	}{
		{name: "multi/trial0", comps: 5, varsPer: 12, exprsPer: 4, trial: 0},
		{name: "multi/trial1", comps: 5, varsPer: 12, exprsPer: 4, trial: 1},
		{name: "one-component", comps: 1, varsPer: 12, exprsPer: 16, oneComponent: true, trial: 2},
	}
	for _, wl := range workloads {
		udb, res := multiComponentWorkload(t, wl.comps, wl.varsPer, wl.exprsPer, 4, 3, 5000+wl.trial)
		gt := uncertain.GenerateFixed(udb, 0.5, 5100+wl.trial)

		known := make(map[boolexpr.Var]float64)
		for _, v := range res.UniqueVars() {
			known[v] = 0.1 + 0.8*float64(int(v)%7)/6
		}
		seedRepo := NewRepository()
		n := 0
		for _, v := range res.UniqueVars() {
			if n >= 25 {
				break
			}
			if int(v)%3 == 0 {
				ans, _ := gt.Val.Get(v)
				seedRepo.AddVar(v, udb.MetaFor(v), ans)
				n++
			}
		}

		base := []Config{
			{Utility: QValue{}, Learning: LearnEP, CNFClauseBound: 256},
			{Utility: RO{}, Learning: LearnEP},
			{Utility: General{}, Learning: LearnEP},
			{Utility: General{}, KnownProbs: known},
			{Utility: RO{}, KnownProbs: known},
			{Utility: General{}, Learning: LearnOffline, Trees: 10},
			{Utility: General{}, Learning: LearnOnline, Trees: 5},
		}
		for _, cfg := range base {
			cfg.Seed = wl.trial
			name := fmt.Sprintf("%s/%s", wl.name, cfg.Name())

			run := func(disable bool) ([]boolexpr.Var, []RowStatus, *Session) {
				c := cfg
				c.DisableIncremental = disable
				rec := oracle.NewRecorder(oracle.NewGroundTruth(gt.Val))
				sess, err := NewSession(udb, res, rec, seedRepo.Clone(), c)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if _, err := sess.Run(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				return rec.Probes(), sess.Snapshot(), sess
			}

			fullProbes, fullSnap, full := run(true)
			if full.shards != nil {
				t.Fatalf("%s: DisableIncremental session built shards", name)
			}
			probes, snap, sess := run(false)
			switch {
			case wl.oneComponent && sess.Components() != 1:
				t.Fatalf("%s: workload has %d components; need exactly 1", name, sess.Components())
			case !wl.oneComponent && sess.Components() < 2:
				t.Fatalf("%s: workload has %d components; need >= 2", name, sess.Components())
			case len(sess.shards) != sess.Components():
				t.Fatalf("%s: %d shards for %d components", name, len(sess.shards), sess.Components())
			}
			if !reflect.DeepEqual(fullProbes, probes) {
				t.Fatalf("%s: probe sequence diverged\nfull:  %v\nshard: %v", name, fullProbes, probes)
			}
			if !reflect.DeepEqual(fullSnap, snap) {
				t.Fatalf("%s: answer set diverged", name)
			}
		}
	}
}

// Between Learner retrains, a shard untouched by probe deltas must serve
// its round from the cached winner: whole rounds skip scoring entirely.
func TestShardWinnerReuse(t *testing.T) {
	udb, res := multiComponentWorkload(t, 6, 10, 4, 3, 3, 7000)
	gt := uncertain.GenerateFixed(udb, 0.5, 7001)
	for _, cfg := range []Config{
		{Utility: QValue{}, Learning: LearnEP, CNFClauseBound: 256},
		{Utility: General{}, Learning: LearnEP},
	} {
		sess, err := NewSession(udb, res, oracle.NewGroundTruth(gt.Val), nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Run(); err != nil {
			t.Fatal(err)
		}
		if sess.shards == nil {
			t.Fatalf("%s: sharding did not engage", cfg.Name())
		}
		if sess.Stats().ShardRoundsReused == 0 {
			t.Errorf("%s: no shard round was served from a cached winner", cfg.Name())
		}
	}
}

// Sharded sessions sharing one repository must be race-free: answers
// recorded by one session flow into the others mid-flight, reconciling
// shard caches concurrently with repository writes. Run with -race.
func TestShardConcurrentSharedRepository(t *testing.T) {
	udb, res := multiComponentWorkload(t, 5, 12, 4, 3, 3, 8000)
	gt := uncertain.GenerateFixed(udb, 0.5, 8001)
	repo := NewRepository()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := Config{Utility: General{}, Learning: LearnEP, Seed: int64(i)}
			if i%2 == 0 {
				cfg.Utility = RO{}
			}
			sess, err := NewSession(udb, res, oracle.NewGroundTruth(gt.Val), repo, cfg)
			if err != nil {
				errs <- err
				return
			}
			// Later sessions may find the workset partly (or fully) decided
			// by earlier ones' repository answers, so sharding engaging is
			// timing-dependent here; the point is race-freedom under -race.
			if _, err := sess.Run(); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	want := groundTruthAnswer(res, gt.Val)
	sess, err := NewSession(udb, res, oracle.NewGroundTruth(gt.Val), repo,
		Config{Utility: General{}, Learning: LearnEP, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	out, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range out.Answers {
		if a.Correct != want[a.Row] {
			t.Errorf("row %d resolved %t, want %t", a.Row, a.Correct, want[a.Row])
		}
	}
}

// Configurations outside the sharded path's contract must fall back to
// the full recompute — and still resolve correctly.
func TestShardIneligibleConfigs(t *testing.T) {
	udb, res := multiComponentWorkload(t, 4, 10, 3, 3, 3, 8100)
	gt := uncertain.GenerateFixed(udb, 0.5, 8101)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"baseline random", Config{Baseline: BaselineRandom}},
		{"incremental off", Config{Utility: General{}, Learning: LearnEP, DisableIncremental: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sess, err := NewSession(udb, res, oracle.NewGroundTruth(gt.Val), nil, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if sess.shards != nil {
				t.Fatal("ineligible config built shards")
			}
			if _, err := sess.Run(); err != nil {
				t.Fatal(err)
			}
			want := groundTruthAnswer(res, gt.Val)
			for i, st := range sess.Snapshot() {
				wantSt := RowIncorrect
				if want[i] {
					wantSt = RowCorrect
				}
				if st != wantSt {
					t.Errorf("row %d status %v, want %v", i, st, wantSt)
				}
			}
		})
	}
}

// The component signature must be a pure function of the workset's
// component structure: identical across sessions over the same query and
// repository state, different when the structure differs.
func TestShardComponentSignature(t *testing.T) {
	udb, res := multiComponentWorkload(t, 5, 12, 4, 3, 3, 8200)
	gt := uncertain.GenerateFixed(udb, 0.5, 8201)
	cfg := Config{Utility: General{}, Learning: LearnEP}

	mk := func(r *engine.Result) *Session {
		sess, err := NewSession(udb, r, oracle.NewGroundTruth(gt.Val), nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	a, b := mk(res), mk(res)
	if a.ComponentSignature() == "" || len(a.ComponentSignature()) != 16 {
		t.Fatalf("malformed signature %q", a.ComponentSignature())
	}
	if a.ComponentSignature() != b.ComponentSignature() {
		t.Errorf("same workload, different signatures: %s vs %s",
			a.ComponentSignature(), b.ComponentSignature())
	}
	// Each variable block yields at least one component; sparse random
	// draws inside a block may split it further.
	if a.Components() < 5 {
		t.Errorf("Components() = %d, want >= 5", a.Components())
	}

	udb2, res2 := multiComponentWorkload(t, 3, 12, 4, 3, 3, 8200)
	sess2, err := NewSession(udb2, res2, oracle.NewGroundTruth(gt.Val), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sess2.ComponentSignature() == a.ComponentSignature() {
		t.Error("structurally different worksets share a signature")
	}
}

// The k-way merged weight statistics must equal the single-multiset scan
// over the concatenation — including duplicate weights across shards and
// sub-tolerance gaps.
func TestShardMergedWeightStats(t *testing.T) {
	cases := []struct {
		name  string
		lists [][]float64
	}{
		{"empty", nil},
		{"one list", [][]float64{{0.1, 0.5, 0.9}}},
		{"disjoint", [][]float64{{0.1, 0.4}, {0.2, 0.3}, {0.05}}},
		{"duplicates across lists", [][]float64{{0.2, 0.2, 0.7}, {0.2, 0.7}}},
		{"tiny gaps", [][]float64{{0.3, 0.3 + 1e-13}, {0.3 + 2e-13, 0.5}}},
		{"some empty", [][]float64{{}, {0.6, 0.8}, {}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var all []float64
			for _, l := range tc.lists {
				all = append(all, l...)
			}
			sort.Float64s(all)
			wantMin, wantGap := weightStatsSorted(all)
			gotMin, gotGap := mergedWeightStats(tc.lists)
			if gotMin != wantMin || gotGap != wantGap {
				t.Errorf("mergedWeightStats = (%v, %v), want (%v, %v)",
					gotMin, gotGap, wantMin, wantGap)
			}
		})
	}
}

// BenchmarkShardStepSynthetic measures per-probe wall time on a wide
// multi-component synthetic workset, the full recompute (the oracle)
// versus the sharded incremental path. With a stable Learner version and a
// cacheable score kind every round, the full path rescores every candidate
// per probe while the sharded path rescans only the probed component and
// serves the rest from cached winners. The shard pool sizes itself from
// GOMAXPROCS: run with -cpu=1,2,4,8 for the worker curve.
func BenchmarkShardStepSynthetic(b *testing.B) {
	udb, res := multiComponentWorkload(b, 400, 12, 5, 5, 2, 9000)
	gt := uncertain.GenerateFixed(udb, 0.5, 9100)
	known := make(map[boolexpr.Var]float64)
	for _, v := range res.UniqueVars() {
		known[v] = 0.1 + 0.8*float64(int(v)%7)/6
	}

	modes := []struct {
		name   string
		mutate func(*Config)
	}{
		{"full", func(c *Config) { c.DisableIncremental = true }},
		{"sharded", func(c *Config) {}},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			cfg := Config{Utility: QValue{}, KnownProbs: known, CNFClauseBound: 256, Seed: 7}
			mode.mutate(&cfg)
			var steps int
			var inLoop time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sess, err := NewSession(udb, res, oracle.NewGroundTruth(gt.Val), nil, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				start := time.Now()
				for !sess.Done() {
					if _, _, err := sess.Step(); err != nil {
						b.Fatal(err)
					}
					steps++
				}
				inLoop += time.Since(start)
			}
			if steps > 0 {
				b.ReportMetric(float64(inLoop.Nanoseconds())/float64(steps), "ns/step")
			}
		})
	}
}
