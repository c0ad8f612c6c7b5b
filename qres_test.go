package qres_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"qres"
)

// buildPaperDB constructs the paper's Table 1 database through the public
// API.
func buildPaperDB(t testing.TB) *qres.DB {
	db := qres.New()
	db.MustCreateTable("Acquisitions",
		qres.Column{Name: "Acquired", Kind: qres.String},
		qres.Column{Name: "Acquiring", Kind: qres.String},
		qres.Column{Name: "Date", Kind: qres.DateKind})
	db.MustCreateTable("Roles",
		qres.Column{Name: "Organization", Kind: qres.String},
		qres.Column{Name: "Role", Kind: qres.String},
		qres.Column{Name: "Member", Kind: qres.String})
	db.MustCreateTable("Education",
		qres.Column{Name: "Alumni", Kind: qres.String},
		qres.Column{Name: "Institute", Kind: qres.String},
		qres.Column{Name: "Year", Kind: qres.Int})

	db.MustInsert("Acquisitions", []any{"A2Bdone", "Zazzer", qres.Date{Year: 2020, Month: 11, Day: 7}},
		map[string]string{"source": "example.com"})
	db.MustInsert("Acquisitions", []any{"microBarg", "Fiffer", qres.Date{Year: 2017, Month: 5, Day: 1}},
		map[string]string{"source": "bizwire.example"})
	db.MustInsert("Acquisitions", []any{"fPharm", "Fiffer", qres.Date{Year: 2016, Month: 2, Day: 1}}, nil)
	db.MustInsert("Acquisitions", []any{"Optobest", "microBarg", qres.Date{Year: 2015, Month: 8, Day: 8}}, nil)

	for _, r := range [][3]string{
		{"A2Bdone", "Founder", "Usha Koirala"},
		{"A2Bdone", "Founding member", "Pavel Lebedev"},
		{"A2Bdone", "Founding member", "Nana Alvi"},
		{"microBarg", "Co-founder", "Nana Alvi"},
		{"microBarg", "Co-founder", "Gao Yawen"},
		{"microBarg", "CTO", "Amaal Kader"},
	} {
		db.MustInsert("Roles", []any{r[0], r[1], r[2]}, map[string]string{"source": "people.example"})
	}
	for _, r := range []struct {
		a, i string
		y    int
	}{
		{"Usha Koirala", "U. Melbourne", 2017},
		{"Pavel Lebedev", "U. Melbourne", 2017},
		{"Nana Alvi", "U. Sau Paolo", 2010},
		{"Nana Alvi", "U. Melbourne", 2017},
		{"Gao Yawen", "U. Sau Paolo", 2010},
		{"Amaal Kader", "U. Cape Town", 2005},
	} {
		db.MustInsert("Education", []any{r.a, r.i, r.y}, map[string]string{"source": "alumni.example"})
	}
	return db
}

const paperSQL = `
SELECT DISTINCT a.Acquired, e.Institute
FROM Acquisitions AS a, Roles AS r, Education AS e
WHERE a.Acquired = r.Organization AND r.Member = e.Alumni
  AND a.Date >= 2017.01.01 AND r.Role LIKE '%found%'
  AND e.Year <= year(a.Date)`

// mapOracle answers probes from a fixed correctness map, defaulting to
// correct for unlisted tuples. It is safe for concurrent use once built.
type mapOracle struct {
	correct map[qres.TupleRef]bool
	count   int
}

func (o *mapOracle) Probe(ref qres.TupleRef) (bool, error) {
	o.count++
	c, ok := o.correct[ref]
	if !ok {
		return true, nil
	}
	return c, nil
}

// randomOracle builds a deterministic random ground truth over the DB.
func randomOracle(db *qres.DB, p float64, seed int64) *mapOracle {
	rng := rand.New(rand.NewSource(seed))
	o := &mapOracle{correct: make(map[qres.TupleRef]bool)}
	for _, tbl := range db.Tables() {
		for i := 0; ; i++ {
			if _, _, ok := db.Tuple(qres.TupleRef{Table: tbl, Index: i}); !ok {
				break
			}
			o.correct[qres.TupleRef{Table: tbl, Index: i}] = rng.Float64() < p
		}
	}
	return o
}

// buildWideDB builds a database whose driver relation, facts, fills three
// 1024-row morsels, so query evaluation fans out whenever GOMAXPROCS ≥ 2.
func buildWideDB(t testing.TB) *qres.DB {
	db := qres.New()
	db.MustCreateTable("facts",
		qres.Column{Name: "subject", Kind: qres.String},
		qres.Column{Name: "src", Kind: qres.String},
		qres.Column{Name: "score", Kind: qres.Int})
	db.MustCreateTable("sources",
		qres.Column{Name: "src", Kind: qres.String},
		qres.Column{Name: "kind", Kind: qres.String})
	for i := 0; i < 8; i++ {
		db.MustInsert("sources", []any{fmt.Sprintf("src%d", i), []string{"wiki", "news"}[i%2]},
			map[string]string{"site": fmt.Sprintf("site%d", i%3)})
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3000; i++ {
		src := rng.Intn(8)
		db.MustInsert("facts", []any{fmt.Sprintf("s%d", rng.Intn(60)), fmt.Sprintf("src%d", src), rng.Intn(100)},
			map[string]string{"extractor": fmt.Sprintf("e%d", src%3), "batch": fmt.Sprintf("b%d", i%5)})
	}
	return db
}

// wideSQL joins the 3000-row driver to a small build side under a
// selective filter, then deduplicates: the probe side runs morsel-parallel
// below the DISTINCT, and each output row's provenance is a disjunction.
const wideSQL = `SELECT DISTINCT f.subject, s.kind FROM facts AS f, sources AS s
	WHERE f.src = s.src AND f.score >= 96`

// gomaxprocsOutcome is what Query and Resolve return over the wide
// database at one GOMAXPROCS setting.
type gomaxprocsOutcome struct {
	cols   []string
	rows   []string
	probes []qres.TupleRef
}

// sweepGOMAXPROCS runs Query and an online Resolve over the wide database
// at GOMAXPROCS 1, 2 and 4, restoring the old value after each run, and
// returns the outcomes in that order. The workload is large enough to run
// the morsel-parallel engine and to train the forest between probes.
func sweepGOMAXPROCS(t *testing.T) []gomaxprocsOutcome {
	run := func(procs int) gomaxprocsOutcome {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		db := buildWideDB(t)
		res, err := db.Query(wideSQL)
		if err != nil {
			t.Fatal(err)
		}
		out := gomaxprocsOutcome{cols: res.Columns()}
		for i := 0; i < res.Len(); i++ {
			out.rows = append(out.rows, fmt.Sprint(res.Row(i))+" <- "+res.Provenance(i))
		}
		r, err := db.Resolve(res, randomOracle(db, 0.6, 9),
			qres.WithStrategy("general"), qres.WithLearning("online"),
			qres.WithTrees(10), qres.WithSeed(4))
		if err != nil {
			t.Fatal(err)
		}
		out.probes = r.ProbedTuples
		return out
	}
	var outs []gomaxprocsOutcome
	for _, procs := range []int{1, 2, 4} {
		outs = append(outs, run(procs))
	}
	if len(outs[0].rows) < 20 || len(outs[0].probes) < 25 {
		t.Fatalf("workload too small to exercise the pools: %d rows, %d probes", len(outs[0].rows), len(outs[0].probes))
	}
	return outs
}

// Query evaluates on the morsel-parallel engine with one worker per CPU,
// and its results must not depend on the worker count: over a relation
// large enough to fan out, GOMAXPROCS 1, 2 and 4 return identical
// columns, row order and provenance renderings.
func TestQueryEngineParallelism(t *testing.T) {
	outs := sweepGOMAXPROCS(t)
	base := outs[0]
	for k, got := range outs[1:] {
		procs := []int{2, 4}[k]
		if fmt.Sprint(got.cols) != fmt.Sprint(base.cols) {
			t.Fatalf("GOMAXPROCS=%d: columns %v, want %v", procs, got.cols, base.cols)
		}
		if len(got.rows) != len(base.rows) {
			t.Fatalf("GOMAXPROCS=%d: %d rows, want %d", procs, len(got.rows), len(base.rows))
		}
		for i := range base.rows {
			if got.rows[i] != base.rows[i] {
				t.Fatalf("GOMAXPROCS=%d: row %d = %s, want %s", procs, i, got.rows[i], base.rows[i])
			}
		}
	}
}

// Every worker pool in resolution (engine, forest, shards) follows
// GOMAXPROCS, and resolutions must not depend on it: the same workload
// probes the same tuples in the same order at GOMAXPROCS 1, 2 and 4.
func TestWithParallelismEquivalence(t *testing.T) {
	outs := sweepGOMAXPROCS(t)
	base := outs[0]
	for k, got := range outs[1:] {
		procs := []int{2, 4}[k]
		if len(got.probes) != len(base.probes) {
			t.Fatalf("GOMAXPROCS=%d: %d probes, want %d", procs, len(got.probes), len(base.probes))
		}
		for i := range base.probes {
			if got.probes[i] != base.probes[i] {
				t.Fatalf("GOMAXPROCS=%d: probe %d = %v, want %v", procs, i, got.probes[i], base.probes[i])
			}
		}
	}
}

func TestBuildAndQuery(t *testing.T) {
	db := buildPaperDB(t)
	if db.NumTuples() != 16 {
		t.Fatalf("NumTuples = %d, want 16", db.NumTuples())
	}
	if got := len(db.Tables()); got != 3 {
		t.Fatalf("Tables = %d", got)
	}
	res, err := db.Query(paperSQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 4 {
		t.Fatalf("Len = %d, want 4 (paper Table 2)", res.Len())
	}
	if cols := res.Columns(); len(cols) != 2 || cols[0] != "Acquired" {
		t.Fatalf("Columns = %v", cols)
	}
	// Every row is uncertain and exposes its supporting tuples.
	for i := 0; i < res.Len(); i++ {
		if !res.Uncertain(i) {
			t.Errorf("row %d should be uncertain", i)
		}
		if len(res.Tuples(i)) == 0 {
			t.Errorf("row %d has no supporting tuples", i)
		}
		if !strings.Contains(res.Provenance(i), "acquisitions[") {
			t.Errorf("provenance rendering wrong: %s", res.Provenance(i))
		}
	}
	if res.UniqueTupleCount() != 12 {
		t.Errorf("UniqueTupleCount = %d, want 12", res.UniqueTupleCount())
	}
	if !strings.Contains(res.String(), "⟵") {
		t.Error("String() should render provenance")
	}
}

func TestInsertTypeConversions(t *testing.T) {
	db := qres.New()
	db.MustCreateTable("t",
		qres.Column{Name: "i", Kind: qres.Int},
		qres.Column{Name: "f", Kind: qres.Float},
		qres.Column{Name: "s", Kind: qres.String},
		qres.Column{Name: "d", Kind: qres.DateKind},
		qres.Column{Name: "n", Kind: qres.String})
	ref := db.MustInsert("t", []any{
		int64(7), 2.5, "x", time.Date(2020, 3, 4, 12, 0, 0, 0, time.UTC), nil,
	}, map[string]string{"k": "v"})
	values, meta, ok := db.Tuple(ref)
	if !ok {
		t.Fatal("Tuple lookup failed")
	}
	want := []string{"7", "2.5", "x", "2020-03-04", "NULL"}
	for i := range want {
		if values[i] != want[i] {
			t.Errorf("value %d = %q, want %q", i, values[i], want[i])
		}
	}
	if meta["k"] != "v" {
		t.Error("metadata lost")
	}
	// Unsupported type.
	if _, err := db.Insert("t", []any{struct{}{}, 0.0, "", nil, nil}, nil); err == nil {
		t.Error("unsupported type accepted")
	}
}

func TestFreezeSemantics(t *testing.T) {
	db := qres.New()
	db.MustCreateTable("t", qres.Column{Name: "x", Kind: qres.Int})
	db.MustInsert("t", []any{1}, nil)
	if _, err := db.Query("SELECT * FROM t"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("t", []any{2}, nil); err == nil {
		t.Error("insert after freeze accepted")
	}
	if err := db.CreateTable("u", qres.Column{Name: "y", Kind: qres.Int}); err == nil {
		t.Error("create after freeze accepted")
	}
}

func TestBuildErrors(t *testing.T) {
	db := qres.New()
	if err := db.CreateTable("empty"); err == nil {
		t.Error("empty table accepted")
	}
	db.MustCreateTable("t", qres.Column{Name: "x", Kind: qres.Int})
	if err := db.CreateTable("t", qres.Column{Name: "y", Kind: qres.Int}); err == nil {
		t.Error("duplicate table accepted")
	}
	if _, err := db.Insert("missing", []any{1}, nil); err == nil {
		t.Error("insert into missing table accepted")
	}
	if _, err := db.Insert("t", []any{1, 2}, nil); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, _, ok := db.Tuple(qres.TupleRef{Table: "missing", Index: 0}); ok {
		t.Error("Tuple of missing table succeeded")
	}
}

func TestResolveExactAnswerAllStrategies(t *testing.T) {
	for _, strategy := range []string{"qvalue", "ro", "general", "random", "greedy", "lal-only"} {
		t.Run(strategy, func(t *testing.T) {
			db := buildPaperDB(t)
			res, err := db.Query(paperSQL)
			if err != nil {
				t.Fatal(err)
			}
			orc := randomOracle(db, 0.5, 41)
			out, err := db.Resolve(res, orc,
				qres.WithStrategy(strategy), qres.WithSeed(7), qres.WithTrees(15))
			if err != nil {
				t.Fatal(err)
			}
			// Verify against brute force: a row is correct iff its
			// supporting-tuple combination exists with all-correct
			// members; equivalently re-ask the oracle-backed truth via a
			// second exhaustive resolution with a different strategy.
			db2 := buildPaperDB(t)
			res2, _ := db2.Query(paperSQL)
			orc2 := randomOracle(db2, 0.5, 41)
			ref, err := db2.Resolve(res2, orc2, qres.WithStrategy("random"), qres.WithSeed(99))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < res.Len(); i++ {
				if out.IsCorrect(i) != ref.IsCorrect(i) {
					t.Errorf("row %d: %s disagrees with reference", i, strategy)
				}
			}
			if out.Probes != len(out.ProbedTuples) {
				t.Errorf("Probes=%d but %d probed tuples", out.Probes, len(out.ProbedTuples))
			}
			if out.Probes > res.UniqueTupleCount() {
				t.Errorf("probes %d exceed budget %d", out.Probes, res.UniqueTupleCount())
			}
		})
	}
}

func TestResolveWithKnownAnswers(t *testing.T) {
	db := buildPaperDB(t)
	res, err := db.Query(paperSQL)
	if err != nil {
		t.Fatal(err)
	}
	orc := randomOracle(db, 0.5, 5)
	// Seed every supporting tuple's answer: zero probes needed.
	var opts []qres.Option
	seen := map[qres.TupleRef]bool{}
	for i := 0; i < res.Len(); i++ {
		for _, ref := range res.Tuples(i) {
			if !seen[ref] {
				seen[ref] = true
				opts = append(opts, qres.WithKnownAnswer(ref, orc.correct[ref]))
			}
		}
	}
	opts = append(opts, qres.WithStrategy("general"), qres.WithSeed(1))
	out, err := db.Resolve(res, orc, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if out.Probes != 0 {
		t.Fatalf("fully seeded resolution used %d probes", out.Probes)
	}
}

func TestResolveWithTrainingExamples(t *testing.T) {
	db := buildPaperDB(t)
	res, err := db.Query(paperSQL)
	if err != nil {
		t.Fatal(err)
	}
	orc := randomOracle(db, 0.5, 6)
	var opts []qres.Option
	for i := 0; i < 40; i++ {
		src := "example.com"
		if i%2 == 0 {
			src = "other.example"
		}
		opts = append(opts, qres.WithTrainingExample(map[string]string{"source": src}, i%2 == 1))
	}
	opts = append(opts,
		qres.WithStrategy("general"), qres.WithLearning("offline"),
		qres.WithTrees(15), qres.WithSeed(2))
	if _, err := db.Resolve(res, orc, opts...); err != nil {
		t.Fatal(err)
	}
}

func TestResolveParallel(t *testing.T) {
	db := buildPaperDB(t)
	res, err := db.Query(paperSQL)
	if err != nil {
		t.Fatal(err)
	}
	orc := randomOracle(db, 0.5, 8)
	out, err := db.ResolveParallel(res, orc,
		qres.WithStrategy("general"), qres.WithLearning("ep"), qres.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	seq, err := buildPaperDB(t).Query(paperSQL)
	if err != nil {
		t.Fatal(err)
	}
	_ = seq
	if out.Components < 1 {
		t.Error("no components reported")
	}
	if out.CriticalPathProbes > out.Probes {
		t.Error("critical path exceeds total probes")
	}
	// Same answers as a sequential run.
	db2 := buildPaperDB(t)
	res2, _ := db2.Query(paperSQL)
	orc2 := randomOracle(db2, 0.5, 8)
	ref, err := db2.Resolve(res2, orc2, qres.WithStrategy("general"), qres.WithLearning("ep"), qres.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < res.Len(); i++ {
		if out.IsCorrect(i) != ref.IsCorrect(i) {
			t.Errorf("row %d: parallel disagrees with sequential", i)
		}
	}
}

func TestOptionErrors(t *testing.T) {
	db := buildPaperDB(t)
	res, err := db.Query(paperSQL)
	if err != nil {
		t.Fatal(err)
	}
	orc := randomOracle(db, 0.5, 9)
	if _, err := db.Resolve(res, orc, qres.WithStrategy("nope")); err == nil {
		t.Error("unknown strategy accepted")
	}
	if _, err := db.Resolve(res, orc, qres.WithLearning("nope")); err == nil {
		t.Error("unknown learning mode accepted")
	}
	if _, err := db.Resolve(res, orc, qres.WithModel("nope")); err == nil {
		t.Error("unknown model accepted")
	}
	if _, err := db.Resolve(res, orc, qres.WithKnownAnswer(qres.TupleRef{Table: "x", Index: 0}, true)); err == nil {
		t.Error("known answer for unknown tuple accepted")
	}
}

func TestOracleErrorSurfaces(t *testing.T) {
	db := buildPaperDB(t)
	res, err := db.Query(paperSQL)
	if err != nil {
		t.Fatal(err)
	}
	failing := qres.OracleFunc(func(qres.TupleRef) (bool, error) {
		return false, fmt.Errorf("expert unavailable")
	})
	if _, err := db.Resolve(res, failing, qres.WithStrategy("general"), qres.WithLearning("ep")); err == nil {
		t.Error("oracle error not surfaced")
	}
}

func TestTupleRefString(t *testing.T) {
	ref := qres.TupleRef{Table: "roles", Index: 3}
	if ref.String() != "roles[3]" {
		t.Errorf("String = %q", ref.String())
	}
}
