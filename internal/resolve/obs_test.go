package resolve

import (
	"strings"
	"testing"

	"qres/internal/boolexpr"
	"qres/internal/engine"
	"qres/internal/obs"
	"qres/internal/oracle"
	"qres/internal/testdb"
	"qres/internal/uncertain"
)

// frameworkObsConfig is a full framework instantiation exercising every
// pipeline stage: online learning with a tiny retrain threshold so the
// classifier (and LAL) activate within the paper example's probe budget.
func frameworkObsConfig(o *obs.Obs) Config {
	return Config{
		Utility:  General{},
		Learning: LearnOnline,
		Trees:    5,
		MinTrain: 2,
		Seed:     11,
		Obs:      o,
	}
}

// Every pipeline stage of a traced framework session must emit at least
// one span event (the ISSUE's acceptance criterion), and per-round
// component spans must match the probe count exactly.
func TestSessionEmitsSpansPerStage(t *testing.T) {
	udb := testdb.PaperUncertainDB()
	res, err := engine.Run(udb, testdb.PaperQuery())
	if err != nil {
		t.Fatal(err)
	}
	gt := uncertain.GenerateFixed(udb, 0.5, 42)

	col := &obs.Collector{}
	reg := obs.NewRegistry()
	o := obs.New("test", col, reg)

	sess, err := NewSession(udb, res, oracle.NewGroundTruth(gt.Val), nil, frameworkObsConfig(o))
	if err != nil {
		t.Fatal(err)
	}
	out, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Probes == 0 {
		t.Fatal("session resolved with zero probes; test needs a probing session")
	}

	for _, stage := range []obs.Stage{
		obs.StageRepoReuse, obs.StageSplit, obs.StageRetrain, obs.StageForestFit,
		obs.StageLearner, obs.StageLAL, obs.StageUtility, obs.StageSelector,
		obs.StageProbe, obs.StageSimplify,
	} {
		if col.StageCount(stage) == 0 {
			t.Errorf("stage %s emitted no span events", stage)
		}
	}

	// Per-round components fire exactly once per probe selection.
	for _, stage := range []obs.Stage{obs.StageLearner, obs.StageUtility, obs.StageSelector, obs.StageProbe, obs.StageSimplify} {
		if got := col.StageCount(stage); got != out.Probes {
			t.Errorf("stage %s: %d spans, want one per probe (%d)", stage, got, out.Probes)
		}
	}

	// The registry mirrors the sink: stage_seconds histograms labeled by
	// stage and session name carry the same counts.
	name := frameworkObsConfig(nil).Name()
	snap := reg.Snapshot()
	h, ok := snap.Histograms[obs.Key("stage_seconds", string(obs.StageProbe), name)]
	if !ok {
		t.Fatalf("registry has no probe histogram; keys: %v", histKeys(snap))
	}
	if h.Count != int64(out.Probes) {
		t.Errorf("probe histogram count = %d, want %d", h.Count, out.Probes)
	}
}

func histKeys(s obs.Snapshot) []string {
	var out []string
	for k := range s.Histograms {
		out = append(out, k)
	}
	return out
}

// assertStageCounts checks that each stage's stage_seconds{stage,name}
// histogram holds exactly one sample per probe.
func assertStageCounts(t *testing.T, reg *obs.Registry, name string, probes int, stages ...obs.Stage) {
	t.Helper()
	snap := reg.Snapshot()
	for _, stage := range stages {
		h := snap.Histograms[obs.Key("stage_seconds", string(stage), name)]
		if h.Count != int64(probes) {
			t.Errorf("%s: stage_seconds{%s} has %d samples, want one per probe (%d)", name, stage, h.Count, probes)
		}
	}
}

// The paper's Table 4 components are timed in the registry by a
// framework-instantiation Run: one stage_seconds sample per probe for each.
func TestStatsTimersPopulatedAfterRun(t *testing.T) {
	udb := testdb.PaperUncertainDB()
	res, err := engine.Run(udb, testdb.PaperQuery())
	if err != nil {
		t.Fatal(err)
	}
	gt := uncertain.GenerateFixed(udb, 0.5, 7)

	reg := obs.NewRegistry()
	cfg := frameworkObsConfig(obs.New("", nil, reg))
	sess, err := NewSession(udb, res, oracle.NewGroundTruth(gt.Val), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Probes == 0 {
		t.Fatal("session resolved with zero probes; test needs a probing session")
	}
	assertStageCounts(t, reg, cfg.Name(), out.Probes,
		obs.StageLearner, obs.StageLAL, obs.StageUtility, obs.StageSelector)
	if summary := out.Stats.Summary(); !strings.Contains(summary, "probes=") {
		t.Errorf("Stats.Summary() missing probes=:\n%s", summary)
	}
}

// Baselines time their Selector in the registry too.
func TestBaselineSelectorTimerPopulated(t *testing.T) {
	udb := testdb.PaperUncertainDB()
	res, err := engine.Run(udb, testdb.PaperQuery())
	if err != nil {
		t.Fatal(err)
	}
	gt := uncertain.GenerateFixed(udb, 0.5, 3)
	for _, cfg := range []Config{
		{Baseline: BaselineRandom, Seed: 1},
		{Baseline: BaselineGreedy, Seed: 1},
	} {
		reg := obs.NewRegistry()
		cfg.Obs = obs.New("", nil, reg)
		sess, err := NewSession(udb, res, oracle.NewGroundTruth(gt.Val), nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out, err := sess.Run()
		if err != nil {
			t.Fatal(err)
		}
		assertStageCounts(t, reg, cfg.Name(), out.Probes, obs.StageSelector)
	}
}

// ResolveParallel shares one obs handle across concurrent sub-sessions;
// under -race this validates the registry, the sinks and the merged Stats
// aggregation. The paper example is a single connected component, so the
// test hand-builds a result whose rows carry variable-disjoint provenance
// (one literal per row) to force several concurrent sub-sessions.
func TestParallelSharedObservability(t *testing.T) {
	udb := testdb.PaperUncertainDB()
	base, err := engine.Run(udb, testdb.PaperQuery())
	if err != nil {
		t.Fatal(err)
	}
	gt := uncertain.GenerateFixed(udb, 0.5, 5)

	vars := base.UniqueVars()
	if len(vars) < 2 {
		t.Fatalf("paper example has %d unique variables; need >= 2", len(vars))
	}
	res := &engine.Result{Columns: base.Columns}
	for _, v := range vars {
		res.Rows = append(res.Rows, engine.Row{Prov: boolexpr.Lit(v)})
	}

	col := &obs.Collector{}
	reg := obs.NewRegistry()
	cfg := Config{Utility: General{}, Learning: LearnEP, Seed: 2, Obs: obs.New("par", col, reg)}
	out, err := ResolveParallel(udb, res, oracle.NewGroundTruth(gt.Val), nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Components != len(vars) {
		t.Fatalf("got %d components, want %d", out.Components, len(vars))
	}
	if got := col.StageCount(obs.StageProbe); got != out.Probes {
		t.Errorf("collector saw %d probe spans, want %d", got, out.Probes)
	}
	// The shared registry carries every sub-session's component timings.
	assertStageCounts(t, reg, cfg.Name(), out.Probes, obs.StageSelector, obs.StageUtility)
	if out.Stats.Probes != out.Probes {
		t.Errorf("merged Stats.Probes = %d, want %d", out.Stats.Probes, out.Probes)
	}
}
