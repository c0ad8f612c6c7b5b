package bench

import (
	"io"

	"qres/internal/learn"
	"qres/internal/obs"
	"qres/internal/resolve"
	"qres/internal/stats"
)

// TraceRun resolves one representative workload (TPC-H Q3, RDT ground
// truth, the paper's full framework configuration) end to end with full
// instrumentation: every pipeline span — query evaluation, provenance
// construction, repository reuse, splitting, LAL training, learner
// retraining, per-round component work, oracle probes, simplification —
// is written to w as JSON Lines, and the per-stage timing distributions
// are aggregated into a Table-4-style per-component report measured from
// the same observations.
func TraceRun(sc Scale, seed int64, w io.Writer) (*Report, error) {
	reg := obs.NewRegistry()
	o := obs.New("", obs.NewJSONL(w), reg)

	wl, err := LoadTPCHObserved("Q3", sc, RDTGroundTruth(), seed, o)
	if err != nil {
		return nil, err
	}

	// Train a private LAL regressor so the offline lal_train stage appears
	// in the trace (the process-wide SharedLAL is uninstrumented); smaller
	// than the default so trace runs stay fast.
	lalCfg := learn.DefaultLALConfig(stats.SubSeed(seed, 40))
	lalCfg.Tasks = 10
	lalCfg.Obs = o

	cfg := resolve.Config{
		Utility:  resolve.General{},
		Learning: resolve.LearnOnline,
		Trees:    sc.Trees,
		LAL:      learn.TrainLAL(lalCfg),
		Obs:      o,
	}
	probes, _, err := wl.RunConfig(cfg, sc.InitialProbes, stats.SubSeed(seed, 41))
	if err != nil {
		return nil, err
	}

	rep := &Report{
		ID:    "trace",
		Title: "Per-component timing (Table 4 style) — " + wl.Name + ", " + cfg.Name(),
		Columns: []string{
			"Count", "Avg. (ms)", "Median (ms)", "90th (ms)", "Max (ms)",
		},
	}
	name := cfg.Name()
	rows := []stageRow{
		{"Learner", obs.StageLearner, name},
		{"LAL", obs.StageLAL, name},
		{"Utility", obs.StageUtility, name},
		{"Selector", obs.StageSelector, name},
		{"Oracle probe", obs.StageProbe, name},
		{"Simplify", obs.StageSimplify, name},
	}
	const ms = 1e3
	for i, h := range stageTimings(reg, rows) {
		rep.AddRow(rows[i].label, float64(h.Count), h.Mean*ms, h.P50*ms, h.P90*ms, h.Max*ms)
	}
	rep.Note("probes=%d; every per-round component ran once per probe selection", probes)
	snap := reg.Snapshot()
	ctr := func(metric string) int64 { return snap.Counters[obs.Key(metric, name)] }
	rep.Note("incremental path: tuples_resimplified=%d vars_rescored=%d score_cache=%d/%d prob_cache=%d/%d (hits/misses)",
		ctr("tuples_resimplified"), ctr("vars_rescored"),
		ctr("score_cache_hits"), ctr("score_cache_misses"),
		ctr("prob_cache_hits"), ctr("prob_cache_misses"))
	return rep, nil
}

// stageRow is one per-component timing row: its label, and the pipeline
// stage and configuration (session label) whose spans it summarizes.
type stageRow struct {
	label  string
	stage  obs.Stage
	config string
}

// stageTimings reads each row's stage_seconds{stage,config} histogram from
// reg, so a timing table is measured from the same spans that feed
// /metrics, Session.Metrics and traces. A stage that never ran reads as a
// zero snapshot.
func stageTimings(reg *obs.Registry, rows []stageRow) []obs.HistSnapshot {
	snap := reg.Snapshot()
	out := make([]obs.HistSnapshot, len(rows))
	for i, r := range rows {
		out[i] = snap.Histograms[obs.Key("stage_seconds", string(r.stage), r.config)]
	}
	return out
}
