package bench

import (
	"fmt"

	"qres/internal/boolexpr"
	"qres/internal/obs"
	"qres/internal/resolve"
	"qres/internal/stats"
)

// Experiment is a driver regenerating one table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(sc Scale, seed int64) (*Report, error)
}

// Experiments returns all drivers in presentation order.
func Experiments() []Experiment {
	return []Experiment{
		{"table3", "Statistics for representative queries", Table3},
		{"table4", "Execution times per probe (seconds), Q8", Table4},
		{"fig5", "Overall performance: probes per solution", Fig5},
		{"fig6", "Effect of result-subset size", Fig6},
		{"fig7", "Effect of answer probabilities (Q8)", Fig7},
		{"fig8", "Effect of splitting large expressions", Fig8},
		{"fig9", "Effect of learning and initial repository size (Q9-style, Q8)", Fig9},
		{"ablation-selector", "Probe Selector combination functions (Q8)", AblationSelector},
		{"ablation-model", "Learner classifier: RF vs naive Bayes (Q8)", AblationModel},
		{"ablation-splitbound", "Splitting bound B (Q5)", AblationSplitBound},
		{"ablation-trees", "Forest size (Q8)", AblationTrees},
		{"ablation-parallel", "Component-parallel probing (MS1)", AblationParallel},
		{"ext-noisy", "Extension: noisy oracle (MS2)", ExtNoisy},
		{"ext-cost", "Extension: cost-aware probing (MS1)", ExtCost},
		{"ext-features", "Section 7.4: Learner feature importances (MS1)", ExtFeatures},
	}
}

// Lookup finds a driver by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// baselineAndFrameworkConfigs enumerates the solutions compared in Figure
// 5: the two probability-blind baselines, pure active learning, and the
// three utilities under each learning mode.
func baselineAndFrameworkConfigs(sc Scale) []resolve.Config {
	utilities := []resolve.Utility{resolve.RO{}, resolve.QValue{}, resolve.General{}}
	modes := []resolve.LearningMode{resolve.LearnEP, resolve.LearnOffline, resolve.LearnOnline}
	configs := []resolve.Config{
		{Baseline: resolve.BaselineRandom},
		{Baseline: resolve.BaselineGreedy},
		{Baseline: resolve.BaselineLALOnly, Learning: resolve.LearnOnline, Trees: sc.Trees},
	}
	for _, u := range utilities {
		for _, m := range modes {
			configs = append(configs, resolve.Config{Utility: u, Learning: m, Trees: sc.Trees})
		}
	}
	return configs
}

// utilityOnlyConfigs enumerates the solutions of the utility-isolation
// experiments (Figures 6–8): baselines plus the three utilities, all fed
// the true probabilities (KnownProbs) so that learning quality does not
// interfere.
func utilityOnlyConfigs(w *Workload) []resolve.Config {
	probs := w.GT.Prob
	return []resolve.Config{
		{Baseline: resolve.BaselineRandom},
		{Baseline: resolve.BaselineGreedy},
		{Utility: resolve.RO{}, KnownProbs: probs},
		{Utility: resolve.QValue{}, KnownProbs: probs},
		{Utility: resolve.General{}, KnownProbs: probs},
	}
}

// Table3 reproduces the query statistics table: number of provenance
// expressions (output tuples), unique variables, maximum term size, and
// greedy cover size (or "-" beyond 50, the paper's non-skewed marker).
func Table3(sc Scale, seed int64) (*Report, error) {
	rep := &Report{
		ID:      "table3",
		Title:   "Statistics for representative queries",
		Columns: []string{"# Expressions", "# Unique variables", "Term Size", "Cover Size"},
	}
	type entry struct {
		label string
		load  func() (*Workload, error)
	}
	entries := []entry{
		{"NELL MS1", func() (*Workload, error) { return LoadNELL("MS1", sc, RDTGroundTruth(), seed) }},
		{"NELL MS2", func() (*Workload, error) { return LoadNELL("MS2", sc, RDTGroundTruth(), seed) }},
		{"TPC-H Q3", func() (*Workload, error) { return LoadTPCH("Q3", sc, RDTGroundTruth(), seed) }},
		{"TPC-H Q8", func() (*Workload, error) { return LoadTPCH("Q8", sc, RDTGroundTruth(), seed) }},
		{"TPC-H Q10", func() (*Workload, error) { return LoadTPCH("Q10", sc, RDTGroundTruth(), seed) }},
	}
	for _, e := range entries {
		w, err := e.load()
		if err != nil {
			return nil, err
		}
		exprs := w.EffectiveProvenance()
		cover, ok := boolexpr.GreedyCover(exprs, 50)
		coverCell := fmt.Sprintf("%d", len(cover))
		if !ok {
			coverCell = "-"
		}
		uniq := make(map[boolexpr.Var]struct{})
		termSize := 0
		for _, ex := range exprs {
			for _, v := range ex.Vars() {
				uniq[v] = struct{}{}
			}
			if k := ex.MaxTermSize(); k > termSize {
				termSize = k
			}
		}
		rep.AddTextRow(e.label,
			fmt.Sprintf("%d", len(exprs)),
			fmt.Sprintf("%d", len(uniq)),
			fmt.Sprintf("%d", termSize),
			coverCell)
	}
	rep.Note("cover size <= 10: skewed; 11-50: moderately skewed; '-': non-skewed")
	return rep, nil
}

// Table4 reproduces the per-probe component execution times on Q8:
// Learner (retraining + probability estimation), LAL (uncertainty
// estimation), each utility function, and the Probe Selector.
func Table4(sc Scale, seed int64) (*Report, error) {
	rep := &Report{
		ID:      "table4",
		Title:   "Execution times per probe (milliseconds), Q8",
		Columns: []string{"Avg.", "Median", "Max.", "90th %ile"},
	}
	w, err := LoadTPCH("Q8", sc, RDTGroundTruth(), seed)
	if err != nil {
		return nil, err
	}
	w = w.Subset(rowCap(sc), stats.SubSeed(seed, 5))

	// Q-Value+LAL exercises Learner, LAL, the Q-Value utility and the
	// Selector in one run; separate runs time the CNF-free utilities. The
	// runs share one registry, told apart by their configuration label.
	reg := obs.NewRegistry()
	o := obs.New("", nil, reg)
	qv := resolve.Config{Utility: resolve.QValue{}, Learning: resolve.LearnOnline}
	gen := resolve.Config{Utility: resolve.General{}, Learning: resolve.LearnOffline}
	ro := resolve.Config{Utility: resolve.RO{}, Learning: resolve.LearnOffline}
	probes := make(map[string]int)
	for i, cfg := range []resolve.Config{qv, gen, ro} {
		cfg.Trees, cfg.Obs = sc.Trees, o
		n, _, err := w.RunConfig(cfg, sc.InitialProbes, stats.SubSeed(seed, 6+i))
		if err != nil {
			return nil, err
		}
		probes[cfg.Name()] = n
	}

	rows := []stageRow{
		{"Learner", obs.StageLearner, qv.Name()},
		{"LAL", obs.StageLAL, qv.Name()},
		{"Q-Value", obs.StageUtility, qv.Name()},
		{"General", obs.StageUtility, gen.Name()},
		{"RO", obs.StageUtility, ro.Name()},
		{"Selector", obs.StageSelector, qv.Name()},
	}
	for i, h := range stageTimings(reg, rows) {
		r := rows[i]
		if int(h.Count) != probes[r.config] {
			return nil, fmt.Errorf("table4: %s timed %d rounds of %s, want one per probe (%d)",
				r.label, h.Count, r.config, probes[r.config])
		}
		// Rendered in milliseconds: the reduced substrate makes each
		// component 10-100x faster than the paper's second-scale numbers,
		// but the ordering between components is the reproduced result.
		const ms = 1e3
		rep.AddRow(r.label, h.Mean*ms, h.P50*ms, h.Max*ms, h.P90*ms)
	}
	rep.Note("expected ordering (paper): Learner > LAL > Q-Value > General > RO > Selector")
	return rep, nil
}

// rowCap bounds result sizes for the heavyweight experiments at quick
// scale; 0 means unlimited.
func rowCap(sc Scale) int {
	if sc.Reps >= 10 { // full scale
		return 0
	}
	return 400
}

// Fig5 reproduces the overall-performance comparison: mean probe count of
// every solution on TPC-H Q8 and NELL MS1/MS2 with RDT ground truth and a
// seeded initial repository.
func Fig5(sc Scale, seed int64) (*Report, error) {
	rep := &Report{
		ID:      "fig5",
		Title:   "Overall performance: mean #probes per solution",
		Columns: []string{"Q8", "MS1", "MS2"},
	}
	workloads := make([]*Workload, 0, 3)
	q8, err := LoadTPCH("Q8", sc, RDTGroundTruth(), seed)
	if err != nil {
		return nil, err
	}
	workloads = append(workloads, q8.Subset(rowCap(sc), stats.SubSeed(seed, 9)))
	for _, q := range []string{"MS1", "MS2"} {
		w, err := LoadNELL(q, sc, RDTGroundTruth(), seed)
		if err != nil {
			return nil, err
		}
		workloads = append(workloads, w)
	}

	for _, cfg := range baselineAndFrameworkConfigs(sc) {
		values := make([]float64, 0, len(workloads))
		for wi, w := range workloads {
			mean, err := w.AverageProbes(cfg, sc.InitialProbes, sc.Reps, stats.SubSeed(seed, 20+wi))
			if err != nil {
				return nil, err
			}
			values = append(values, mean)
		}
		rep.AddRow(cfg.Name(), values...)
	}
	total := q8.DB.Data().TotalTuples()
	rep.Note("TPC-H database has %d tuples; Q8 provenance has %d unique variables",
		total, len(workloads[0].Result.UniqueVars()))
	return rep, nil
}

// Fig6 reproduces the result-subset-size sweep: probes vs T for the
// utility-isolation solutions on Q3 (non-skewed), Q8 (skewed) and Q10
// (moderately skewed).
func Fig6(sc Scale, seed int64) (*Report, error) {
	sizes := subsetSizes(sc)
	rep := &Report{
		ID:    "fig6",
		Title: "Probes vs result-subset size T",
	}
	for _, t := range sizes {
		for _, q := range []string{"Q3", "Q8", "Q10"} {
			rep.Columns = append(rep.Columns, fmt.Sprintf("%s/T=%d", q, t))
		}
	}

	rows := make(map[string][]float64)
	var labelOrder []string
	for _, t := range sizes {
		for _, q := range []string{"Q3", "Q8", "Q10"} {
			w, err := LoadTPCH(q, sc, RDTGroundTruth(), seed)
			if err != nil {
				return nil, err
			}
			sub := w.Subset(t, stats.SubSeed(seed, int(30+t)))
			for _, cfg := range utilityOnlyConfigs(sub) {
				mean, err := sub.AverageProbes(cfg, 0, sc.Reps, stats.SubSeed(seed, int(40+t)))
				if err != nil {
					return nil, err
				}
				label := cfg.Name()
				if _, seen := rows[label]; !seen {
					labelOrder = append(labelOrder, label)
				}
				rows[label] = append(rows[label], mean)
			}
		}
	}
	for _, label := range labelOrder {
		rep.AddRow(label, rows[label]...)
	}
	rep.Note("utility functions run with true (known) probabilities to isolate utility computation")
	return rep, nil
}

func subsetSizes(sc Scale) []int {
	if sc.Reps >= 10 {
		return []int{500, 1000, 5000}
	}
	return []int{100, 200, 400}
}

// Fig7 reproduces the answer-probability sweep on Q8: probes under fixed
// correctness probabilities 0.3–0.9 and under the random-decision-tree
// (varying) probabilities, for the utility-isolation solutions.
func Fig7(sc Scale, seed int64) (*Report, error) {
	rep := &Report{
		ID:    "fig7",
		Title: "Probes vs answer probability (Q8)",
	}
	kinds := []struct {
		label string
		gt    GroundTruthKind
	}{
		{"p=0.3", FixedGroundTruth(0.3)},
		{"p=0.5", FixedGroundTruth(0.5)},
		{"p=0.7", FixedGroundTruth(0.7)},
		{"p=0.9", FixedGroundTruth(0.9)},
		{"RDT", RDTGroundTruth()},
	}
	for _, k := range kinds {
		rep.Columns = append(rep.Columns, k.label)
	}

	rows := make(map[string][]float64)
	var labelOrder []string
	for ki, k := range kinds {
		w, err := LoadTPCH("Q8", sc, k.gt, seed)
		if err != nil {
			return nil, err
		}
		sub := w.Subset(rowCap(sc), stats.SubSeed(seed, 50+ki))
		for _, cfg := range utilityOnlyConfigs(sub) {
			mean, err := sub.AverageProbes(cfg, 0, sc.Reps, stats.SubSeed(seed, 60+ki))
			if err != nil {
				return nil, err
			}
			label := cfg.Name()
			if _, seen := rows[label]; !seen {
				labelOrder = append(labelOrder, label)
			}
			rows[label] = append(rows[label], mean)
		}
	}
	for _, label := range labelOrder {
		rep.AddRow(label, rows[label]...)
	}
	rep.Note("all solutions issue more probes as p grows; RO's relative performance improves with p")
	return rep, nil
}

// Fig8 reproduces the expression-splitting comparison on Q3 (few large
// expressions) and Q5 (a handful of very large expressions): probes with
// and without splitting per solution. Q-Value requires CNF and therefore
// appears only with splitting.
func Fig8(sc Scale, seed int64) (*Report, error) {
	rep := &Report{
		ID:      "fig8",
		Title:   "Effect of splitting large Boolean expressions",
		Columns: []string{"Q3 split", "Q3 no-split", "Q5 split", "Q5 no-split"},
	}
	type variant struct {
		name    string
		base    resolve.Config
		needCNF bool
	}
	variants := []variant{
		{"Greedy", resolve.Config{Baseline: resolve.BaselineGreedy}, false},
		{"RO", resolve.Config{Utility: resolve.RO{}}, false},
		{"General", resolve.Config{Utility: resolve.General{}}, false},
		{"Q-Value", resolve.Config{Utility: resolve.QValue{}}, true},
	}
	queries := []string{"Q3", "Q5"}

	rows := make(map[string][]float64)
	for qi, q := range queries {
		w, err := LoadTPCH(q, sc, RDTGroundTruth(), seed)
		if err != nil {
			return nil, err
		}
		sub := w.Subset(rowCap(sc), stats.SubSeed(seed, 70+qi))
		for _, v := range variants {
			for _, split := range []bool{true, false} {
				cfg := v.base
				if cfg.Utility != nil {
					cfg.KnownProbs = sub.GT.Prob
				}
				cfg.SplitAll = split
				cfg.DisableSplitting = !split
				val := -1.0 // rendered cell for "not applicable"
				if split || !v.needCNF {
					mean, err := sub.AverageProbes(cfg, 0, sc.Reps, stats.SubSeed(seed, 80+qi))
					if err != nil {
						return nil, err
					}
					val = mean
				}
				rows[v.name] = append(rows[v.name], val)
			}
		}
	}
	for _, v := range variants {
		rep.AddRow(v.name, rows[v.name]...)
	}
	rep.Note("-1 marks configurations that require splitting (Q-Value without splitting)")
	return rep, nil
}

// Fig9 reproduces the learning-mode × initial-repository-size grid on Q8
// with the Q-Value utility and a utility-only selector: EP / Offline /
// Online rows over repository sizes 0, 80, 320, 1280.
func Fig9(sc Scale, seed int64) (*Report, error) {
	sizes := []int{0, 80, 320, 1280}
	rep := &Report{
		ID:    "fig9",
		Title: "Probes vs learning mode and initial repository size (Q8, Q-Value)",
	}
	for _, n := range sizes {
		rep.Columns = append(rep.Columns, fmt.Sprintf("repo=%d", n))
	}
	w, err := LoadTPCH("Q8", sc, RDTGroundTruth(), seed)
	if err != nil {
		return nil, err
	}
	sub := w.Subset(rowCap(sc), stats.SubSeed(seed, 90))

	utilityOnly := resolve.CombineUtilityOnly()
	modes := []struct {
		label string
		mode  resolve.LearningMode
	}{
		{"EP", resolve.LearnEP},
		{"Offline", resolve.LearnOffline},
		{"Online", resolve.LearnOnline},
	}
	for _, m := range modes {
		var values []float64
		for si, n := range sizes {
			cfg := resolve.Config{
				Utility:  resolve.QValue{},
				Learning: m.mode,
				Trees:    sc.Trees,
				Combine:  &utilityOnly,
			}
			mean, err := sub.AverageProbes(cfg, n, sc.Reps, stats.SubSeed(seed, 91+si))
			if err != nil {
				return nil, err
			}
			values = append(values, mean)
		}
		rep.AddRow(m.label, values...)
	}
	rep.Note("expected: Online <= Offline <= EP at every size; Offline narrows the gap as the repository grows")
	return rep, nil
}
