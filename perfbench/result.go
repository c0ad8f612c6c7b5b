package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit. The lists mirror
// BENCHMARK.json; TestEveryMetricEmitted keeps them in step.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"resolve_s", "s"},
	{"first_probe_ms", "ms"},
	{"probe_gap_ms_p50", "ms"},
	{"probes", "count"},
	{"answers_per_s", "1/s"},
	{"mem_peak_mb", "MiB"},
}

var perLayer = []metricDef{
	{"probe_gap_ms_p99", "ms"},
	{"datagen.gen_s", "s"},
	{"learn.lal_train_s", "s"},
	{"store.open_ms", "ms"},
	{"sqlparse.compile_us", "us"},
	{"engine.run_ms", "ms"},
	{"engine.alloc_mb", "MiB"},
	{"engine.gc_cpu_frac", "ratio"},
	{"engine.rows_out", "count"},
	{"engine.prov_terms", "count"},
	{"engine.prov_vars", "count"},
	{"resolve.new_session_ms", "ms"},
	{"resolve.components", "count"},
	{"resolve.next_probe_us_p50", "us"},
	{"resolve.next_probe_us_p99", "us"},
	{"resolve.score_cache_hit_ratio", "ratio"},
	{"resolve.prob_cache_hit_ratio", "ratio"},
	{"resolve.shard_rounds_reused_ratio", "ratio"},
	{"resolve.submit_answer_us_p50", "us"},
	{"resolve.submit_answer_us_p99", "us"},
	{"resolve.tuples_resimplified_per_probe", "count"},
	{"learn.retrains_per_probe", "count"},
	{"resolve.split_ms", "ms"},
	{"resolve.simplify_us", "us"},
	{"learn.retrain_ms", "ms"},
	{"learn.forest_fit_ms", "ms"},
	{"resolve.learner_us", "us"},
	{"resolve.lal_us", "us"},
	{"resolve.utility_us", "us"},
	{"resolve.selector_us", "us"},
	{"store.fsync_ms_p50", "ms"},
	{"store.fsync_ms_p99", "ms"},
	{"store.records_per_batch", "count"},
	{"store.fsyncs_per_answer", "count"},
	{"store.wal_bytes_per_record", "B"},
	{"store.reopen_ms", "ms"},
	{"server.create_ms_p50", "ms"},
	{"server.probe_ms_p99", "ms"},
	{"server.answer_ms_p99", "ms"},
	{"server.retrain_stalls", "count"},
	{"server.rejected_429", "count"},
	{"server.transport_frac", "ratio"},
	{"runtime.sys_peak_mb", "MiB"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.alloc_mb_per_resolution", "MiB"},
	{"obs.trace_overhead_frac", "ratio"},
	{"trace.unattributed_frac", "ratio"},
	{"error_rate", "ratio"},
}

// unattributedTolerance bounds the share of a traced resolution's time that
// no layer-boundary span covers: the boundary self times must sum to the
// resolution time within it.
const unattributedTolerance = 0.05

// setupTimes are the set-up repetitions of one run, in seconds.
type setupTimes struct{ total, gen, lal, storeOpen []float64 }

// repeat runs one set-up n times, each from a collected heap.
func (st *setupTimes) repeat(n int, fn func()) {
	for i := 0; i < n; i++ {
		runtime.GC()
		fn()
	}
}

// runResult accumulates one run.
type runResult struct {
	setup             setupTimes
	res               []resolution
	attempted, failed int
	tr                *tracer        // receives the traced half's spans
	sids              map[string]int // serve-tpch: server session id to resolution id
	rt                runtimeSample  // runtime counters over the measured windows
	windowRes         int            // resolutions completed in the measured windows
	livePeakMB        float64        // peak live heap over the measured windows
	answersPerS       float64        // serve-tpch sets it; batch workloads derive it
	layer             map[string]float64
	spans             map[int][]span                   // traced resolutions' spans, parents assigned
	selfs             map[int]map[string]time.Duration // traced resolutions' self times
}

func newRunResult(o options) *runResult {
	out := &runResult{sids: make(map[string]int), layer: make(map[string]float64)}
	if o.trace {
		out.tr = newTracer()
	}
	return out
}

// add records one finished resolution (warm-up ones carry a negative id
// and count toward correctness only).
func (out *runResult) add(r resolution) {
	out.check(r.ok)
	out.res = append(out.res, r)
}

// check counts one checked operation.
func (out *runResult) check(ok bool) {
	out.attempted++
	if !ok {
		out.failed++
	}
}

// fail records an operation that errored or was refused.
func (out *runResult) fail(err error) {
	out.attempted++
	out.failed++
	fmt.Fprintln(os.Stderr, "perfbench: operation failed:", err)
}

// window runs the measured part: one untraced window of o.seconds, or with
// tracing an untraced half followed by a traced half.
func (out *runResult) window(o options, fn func(tr *tracer, deadline time.Time) error) error {
	rt0 := readRuntime()
	resetLivePeak()
	n0 := len(out.res)
	var err error
	if !o.trace {
		err = fn(nil, time.Now().Add(o.seconds))
	} else if err = fn(nil, time.Now().Add(o.seconds/2)); err == nil {
		err = fn(out.tr, time.Now().Add(o.seconds/2))
	}
	out.rt = readRuntime().sub(rt0)
	out.windowRes = len(out.res) - n0
	out.livePeakMB = float64(livePeak.Load()) / (1 << 20)
	return err
}

// timed returns the measured resolutions of the untraced or traced half.
func (out *runResult) timed(traced bool) []resolution {
	var rs []resolution
	for _, r := range out.res {
		if r.rid >= 0 && r.traced == traced {
			rs = append(rs, r)
		}
	}
	return rs
}

func (out *runResult) gaps() []float64 {
	return pooled(out.timed(false), time.Millisecond, func(r *resolution) []time.Duration { return r.gaps })
}

// gapTail reports the probe-gap sample count and the quantile reported as
// probe_gap_ms_p99.
func (out *runResult) gapTail() (int, float64) {
	n := len(out.gaps())
	return n, tailQuantile(n)
}

// collectSpans gathers the traced resolutions' spans, assigns parents and
// computes self times.
func (out *runResult) collectSpans() {
	keep := make(map[int]bool)
	for _, r := range out.timed(true) {
		keep[r.rid] = true
	}
	out.spans = out.tr.byResolution(out.sids, keep)
	out.selfs = make(map[int]map[string]time.Duration, len(out.spans))
	for rid, ss := range out.spans {
		out.selfs[rid] = selfTimes(ss)
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metrics assembles the result line: the end-to-end metrics of the
// untraced window, or with tracing the per-layer metrics.
func (out *runResult) metrics(trace bool) result {
	var vals map[string]float64
	defs := endToEnd
	if trace {
		vals, defs = out.layerMetrics(), perLayer
	} else {
		vals = out.endToEndMetrics()
	}
	res := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return res
}

func (out *runResult) endToEndMetrics() map[string]float64 {
	rs := out.timed(false)
	gaps := out.gaps()
	aps := out.answersPerS
	if aps == 0 {
		aps = classMean(rs, func(r *resolution) float64 { return ratio(float64(r.probes), r.total.Seconds()) })
	}
	return map[string]float64{
		"setup_s":          median(out.setup.total),
		"resolve_s":        classMean(rs, func(r *resolution) float64 { return r.total.Seconds() }),
		"first_probe_ms":   classMean(rs, func(r *resolution) float64 { return msOf(r.firstProbe) }),
		"probe_gap_ms_p50": quantile(gaps, 0.5),
		"probes":           classMean(rs, func(r *resolution) float64 { return float64(r.probes) }),
		"answers_per_s":    aps,
		"mem_peak_mb":      out.livePeakMB,
	}
}

func (out *runResult) layerMetrics() map[string]float64 {
	rs := out.timed(true)
	gaps := out.gaps()
	m := map[string]float64{
		"probe_gap_ms_p99":       quantile(gaps, tailQuantile(len(gaps))),
		"datagen.gen_s":          median(out.setup.gen),
		"learn.lal_train_s":      median(out.setup.lal),
		"store.open_ms":          median(out.setup.storeOpen) * 1e3,
		"sqlparse.compile_us":    classMean(rs, func(r *resolution) float64 { return usOf(r.compile) }),
		"engine.run_ms":          classMean(rs, func(r *resolution) float64 { return msOf(r.engineRun) }),
		"engine.alloc_mb":        classMean(rs, func(r *resolution) float64 { return r.engineAllocBytes / (1 << 20) }),
		"engine.rows_out":        classMean(rs, func(r *resolution) float64 { return float64(r.rowsOut) }),
		"engine.prov_terms":      classMean(rs, func(r *resolution) float64 { return float64(r.provTerms) }),
		"engine.prov_vars":       classMean(rs, func(r *resolution) float64 { return float64(r.provVars) }),
		"resolve.new_session_ms": classMean(rs, func(r *resolution) float64 { return msOf(r.newSession) }),
		"resolve.components":     classMean(rs, func(r *resolution) float64 { return float64(r.components) }),
		"error_rate":             ratio(float64(out.failed), float64(out.attempted)),
	}
	next := pooled(rs, time.Microsecond, func(r *resolution) []time.Duration { return r.nextProbe })
	submit := pooled(rs, time.Microsecond, func(r *resolution) []time.Duration { return r.submit })
	m["resolve.next_probe_us_p50"] = quantile(next, 0.5)
	m["resolve.next_probe_us_p99"] = quantile(next, tailQuantile(len(next)))
	m["resolve.submit_answer_us_p50"] = quantile(submit, 0.5)
	m["resolve.submit_answer_us_p99"] = quantile(submit, tailQuantile(len(submit)))

	var sum resolution
	scoredShardRounds := 0
	for _, r := range rs {
		sum.engineGCCPU += r.engineGCCPU
		sum.engineCPU += r.engineCPU
		sum.scoreHits += r.scoreHits
		sum.scoreMisses += r.scoreMisses
		sum.probHits += r.probHits
		sum.probMisses += r.probMisses
		sum.shardReused += r.shardReused
		sum.resimplified += r.resimplified
		sum.retrains += r.retrains
		sum.probes += r.probes
	}
	for _, ss := range out.spans {
		for _, s := range ss {
			scoredShardRounds += s.shards
		}
	}
	m["engine.gc_cpu_frac"] = ratio(sum.engineGCCPU, sum.engineCPU)
	m["resolve.score_cache_hit_ratio"] = ratio(float64(sum.scoreHits), float64(sum.scoreHits+sum.scoreMisses))
	m["resolve.prob_cache_hit_ratio"] = ratio(float64(sum.probHits), float64(sum.probHits+sum.probMisses))
	m["resolve.shard_rounds_reused_ratio"] = ratio(float64(sum.shardReused), float64(sum.shardReused+scoredShardRounds))
	m["resolve.tuples_resimplified_per_probe"] = ratio(float64(sum.resimplified), float64(sum.probes))
	m["learn.retrains_per_probe"] = ratio(float64(sum.retrains), float64(sum.probes))

	// Stage self times from the program's spans: split once per
	// resolution, the rest per probe.
	self := func(name string, unit time.Duration, perProbe bool) float64 {
		return classMean(rs, func(r *resolution) float64 {
			v := float64(out.selfs[r.rid][name]) / float64(unit)
			if perProbe {
				return ratio(v, float64(r.probes))
			}
			return v
		})
	}
	m["resolve.split_ms"] = self("stage.split", time.Millisecond, false)
	m["resolve.simplify_us"] = self("stage.simplify", time.Microsecond, true)
	m["learn.retrain_ms"] = self("stage.retrain", time.Millisecond, true)
	m["learn.forest_fit_ms"] = self("stage.forest_fit", time.Millisecond, true)
	m["resolve.learner_us"] = self("stage.learner", time.Microsecond, true)
	m["resolve.lal_us"] = self("stage.lal", time.Microsecond, true)
	m["resolve.utility_us"] = self("stage.utility", time.Microsecond, true)
	m["resolve.selector_us"] = self("stage.selector", time.Microsecond, true)
	m["trace.unattributed_frac"] = out.unattributed(rs)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["runtime.sys_peak_mb"] = float64(ms.Sys) / (1 << 20)
	m["runtime.gc_cpu_frac"] = ratio(out.rt.gcCPU, out.rt.totalCPU)
	m["runtime.alloc_mb_per_resolution"] = ratio(out.rt.allocBytes/(1<<20), float64(out.windowRes))
	untraced := classMean(out.timed(false), func(r *resolution) float64 { return r.total.Seconds() })
	traced := classMean(rs, func(r *resolution) float64 { return r.total.Seconds() })
	m["obs.trace_overhead_frac"] = ratio(traced, untraced) - 1
	for k, v := range out.layer {
		m[k] = v
	}
	return m
}

// unattributed is the share of the traced resolutions' time (think time
// excluded) that no layer-boundary span covers.
func (out *runResult) unattributed(rs []resolution) float64 {
	var root, total time.Duration
	for _, r := range rs {
		root += out.selfs[r.rid]["resolution"]
		total += r.total
	}
	return ratio(float64(root), float64(total))
}

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }
func usOf(d time.Duration) float64 { return float64(d) / 1e3 }

// writeLayerTable prints the traced half's self time per span name, per
// resolution, with its share of the resolution time, and the boundary check.
func writeLayerTable(w io.Writer, workload string, out *runResult) {
	rs := out.timed(true)
	if len(rs) == 0 {
		return
	}
	var total time.Duration
	sums := make(map[string]time.Duration)
	for _, r := range rs {
		total += r.total
		for name, d := range out.selfs[r.rid] {
			sums[name] += d
		}
	}
	names := make([]string, 0, len(sums))
	for n := range sums {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return sums[names[i]] > sums[names[j]] })
	fmt.Fprintf(w, "layer self time, %s, %d traced resolutions (resolve time excludes oracle think time)\n", workload, len(rs))
	fmt.Fprintf(w, "%-28s %14s %8s\n", "span", "ms/resolution", "share")
	for _, n := range names {
		if n == "oracle.think" {
			continue
		}
		per := msOf(sums[n]) / float64(len(rs))
		fmt.Fprintf(w, "%-28s %14.3f %7.2f%%\n", n, per, 100*ratio(float64(sums[n]), float64(total)))
	}
	u := out.unattributed(rs)
	verdict := "ok"
	if u > unattributedTolerance {
		verdict = "EXCEEDED"
	}
	fmt.Fprintf(w, "boundary self times sum to resolve time within %.0f%%: unattributed %.3f%% (%s)\n",
		100*unattributedTolerance, 100*u, verdict)
}
