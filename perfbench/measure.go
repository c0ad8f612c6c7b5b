package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// resolution is everything one resolution (SQL text to every row decided)
// reports. Oracle think time is excluded from every duration.
type resolution struct {
	rid    int
	class  string // query class; metrics take the median per class
	traced bool
	ok     bool // every row decided and the decided-correct rows match the ground truth

	total      time.Duration   // SQL submitted to every row decided
	firstProbe time.Duration   // SQL submitted to the first probe in hand
	think      time.Duration   // oracle think time, excluded from total
	gaps       []time.Duration // answer given to the next probe in hand
	probes     int

	// Layer boundaries of the batch workloads (zero on serve-tpch, where
	// these calls run inside the server).
	compile, engineRun, newSession time.Duration
	nextProbe, submit              []time.Duration
	engineAllocBytes               float64
	engineGCCPU, engineCPU         float64
	rowsOut, provTerms, provVars   int
	components                     int
	scoreHits, scoreMisses         int
	probHits, probMisses           int
	shardReused                    int
	resimplified, retrains         int
}

// runtimeSample reads the runtime counters the benchmark derives allocation
// and GC-share metrics from. runtime/metrics reads do not stop the world.
type runtimeSample struct{ allocBytes, gcCPU, totalCPU float64 }

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: val(0), gcCPU: val(1), totalCPU: val(2)}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocBytes - b.allocBytes, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

// livePeak is the largest live heap a GC cycle has marked since the last
// reset. A finalizer that re-arms itself samples it after every cycle, so
// the peak does not depend on when the benchmark looks.
var (
	livePeak      atomic.Uint64
	watchLiveOnce sync.Once
)

func armLiveHeapSampler() {
	sentinel := new([64]byte)
	runtime.SetFinalizer(sentinel, func(*[64]byte) {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > livePeak.Load() {
			livePeak.Store(v)
		}
		armLiveHeapSampler()
	})
}

// resetLivePeak starts a new live-heap peak, arming the sampler on first use.
func resetLivePeak() {
	watchLiveOnce.Do(armLiveHeapSampler)
	livePeak.Store(0)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the linearly interpolated p-quantile of xs (0 when empty).
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := p * float64(len(s)-1)
	lo, hi := int(math.Floor(r)), int(math.Ceil(r))
	return s[lo] + (s[hi]-s[lo])*(r-float64(lo))
}

// tailQuantile is the highest percentile, at most p99, that still has at
// least ten samples beyond it; below 20 samples it is the median.
func tailQuantile(n int) float64 {
	if n <= 0 {
		return 0.5
	}
	return math.Max(0.5, math.Min(0.99, 1-10/float64(n)))
}

// classMean takes the median of f over each query class's resolutions and
// averages the class medians, so a workload that alternates queries of
// different cost reports a figure that does not jump with the parity of
// the resolution count.
func classMean(rs []resolution, f func(r *resolution) float64) float64 {
	by := make(map[string][]float64)
	for i := range rs {
		by[rs[i].class] = append(by[rs[i].class], f(&rs[i]))
	}
	if len(by) == 0 {
		return 0
	}
	sum := 0.0
	for _, xs := range by {
		sum += median(xs)
	}
	return sum / float64(len(by))
}

// pooled flattens per-resolution duration lists into floats of unit.
func pooled(rs []resolution, unit time.Duration, f func(r *resolution) []time.Duration) []float64 {
	var out []float64
	for i := range rs {
		for _, d := range f(&rs[i]) {
			out = append(out, float64(d)/float64(unit))
		}
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
