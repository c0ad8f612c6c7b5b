// Command perfbench is the repository's end-to-end benchmark: one named
// workload per process, from SQL text to every answer row decided, with
// every resolution checked against the ground truth. Run it through
// run.py, which builds it from the checkout:
//
//	python3 perfbench/run.py --workload nell-ms1 --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the last line of standard output carries the end-to-end
// metrics; with --trace 1 the run is split into an untraced and a traced
// half, and the last line carries the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	workDir  string // scratch space inside the checkout
	commit   string
	digest   string
}

// params size a workload. fullParams are the benchmark's sizes; the tests
// use tinyParams.
type params struct {
	setupReps  int
	athletes   int     // nell-ms1 knowledge base size
	initProbes int     // nell-ms1 seeded repository size
	trees      int     // forest size of online-learning sessions
	sf         float64 // TPC-H scale factor
	clients    int     // serve-tpch closed-loop clients
	think      time.Duration
	flip       bool // answer every probe wrongly (negative test only)
}

func fullParams(workload string) params {
	switch workload {
	case "nell-ms1":
		return params{setupReps: 5, athletes: 150, initProbes: 320, trees: 25}
	case "tpch-q3-q10":
		return params{setupReps: 3, sf: 0.1}
	default:
		return params{setupReps: 5, sf: 0.01, trees: 25, clients: 2, think: time.Millisecond}
	}
}

var workloads = map[string]func(params, options, *runResult) error{
	"nell-ms1":    runBatch(newNELL),
	"tpch-q3-q10": runBatch(newTPCH),
	"serve-tpch":  runServe,
}

func runBatch(build func(params, int64, *setupTimes) (*batch, error)) func(params, options, *runResult) error {
	return func(p params, o options, out *runResult) error {
		b, err := build(p, o.seed, &out.setup)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		return b.run(o, out)
	}
}

func main() {
	var o options
	var secs int
	flag.StringVar(&o.workload, "workload", "", "workload name: nell-ms1, tpch-q3-q10 or serve-tpch")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&secs, "seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.workDir, "workdir", ".bench_build/work", "scratch directory")
	flag.StringVar(&o.commit, "commit", "unknown", "commit being measured")
	flag.StringVar(&o.digest, "source-digest", "unknown", "digest of the measured sources")
	flag.Parse()
	o.seconds, o.trace = time.Duration(secs)*time.Second, *trace == 1
	if _, ok := workloads[o.workload]; !ok || secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload nell-ms1|tpch-q3-q10|serve-tpch, --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	if err := run(o, fullParams(o.workload), os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one workload and writes the header, the traced run's layer
// table, and the result line to w.
func run(o options, p params, w io.Writer) error {
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return err
	}
	out := newRunResult(o)
	if err := workloads[o.workload](p, o, out); err != nil {
		return err
	}
	if o.trace {
		out.collectSpans()
	}
	if err := json.NewEncoder(w).Encode(map[string]any{"header": header(o, out)}); err != nil {
		return err
	}
	if o.trace {
		writeLayerTable(w, o.workload, out)
		path := filepath.Join(o.workDir, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
		if err := writeSpans(path, out.spans); err != nil {
			return err
		}
		fmt.Fprintf(w, "spans written to %s\n", path)
	}
	return json.NewEncoder(w).Encode(out.metrics(o.trace))
}

// header describes the host and the build a result was measured on.
func header(o options, out *runResult) map[string]any {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	n, p := out.gapTail()
	return map[string]any{
		"cpu_model":         cpuModel(),
		"nproc":             runtime.NumCPU(),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"gogc":              gogc,
		"go_version":        runtime.Version(),
		"commit":            o.commit,
		"source_digest":     o.digest,
		"workload":          o.workload,
		"seed":              o.seed,
		"seconds":           o.seconds.Seconds(),
		"trace":             o.trace,
		"resolutions":       len(out.timed(false)) + len(out.timed(true)),
		"probe_gap_samples": n,
		"probe_gap_tail_q":  p,
		"trace_tolerance":   unattributedTolerance,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
