// Command qres-loadgen drives qres-serve with open-loop synthetic load
// and reports tail latency: arrivals start new resolution sessions at a
// fixed rate regardless of how fast the server keeps up (so queueing
// delay is measured, not hidden), each session alternates probe fetches
// with answers after a configurable oracle think time, and the server's
// /metrics surface is scraped alongside the client-side latency samples.
//
// The run report — p50/p99 probe latency, answer throughput, retrain
// stalls on the answer path, and 429 backpressure rejections — is printed;
// the command writes no files. With no -addr the harness starts an
// in-process qres-serve equivalent, which is how the CI smoke step runs
// it:
//
//	go run ./cmd/qres-loadgen -data paper -rate 20 -duration 3s -answer-latency 1ms
//	go run ./cmd/qres-loadgen -addr http://127.0.0.1:8080 -data tpch -rate 5 -duration 1m
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"
)

func main() {
	var (
		addr      = flag.String("addr", "", "target server base URL (empty: start an in-process server)")
		data      = flag.String("data", "paper", "workset: paper | tpch | nell (dataset for in-process mode, query mix always)")
		sf        = flag.Float64("sf", 0.002, "TPC-H scale factor (in-process, -data tpch)")
		athletes  = flag.Int("athletes", 220, "NELL athlete count (in-process, -data nell)")
		queries   = flag.String("queries", "", "comma-separated query names overriding the -data default mix")
		rate      = flag.Float64("rate", 5, "session arrivals per second (open loop)")
		duration  = flag.Duration("duration", 10*time.Second, "arrival window")
		drain     = flag.Duration("drain", 30*time.Second, "extra time for in-flight sessions to finish after the arrival window")
		answerLat = flag.Duration("answer-latency", 5*time.Millisecond, "simulated oracle think time per answer")
		strategy  = flag.String("strategy", "general", "session strategy (general, qvalue, ro, random, greedy, lal-only)")
		trees     = flag.Int("trees", 25, "forest size per session")
		sessions  = flag.Int("max-sessions", 64, "in-process server session cap (drives 429 backpressure)")
		storeDir  = flag.String("store-dir", "", "persist the in-process server's repository here (measures the durable answer path)")
		scrape    = flag.Duration("scrape", 2*time.Second, "/metrics scrape interval")
		seed      = flag.Int64("seed", 1, "seed for arrival jitter, query mix and synthetic answers")
	)
	flag.Parse()

	cfg := harnessConfig{
		Addr:          *addr,
		Data:          *data,
		SF:            *sf,
		Athletes:      *athletes,
		Rate:          *rate,
		Duration:      *duration,
		Drain:         *drain,
		AnswerLatency: *answerLat,
		Strategy:      *strategy,
		Trees:         *trees,
		MaxSessions:   *sessions,
		StoreDir:      *storeDir,
		Scrape:        *scrape,
		Seed:          *seed,
	}
	if *queries != "" {
		cfg.Queries = strings.Split(*queries, ",")
	}

	rep, err := runHarness(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep.Summary())
	if rep.ProbeSamples == 0 {
		fmt.Fprintln(os.Stderr, "qres-loadgen: no probe latency samples collected")
		os.Exit(1)
	}
}
