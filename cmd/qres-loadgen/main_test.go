package main

import (
	"strings"
	"testing"
	"time"
)

// TestRunHarnessSmoke runs a short in-process open-loop window over the
// paper workset and checks the report carries the fields CI asserts on.
func TestRunHarnessSmoke(t *testing.T) {
	rep, err := runHarness(harnessConfig{
		Data:          "paper",
		Rate:          20,
		Duration:      1500 * time.Millisecond,
		Drain:         30 * time.Second,
		AnswerLatency: time.Millisecond,
		Strategy:      "general",
		Trees:         10,
		MaxSessions:   64,
		Scrape:        200 * time.Millisecond,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ProbeSamples == 0 {
		t.Fatal("no probe latencies sampled")
	}
	if rep.SessionsCreated == 0 || rep.Answers == 0 {
		t.Fatalf("no load driven: %+v", rep)
	}
	if rep.ClientErrors != 0 {
		t.Errorf("client errors: %d", rep.ClientErrors)
	}
	if rep.P99ProbeMS < rep.P50ProbeMS || rep.P99ProbeMS > rep.MaxProbeMS {
		t.Errorf("p99 %.3f outside [p50 %.3f, max %.3f]", rep.P99ProbeMS, rep.P50ProbeMS, rep.MaxProbeMS)
	}
	// The scraper must have captured server-side series: the probe-route
	// p99 comes only from /metrics.
	if rep.ServerP99ProbeMS <= 0 {
		t.Errorf("no server-side probe p99 scraped: %+v", rep)
	}
	sum := rep.Summary()
	for _, want := range []string{"p50=", "p99=", "retrain_stalls="} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
}

// TestWorkloadQueries covers the per-dataset mixes and the override.
func TestWorkloadQueries(t *testing.T) {
	names, sqls, err := workloadQueries(harnessConfig{Data: "paper"})
	if err != nil || len(names) != 1 || len(sqls) != 1 {
		t.Fatalf("paper mix: %v %v %v", names, sqls, err)
	}
	names, _, err = workloadQueries(harnessConfig{Data: "nell", Queries: []string{"MS1"}})
	if err != nil || len(names) != 1 || names[0] != "MS1" {
		t.Fatalf("nell override: %v %v", names, err)
	}
	if _, _, err := workloadQueries(harnessConfig{Data: "tpch", Queries: []string{"NOPE"}}); err == nil {
		t.Error("unknown query name accepted")
	}
	if _, _, err := workloadQueries(harnessConfig{Data: "bogus"}); err == nil {
		t.Error("unknown workset accepted")
	}
}
