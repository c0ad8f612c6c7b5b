package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// tinyParams shrink every workload to run in about a second.
func tinyParams(workload string) params {
	switch workload {
	case "nell-ms1":
		return params{setupReps: 2, athletes: 40, initProbes: 20, trees: 5}
	case "tpch-q3-q10":
		return params{setupReps: 2, sf: 0.005}
	default:
		return params{setupReps: 2, sf: 0.003, trees: 5, clients: 2, think: 100 * time.Microsecond}
	}
}

// benchmarkFile is the part of BENCHMARK.json the tests check against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// runTiny runs one workload at tiny size and decodes its result line.
func runTiny(t *testing.T, workload string, trace bool, p params) result {
	t.Helper()
	o := options{workload: workload, seed: 7, seconds: 400 * time.Millisecond, trace: trace, workDir: t.TempDir()}
	var buf bytes.Buffer
	if err := run(o, p, &buf); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: result line: %v\n%s", workload, err, buf.String())
	}
	if !strings.HasPrefix(lines[0], `{"header":`) {
		t.Errorf("%s: first line is not the host header: %s", workload, lines[0])
	}
	return res
}

// TestEveryMetricEmitted checks that every metric BENCHMARK.json names is
// emitted with its unit on every workload, untraced and traced, that every
// resolution is correct, and that the traced run's layer-boundary spans
// cover the resolution time within the stated tolerance.
func TestEveryMetricEmitted(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) == 0 {
		t.Fatal("BENCHMARK.json lists no workloads")
	}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
		for _, trace := range []bool{false, true} {
			res := runTiny(t, w.Name, trace, tinyParams(w.Name))
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics emitted, BENCHMARK.json lists %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%t: metric %s not emitted", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%t: metric %s unit %q, BENCHMARK.json says %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if trace {
				if u := res.Metrics["trace.unattributed_frac"].Value; u > unattributedTolerance {
					t.Errorf("%s: %.2f%% of resolution time outside every boundary span (tolerance %.0f%%)", w.Name, 100*u, 100*unattributedTolerance)
				}
			} else if res.Metrics["resolve_s"].Value <= 0 || res.Metrics["setup_s"].Value <= 0 {
				t.Errorf("%s: resolve_s and setup_s must be measured, got %+v", w.Name, res.Metrics)
			}
		}
	}
}

// TestFlippedOracleFails is the negative test of the correctness check: an
// oracle that answers every probe wrongly makes the resolved answer sets
// differ from the ground truth, which must show as failures and a positive
// error_rate.
func TestFlippedOracleFails(t *testing.T) {
	for _, workload := range []string{"nell-ms1", "serve-tpch"} {
		p := tinyParams(workload)
		p.flip = true
		res := runTiny(t, workload, true, p)
		if res.Correct || res.Failed == 0 || res.Metrics["error_rate"].Value <= 0 {
			t.Errorf("%s with a flipped oracle: correct=%t failed=%d error_rate=%g, want failures",
				workload, res.Correct, res.Failed, res.Metrics["error_rate"].Value)
		}
	}
}
