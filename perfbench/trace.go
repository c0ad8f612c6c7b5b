package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"qres/internal/obs"
)

// span is one timed interval of a traced run. The benchmark records a span
// around every call it makes into a layer's entry point; the program's own
// pipeline stages arrive through the resolve.Config.Obs / server.Config.Trace
// hook as stage spans. Parents are assigned after the run by interval
// containment within one resolution, so the program needs no span IDs.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the resolution's spans, -1 for the root
	RID    int    `json:"rid"`    // resolution id
	sid    string // server session id, mapped to RID after the run
	shards int    // learner spans: component shards scored that round
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced resolutions run.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	rid    int // resolution the batch workloads are currently running
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// record stores a benchmark-side span for resolution rid.
func (t *tracer) record(name string, rid int, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{Name: name, Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin)), RID: rid}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// setResolution tags the stage spans that follow with rid (batch workloads
// run one resolution at a time, so the current one owns every stage span).
func (t *tracer) setResolution(rid int) {
	t.mu.Lock()
	t.rid = rid
	t.mu.Unlock()
}

// ignoredStages are stage spans that do not nest inside one layer call: the
// probe span measures the oracle's answer latency (from NextProbe's return
// into SubmitAnswer), and query_op spans report inclusive operator times
// that all share the evaluation's start.
var ignoredStages = map[obs.Stage]bool{obs.StageProbe: true, obs.StageQueryOperator: true}

// Emit implements obs.Sink for the program's stage spans.
func (t *tracer) Emit(ev obs.Event) {
	if ignoredStages[ev.Stage] {
		return
	}
	s := span{
		Name:  "stage." + string(ev.Stage),
		Start: int64(ev.Time.Sub(t.origin)),
		sid:   ev.SessionID,
	}
	s.End = s.Start + int64(ev.Dur)
	if ev.Stage == obs.StageLearner {
		for _, a := range ev.Attrs {
			if n, ok := a.Value.(int); ok && a.Key == "shards" {
				s.shards = n
			}
		}
	}
	t.mu.Lock()
	s.RID = t.rid
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// byResolution groups the spans per resolution, mapping server session ids
// through sids, and assigns each span's parent: the innermost span of the
// same resolution whose interval contains it. Spans of resolutions not in
// keep (warm-up, untraced) are dropped.
func (t *tracer) byResolution(sids map[string]int, keep map[int]bool) map[int][]span {
	out := make(map[int][]span)
	for _, s := range t.spans {
		if s.sid != "" {
			rid, ok := sids[s.sid]
			if !ok {
				continue
			}
			s.RID = rid
		}
		if keep[s.RID] {
			out[s.RID] = append(out[s.RID], s)
		}
	}
	for _, ss := range out {
		sort.SliceStable(ss, func(i, j int) bool {
			if ss[i].Start != ss[j].Start {
				return ss[i].Start < ss[j].Start
			}
			return ss[i].End > ss[j].End
		})
		var stack []int
		for i := range ss {
			for len(stack) > 0 && ss[stack[len(stack)-1]].End < ss[i].End {
				stack = stack[:len(stack)-1]
			}
			ss[i].Parent = -1
			if len(stack) > 0 {
				ss[i].Parent = stack[len(stack)-1]
			}
			stack = append(stack, i)
		}
	}
	return out
}

// selfTimes returns, per span name, the summed self time (duration minus
// the time its direct children cover) of one resolution's spans.
func selfTimes(ss []span) map[string]time.Duration {
	self := make(map[string]time.Duration)
	for _, s := range ss {
		self[s.Name] += time.Duration(s.dur())
	}
	for _, s := range ss {
		if s.Parent >= 0 {
			self[ss[s.Parent].Name] -= time.Duration(s.dur())
		}
	}
	return self
}

// writeSpans writes the spans, resolution by resolution, one JSON object
// per line.
func writeSpans(path string, spans map[int][]span) error {
	rids := make([]int, 0, len(spans))
	for rid := range spans {
		rids = append(rids, rid)
	}
	sort.Ints(rids)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, rid := range rids {
		for _, s := range spans[rid] {
			if err := enc.Encode(s); err != nil {
				return fmt.Errorf("encode span: %w", err)
			}
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
