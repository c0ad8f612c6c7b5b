package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"qres/internal/datagen"
	"qres/internal/obs"
	"qres/internal/server"
	"qres/internal/stats"
	"qres/internal/store"
	"qres/internal/testdb"
	"qres/internal/uncertain"
)

// paperSQL is the paper's Figure 2 query, the workset for -data paper.
const paperSQL = `
SELECT DISTINCT a.Acquired, e.Institute
FROM Acquisitions AS a, Roles AS r, Education AS e
WHERE a.Acquired = r.Organization AND
      r.Member = e.Alumni AND a.Date >= 2017.01.01 AND
      r.Role LIKE '%found%' AND e.YEAR <= year(a.Date)
`

// harnessConfig parameterizes one open-loop run.
type harnessConfig struct {
	// Addr targets a running server ("http://host:port"); empty starts an
	// in-process one over the Data dataset.
	Addr string
	// Data picks the workset: paper, tpch or nell.
	Data     string
	SF       float64
	Athletes int
	// Queries overrides the per-dataset default query mix (names from the
	// datagen catalogs; ignored for paper, whose mix is the Fig. 2 query).
	Queries []string
	// Rate is the arrival rate in sessions/second; arrivals continue for
	// Duration regardless of server progress (open loop).
	Rate     float64
	Duration time.Duration
	// Drain bounds how long in-flight sessions may run on after the
	// arrival window closes.
	Drain         time.Duration
	AnswerLatency time.Duration
	Strategy      string
	Trees         int
	// MaxSessions caps the in-process server (ignored with Addr).
	MaxSessions int
	// StoreDir, when set, persists the in-process server's shared
	// repository there (ignored with Addr), putting the durable answer
	// path — WAL append + fsync per answer — inside the measured latency.
	StoreDir string
	Scrape   time.Duration
	Seed     int64
}

// report is one harness run: client-observed latency and throughput plus
// the server-side counters scraped from /metrics.
type report struct {
	Workload          string
	Target            string
	RatePerSec        float64
	DurationSec       float64
	AnswerLatencyMS   float64
	Arrivals          int
	SessionsCreated   int
	SessionsCompleted int
	Rejected429       int
	ClientErrors      int
	Answers           int
	ComponentGroups   int64
	ThroughputPerSec  float64
	ProbeSamples      int
	P50ProbeMS        float64
	P90ProbeMS        float64
	P99ProbeMS        float64
	MaxProbeMS        float64
	RetrainStalls     int64
	ServerRejected    int64
	TraceDropped      int64
	ServerP99ProbeMS  float64
}

// Summary renders the run as the human-readable block the CI smoke step
// greps (it must mention p50 and p99).
func (r *report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "qres-loadgen %s target=%s rate=%.1f/s window=%.1fs answer-latency=%.1fms\n",
		r.Workload, r.Target, r.RatePerSec, r.DurationSec, r.AnswerLatencyMS)
	fmt.Fprintf(&b, "  arrivals=%d created=%d completed=%d rejected_429=%d errors=%d\n",
		r.Arrivals, r.SessionsCreated, r.SessionsCompleted, r.Rejected429, r.ClientErrors)
	fmt.Fprintf(&b, "  probe latency (client, %d samples): p50=%.2fms p90=%.2fms p99=%.2fms max=%.2fms\n",
		r.ProbeSamples, r.P50ProbeMS, r.P90ProbeMS, r.P99ProbeMS, r.MaxProbeMS)
	fmt.Fprintf(&b, "  throughput=%.1f answers/s (%d answers)\n", r.ThroughputPerSec, r.Answers)
	fmt.Fprintf(&b, "  server: retrain_stalls=%d rejected_429=%d trace_dropped=%d probe-route p99=%.2fms\n",
		r.RetrainStalls, r.ServerRejected, r.TraceDropped, r.ServerP99ProbeMS)
	fmt.Fprintf(&b, "  sharding: peak_component_groups=%d\n", r.ComponentGroups)
	return b.String()
}

// workloadQueries resolves the run's query mix to (name, SQL) pairs.
func workloadQueries(cfg harnessConfig) (names []string, sqls []string, err error) {
	var catalog map[string]string
	switch cfg.Data {
	case "paper":
		return []string{"FIG2"}, []string{paperSQL}, nil
	case "tpch":
		catalog = datagen.TPCHQueries()
		names = []string{"Q3", "Q5", "Q10"}
	case "nell":
		catalog = datagen.NELLQueries()
		names = []string{"MS1", "MS2", "S1"}
	default:
		return nil, nil, fmt.Errorf("unknown workset %q (want paper, tpch or nell)", cfg.Data)
	}
	if len(cfg.Queries) > 0 {
		names = cfg.Queries
	}
	for _, n := range names {
		sql, ok := catalog[strings.TrimSpace(n)]
		if !ok {
			return nil, nil, fmt.Errorf("unknown %s query %q", cfg.Data, n)
		}
		sqls = append(sqls, sql)
	}
	return names, sqls, nil
}

// inprocessDB builds the dataset for in-process mode.
func inprocessDB(cfg harnessConfig) (*uncertain.DB, error) {
	switch cfg.Data {
	case "paper":
		return testdb.PaperUncertainDB(), nil
	case "tpch":
		return datagen.TPCH(datagen.TPCHConfig{SF: cfg.SF, Seed: cfg.Seed}), nil
	case "nell":
		return datagen.NELL(datagen.NELLConfig{Athletes: cfg.Athletes, Seed: cfg.Seed}), nil
	default:
		return nil, fmt.Errorf("unknown workset %q", cfg.Data)
	}
}

// latencyRecorder accumulates client-observed latencies concurrently.
type latencyRecorder struct {
	mu      sync.Mutex
	samples []float64 // milliseconds
}

func (l *latencyRecorder) add(d time.Duration) {
	l.mu.Lock()
	l.samples = append(l.samples, float64(d.Microseconds())/1e3)
	l.mu.Unlock()
}

// percentiles reports (count, p50, p90, p99, max) over the samples.
func (l *latencyRecorder) percentiles() (int, float64, float64, float64, float64) {
	l.mu.Lock()
	sorted := append([]float64(nil), l.samples...)
	l.mu.Unlock()
	if len(sorted) == 0 {
		return 0, 0, 0, 0, 0
	}
	sort.Float64s(sorted)
	return len(sorted),
		stats.Percentile(sorted, 0.5),
		stats.Percentile(sorted, 0.9),
		stats.Percentile(sorted, 0.99),
		sorted[len(sorted)-1]
}

// counters tracks client-side tallies under one lock.
type counters struct {
	mu        sync.Mutex
	created   int
	completed int
	rejected  int
	errors    int
	answers   int
}

func (c *counters) bump(field *int) {
	c.mu.Lock()
	*field++
	c.mu.Unlock()
}

// loadClient issues the v1 session API calls and records latencies.
type loadClient struct {
	base string
	hc   *http.Client
	lat  *latencyRecorder
	ctr  *counters
}

// doJSON performs one request with an optional JSON body, decoding a 2xx
// JSON response into out.
func (c *loadClient) doJSON(ctx context.Context, method, path string, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
	return resp.StatusCode, nil
}

// driveSession runs one synthetic session to completion: create, then
// alternate probe fetches (timed — this is the latency the report's
// p50/p99 summarize) with answers after the configured think time. The
// session's answers are random but seeded, so a run is reproducible.
func (c *loadClient) driveSession(ctx context.Context, cfg harnessConfig, query string, rng *rand.Rand) {
	create := server.CreateSessionRequest{
		Query:    query,
		Strategy: cfg.Strategy,
		Seed:     rng.Int63(),
		Trees:    cfg.Trees,
	}
	var info server.SessionInfo
	status, err := c.doJSON(ctx, http.MethodPost, "/v1/sessions", create, &info)
	switch {
	case err != nil:
		c.ctr.bump(&c.ctr.errors)
		return
	case status == http.StatusTooManyRequests:
		c.ctr.bump(&c.ctr.rejected)
		return
	case status != http.StatusCreated:
		c.ctr.bump(&c.ctr.errors)
		return
	}
	c.ctr.bump(&c.ctr.created)
	sessionPath := "/v1/sessions/" + info.ID

	defer func() {
		// Delete with a fresh context: the run context may already be done.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		c.doJSON(ctx, http.MethodDelete, sessionPath, nil, nil) //nolint:errcheck // best-effort cleanup
	}()

	for ctx.Err() == nil {
		var pr server.ProbeResponse
		start := time.Now()
		status, err := c.doJSON(ctx, http.MethodGet, sessionPath+"/probe", nil, &pr)
		if err != nil || status != http.StatusOK {
			if ctx.Err() == nil {
				c.ctr.bump(&c.ctr.errors)
			}
			return
		}
		c.lat.add(time.Since(start))
		if pr.Done {
			c.ctr.bump(&c.ctr.completed)
			return
		}
		if cfg.AnswerLatency > 0 {
			select {
			case <-time.After(cfg.AnswerLatency):
			case <-ctx.Done():
				return
			}
		}
		ans := server.AnswerRequest{Table: pr.Probe.Table, Index: pr.Probe.Index, Answer: rng.Intn(2) == 0}
		status, err = c.doJSON(ctx, http.MethodPost, sessionPath+"/answer", ans, nil)
		if err != nil || status != http.StatusOK {
			if ctx.Err() == nil {
				c.ctr.bump(&c.ctr.errors)
			}
			return
		}
		c.ctr.bump(&c.ctr.answers)
	}
}

// runHarness executes one open-loop run and assembles the report.
func runHarness(cfg harnessConfig) (*report, error) {
	_, sqls, err := workloadQueries(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("rate must be positive, got %g", cfg.Rate)
	}

	target := cfg.Addr
	targetLabel := cfg.Addr
	if cfg.Addr == "" {
		udb, err := inprocessDB(cfg)
		if err != nil {
			return nil, err
		}
		scfg := server.Config{
			DB:          udb,
			MaxSessions: cfg.MaxSessions,
			SessionTTL:  5 * time.Minute,
			Registry:    obs.NewRegistry(),
		}
		if cfg.StoreDir != "" {
			st, repo, err := store.Open(cfg.StoreDir, store.Options{
				NameFn:    udb.Registry().Name,
				ResolveFn: udb.Registry().Lookup,
				Metrics:   scfg.Registry,
			})
			if err != nil {
				return nil, err
			}
			scfg.Store = st
			scfg.Repo = repo
		}
		srv, err := server.New(scfg)
		if err != nil {
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		go srv.Serve(ln)  //nolint:errcheck // returns ErrServerClosed on Shutdown
		defer srv.Close() //nolint:errcheck // best-effort teardown
		target = "http://" + ln.Addr().String()
		targetLabel = "in-process"
	}

	client := &loadClient{
		base: target,
		hc:   &http.Client{Timeout: 30 * time.Second},
		lat:  &latencyRecorder{},
		ctr:  &counters{},
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.Duration+cfg.Drain)
	defer cancel()

	// Metrics scraper: keep the last successful exposition for the report,
	// plus the peak of the component-group gauge — live gauges read zero on
	// the post-drain final scrape, so the mid-run high-water mark is the
	// number that describes the sharded-serving run.
	var scrapeMu sync.Mutex
	var lastScrape string
	var peakGroups float64
	scrapeOnce := func() {
		req, err := http.NewRequest(http.MethodGet, target+"/metrics", nil)
		if err != nil {
			return
		}
		resp, err := client.hc.Do(req)
		if err != nil {
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			return
		}
		scrapeMu.Lock()
		lastScrape = string(body)
		if g := parseExposition(lastScrape).sum("qres_component_groups_active"); g > peakGroups {
			peakGroups = g
		}
		scrapeMu.Unlock()
	}
	scrapeStop := make(chan struct{})
	go func() {
		t := time.NewTicker(cfg.Scrape)
		defer t.Stop()
		for {
			select {
			case <-scrapeStop:
				return
			case <-t.C:
				scrapeOnce()
			}
		}
	}()

	// Open-loop arrivals: a new session every 1/rate seconds for the
	// arrival window, whether or not earlier sessions have finished.
	interval := time.Duration(float64(time.Second) / cfg.Rate)
	if interval <= 0 {
		interval = time.Millisecond
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var wg sync.WaitGroup
	arrivals := 0
	ticker := time.NewTicker(interval)
	window := time.After(cfg.Duration)
	start := time.Now()
arrivalLoop:
	for {
		select {
		case <-window:
			break arrivalLoop
		case <-ctx.Done():
			break arrivalLoop
		case <-ticker.C:
			arrivals++
			query := sqls[rng.Intn(len(sqls))]
			sessRng := rand.New(rand.NewSource(rng.Int63()))
			wg.Add(1)
			go func() {
				defer wg.Done()
				client.driveSession(ctx, cfg, query, sessRng)
			}()
		}
	}
	ticker.Stop()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		<-done // drivers observe ctx and return promptly
	}
	elapsed := time.Since(start)
	scrapeOnce()
	close(scrapeStop)

	scrapeMu.Lock()
	metricsText := lastScrape
	scrapeMu.Unlock()
	sc := parseExposition(metricsText)

	n, p50, p90, p99, max := client.lat.percentiles()
	client.ctr.mu.Lock()
	defer client.ctr.mu.Unlock()
	rep := &report{
		Workload:          cfg.Data,
		Target:            targetLabel,
		RatePerSec:        cfg.Rate,
		DurationSec:       cfg.Duration.Seconds(),
		AnswerLatencyMS:   float64(cfg.AnswerLatency.Microseconds()) / 1e3,
		Arrivals:          arrivals,
		SessionsCreated:   client.ctr.created,
		SessionsCompleted: client.ctr.completed,
		Rejected429:       client.ctr.rejected,
		ClientErrors:      client.ctr.errors,
		Answers:           client.ctr.answers,
		ComponentGroups:   int64(peakGroups),
		ThroughputPerSec:  float64(client.ctr.answers) / elapsed.Seconds(),
		ProbeSamples:      n,
		P50ProbeMS:        p50,
		P90ProbeMS:        p90,
		P99ProbeMS:        p99,
		MaxProbeMS:        max,
		RetrainStalls:     int64(sc.sum("qres_retrain_stalls_total")),
		ServerRejected:    int64(sc.sum("qres_backpressure_rejections_total")),
		TraceDropped:      int64(sc.sum("qres_trace_dropped_total")),
		ServerP99ProbeMS: 1e3 * sc.value("qres_http_request_seconds",
			`route="probe"`, `class="2xx"`, `quantile="0.99"`),
	}
	return rep, nil
}
