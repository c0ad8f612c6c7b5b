package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"qres/internal/boolexpr"
	"qres/internal/datagen"
	"qres/internal/learn"
	"qres/internal/obs"
	"qres/internal/server"
	"qres/internal/store"
	"qres/internal/table"
	"qres/internal/uncertain"
)

// Session query templates of serve-tpch: Q3 and Q10 parameterized by market
// segment and date window. Each session draws its own parameters, so
// concurrent and later sessions share some probed tuples through the shared
// repository (neighbouring windows overlap), but not all.
const (
	q3Template = `SELECT DISTINCT l.l_orderkey, o.o_orderdate, o.o_shippriority
		FROM customer AS c, orders AS o, lineitem AS l
		WHERE c.c_mktsegment = '%s'
		  AND c.c_custkey = o.o_custkey AND l.l_orderkey = o.o_orderkey
		  AND o.o_orderdate < %s AND l.l_shipdate > %s`
	q10Template = `SELECT DISTINCT c.c_custkey, c.c_name, n.n_name
		FROM customer AS c, orders AS o, lineitem AS l, nation AS n
		WHERE c.c_mktsegment = '%s'
		  AND c.c_custkey = o.o_custkey AND l.l_orderkey = o.o_orderkey
		  AND o.o_orderdate >= %s AND o.o_orderdate < %s
		  AND l.l_returnflag = 'R' AND c.c_nationkey = n.n_nationkey`
)

var segments = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}

// sessionQuery draws a session query of the class: a market segment and a
// date (Q3) or a quarter (Q10) within 1993-1997.
func sessionQuery(class string, rng *rand.Rand) query {
	seg := segments[rng.Intn(len(segments))]
	y, m := 1993+rng.Intn(5), 1+rng.Intn(12)
	if class == "Q3" {
		d := fmt.Sprintf("%d.%02d.%02d", y, m, 1+rng.Intn(28))
		return query{class, fmt.Sprintf(q3Template, seg, d, d)}
	}
	y2, m2 := y+(m+2)/12, (m+2)%12+1
	return query{class, fmt.Sprintf(q10Template, seg, fmt.Sprintf("%d.%02d.01", y, m), fmt.Sprintf("%d.%02d.01", y2, m2))}
}

// sessionsPerClient is the length of each client's query list; a client
// that gets through it starts over, finding those answers known.
const sessionsPerClient = 48

// serve is the serve-tpch workload: an in-process internal/server on
// loopback over a segmented internal/store, driven by closed-loop oracle
// clients that answer from the hidden ground truth after a fixed think time.
type serve struct {
	p   params
	o   options
	db  *uncertain.DB
	gt  *uncertain.GroundTruth
	out *runResult

	warm    query
	queries [][]query                  // per client, drawn before the clock starts
	truths  map[string]map[string]bool // per query text, rows rendered as the status endpoint renders them

	mu  sync.Mutex // guards rid, out.sids and out's counters while clients run
	rid int
}

func runServe(p params, o options, out *runResult) error {
	s := &serve{p: p, o: o, out: out, truths: make(map[string]map[string]bool)}
	var setupErr error
	out.setup.repeat(p.setupReps, func() {
		s.db = nil
		t0 := time.Now()
		s.db = datagen.TPCH(datagen.TPCHConfig{SF: p.sf, Seed: dataSeed})
		t1 := time.Now()
		learn.TrainLAL(learn.DefaultLALConfig(sharedLALSeed))
		t2 := time.Now()
		dir, err := os.MkdirTemp(o.workDir, "store-")
		if err != nil {
			setupErr = err
			return
		}
		defer os.RemoveAll(dir)
		st, _, err := store.Open(dir, s.storeOptions(nil))
		t3 := time.Now()
		if err != nil {
			setupErr = err
			return
		}
		if err := st.Close(); err != nil {
			setupErr = err
		}
		out.setup.gen = append(out.setup.gen, t1.Sub(t0).Seconds())
		out.setup.lal = append(out.setup.lal, t2.Sub(t1).Seconds())
		out.setup.storeOpen = append(out.setup.storeOpen, t3.Sub(t2).Seconds())
		out.setup.total = append(out.setup.total, t3.Sub(t0).Seconds())
	})
	if setupErr != nil {
		return fmt.Errorf("set-up: %w", setupErr)
	}
	// Sessions use the process-wide LAL; train it now, outside the timings,
	// rather than inside the first session.
	learn.SharedLAL()
	s.gt = uncertain.GenerateRDT(s.db, 4, dataSeed)
	s.warm = sessionQuery("Q3", rand.New(rand.NewSource(dataSeed)))
	all := []query{s.warm}
	for i := 0; i < p.clients; i++ {
		rng := rand.New(rand.NewSource(dataSeed*31 + int64(i)))
		qs := make([]query, sessionsPerClient)
		for n := range qs {
			qs[n] = sessionQuery([]string{"Q3", "Q10"}[(n+i)%2], rng)
		}
		s.queries = append(s.queries, qs)
		all = append(all, qs...)
	}
	world := s.db.PossibleWorld(s.gt.Val)
	for _, q := range all {
		t, err := truthSet(s.db, world, q.sql, renderTuple)
		if err != nil {
			return fmt.Errorf("ground truth: %w", err)
		}
		s.truths[q.sql] = t
	}
	return out.window(o, s.phase)
}

// storeOptions mirrors qres-serve's segmented-store settings.
func (s *serve) storeOptions(reg *obs.Registry) store.Options {
	return store.Options{
		NameFn:          s.db.Registry().Name,
		ResolveFn:       s.db.Registry().Lookup,
		CompactInterval: time.Minute,
		Metrics:         reg,
	}
}

// phaseState is what the clients of one phase share.
type phaseState struct {
	mu         sync.Mutex
	acked      map[boolexpr.Var]bool // acknowledged answers, checked after reopen
	clientTime time.Duration         // client-side create/probe/answer round trips
	answers    int
}

// phase runs one server over a fresh store until the deadline, then shuts
// it down, reopens the store and checks every acknowledged answer.
func (s *serve) phase(tr *tracer, deadline time.Time) error {
	dir, err := os.MkdirTemp(s.o.workDir, "store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	reg := obs.NewRegistry()
	st, repo, err := store.Open(dir, s.storeOptions(reg))
	if err != nil {
		return err
	}
	cfg := server.Config{DB: s.db, Store: st, Repo: repo, Registry: reg}
	if tr != nil {
		cfg.Trace = tr
	}
	srv, err := server.New(cfg)
	if err != nil {
		st.Close()
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	ps := &phaseState{acked: make(map[boolexpr.Var]bool)}
	clients := make([]*client, s.p.clients)
	for i := range clients {
		clients[i] = newClient("http://"+ln.Addr().String(), ps)
	}
	// Warm-up: one discarded session before the clock starts.
	if r, err := s.session(clients[0], -1, s.warm, nil, ps); err != nil {
		s.out.fail(fmt.Errorf("warm-up: %w", err))
	} else {
		s.out.add(r)
	}

	start := time.Now()
	results := make([][]resolution, len(clients))
	busy := make([]time.Duration, len(clients))
	answers := make([]int, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			var think time.Duration
			for n := 0; n == 0 || time.Now().Before(deadline); n++ {
				q := s.queries[i][n%sessionsPerClient]
				r, err := s.session(c, s.nextRID(), q, tr, ps)
				if err != nil {
					s.mu.Lock()
					s.out.fail(err)
					s.mu.Unlock()
					continue
				}
				results[i] = append(results[i], r)
				answers[i] += r.probes
				think += r.think
			}
			busy[i] = time.Since(start) - think
		}(i, c)
	}
	wg.Wait()
	for _, rs := range results {
		for _, r := range rs {
			s.out.add(r)
		}
	}
	if tr == nil {
		s.out.answersPerS = 0
		for i := range clients {
			s.out.answersPerS += ratio(float64(answers[i]), busy[i].Seconds())
		}
	}

	var storeStatus server.StoreStatusResponse
	if _, err := clients[0].do(http.MethodGet, "/v1/store", nil, &storeStatus); err != nil {
		s.out.fail(fmt.Errorf("store status: %w", err))
	}
	snap := reg.Snapshot()
	for _, c := range clients {
		c.hc.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		s.out.fail(fmt.Errorf("shutdown: %w", err))
	}
	if err := <-served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		s.out.fail(fmt.Errorf("serve: %w", err))
	}

	// Durability: every acknowledged answer survives close and reopen.
	t0 := time.Now()
	st2, repo2, err := store.Open(dir, s.storeOptions(nil))
	reopen := time.Since(t0)
	if err != nil {
		return fmt.Errorf("reopen store: %w", err)
	}
	defer st2.Close()
	missing := 0
	for v, a := range ps.acked {
		if got, ok := repo2.Answer(v); !ok || got != a {
			missing++
		}
	}
	s.out.check(missing == 0)
	if missing > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d acknowledged answers missing after reopen\n", missing, len(ps.acked))
	}
	if tr != nil {
		s.layerMetrics(snap, storeStatus, ps, reopen)
	}
	return nil
}

func (s *serve) nextRID() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rid++
	return s.rid - 1
}

// layerMetrics derives the store and server layer metrics of one phase
// from its registry (the series GET /metrics renders) and GET /v1/store.
func (s *serve) layerMetrics(snap obs.Snapshot, status server.StoreStatusResponse, ps *phaseState, reopen time.Duration) {
	m := s.out.layer
	h := snap.Histograms
	m["store.fsync_ms_p50"] = h["store_fsync_seconds"].P50 * 1e3
	m["store.fsync_ms_p99"] = h["store_fsync_seconds"].P99 * 1e3
	m["store.records_per_batch"] = h["store_group_commit_batch_size"].Mean
	m["store.reopen_ms"] = msOf(reopen)
	if st := status.Stats; st != nil {
		m["store.fsyncs_per_answer"] = ratio(float64(st.Fsyncs), float64(ps.answers))
		m["store.wal_bytes_per_record"] = ratio(float64(st.WALBytes), float64(st.TailRecords))
	}
	route := func(name string) obs.HistSnapshot { return h[obs.Key("http_request_seconds", name, "2xx")] }
	m["server.create_ms_p50"] = route("create_session").P50 * 1e3
	m["server.probe_ms_p99"] = route("probe").P99 * 1e3
	m["server.answer_ms_p99"] = route("answer").P99 * 1e3
	m["server.rejected_429"] = float64(snap.Counters["backpressure_rejections_total"])
	routeTime := route("create_session").Sum + route("probe").Sum + route("answer").Sum
	m["server.transport_frac"] = 1 - ratio(routeTime, ps.clientTime.Seconds())

	// Resolution-layer counters the hosted sessions feed into the registry.
	counter := func(prefix string) float64 {
		total := 0.0
		for k, v := range snap.Counters {
			if strings.HasPrefix(k, prefix+"{") {
				total += float64(v)
			}
		}
		return total
	}
	retrains := 0.0
	for k, hs := range h {
		if strings.HasPrefix(k, "stage_seconds{"+string(obs.StageRetrain)+",") {
			retrains += float64(hs.Count)
		}
	}
	answers := float64(ps.answers)
	m["server.retrain_stalls"] = counter("retrain_stalls_total")
	m["resolve.score_cache_hit_ratio"] = ratio(counter("score_cache_hits"), counter("score_cache_hits")+counter("score_cache_misses"))
	m["resolve.prob_cache_hit_ratio"] = ratio(counter("prob_cache_hits"), counter("prob_cache_hits")+counter("prob_cache_misses"))
	m["resolve.tuples_resimplified_per_probe"] = ratio(counter("tuples_resimplified"), answers)
	m["learn.retrains_per_probe"] = ratio(retrains, answers)
}

// client is one closed-loop oracle with its own keep-alive connection.
type client struct {
	base string
	hc   *http.Client
	ps   *phaseState
}

func newClient(base string, ps *phaseState) *client {
	return &client{
		base: base,
		hc: &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
		ps: ps,
	}
}

// do sends one request and decodes a 2xx JSON body into out. Any other
// status is returned as an error.
func (c *client) do(method, path string, body, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	if out == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, err
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(out)
}

// timedDo is do for the resolution's own requests: it records a span and
// adds the round trip to the phase's client time.
func (c *client) timedDo(tr *tracer, name string, rid int, method, path string, body, out any) (time.Time, time.Time, error) {
	t0 := time.Now()
	_, err := c.do(method, path, body, out)
	t1 := time.Now()
	tr.record(name, rid, t0, t1)
	c.ps.mu.Lock()
	c.ps.clientTime += t1.Sub(t0)
	c.ps.mu.Unlock()
	return t0, t1, err
}

// session drives one server session from SQL text to every row decided,
// then checks the decided-correct rows against the ground truth.
func (s *serve) session(c *client, rid int, q query, tr *tracer, ps *phaseState) (resolution, error) {
	r := resolution{rid: rid, class: q.class, traced: tr != nil}
	var info server.SessionInfo
	create := server.CreateSessionRequest{Query: q.sql, Trees: s.p.trees, Seed: s.o.seed*1_000_003 + int64(rid)}
	t0, _, err := c.timedDo(tr, "server.create", rid, http.MethodPost, "/v1/sessions", create, &info)
	if err != nil {
		return r, err
	}
	s.mu.Lock()
	s.out.sids[info.ID] = rid
	s.mu.Unlock()
	r.components = info.Components
	path := "/v1/sessions/" + info.ID
	defer c.do(http.MethodDelete, path, nil, nil) //nolint:errcheck // the session is finished either way

	var pr server.ProbeResponse
	_, t1, err := c.timedDo(tr, "server.probe", rid, http.MethodGet, path+"/probe", nil, &pr)
	if err != nil {
		return r, err
	}
	r.firstProbe = t1.Sub(t0)
	for !pr.Done {
		if pr.Probe == nil {
			return r, errors.New("probe response carries neither a probe nor done")
		}
		v, ok := s.db.VarFor(pr.Probe.Table, pr.Probe.Index)
		if !ok {
			return r, fmt.Errorf("probe names unknown tuple %s[%d]", pr.Probe.Table, pr.Probe.Index)
		}
		truth, _ := s.gt.Val.Get(v)
		ans := truth != s.p.flip
		th0 := time.Now()
		time.Sleep(s.p.think)
		th1 := time.Now()
		tr.record("oracle.think", rid, th0, th1)
		r.think += th1.Sub(th0)

		var ar server.AnswerResponse
		a0, _, err := c.timedDo(tr, "server.answer", rid, http.MethodPost, path+"/answer",
			server.AnswerRequest{Table: pr.Probe.Table, Index: pr.Probe.Index, Answer: ans}, &ar)
		if err != nil {
			return r, err
		}
		r.probes++
		ps.mu.Lock()
		ps.acked[v] = ans
		ps.answers++
		ps.mu.Unlock()
		if ar.Done {
			break
		}
		pr = server.ProbeResponse{}
		_, a2, err := c.timedDo(tr, "server.probe", rid, http.MethodGet, path+"/probe", nil, &pr)
		if err != nil {
			return r, err
		}
		if !pr.Done {
			r.gaps = append(r.gaps, a2.Sub(a0))
		}
	}
	end := time.Now()
	tr.record("resolution", rid, t0, end)
	r.total = end.Sub(t0) - r.think

	var status server.StatusResponse
	if _, err := c.do(http.MethodGet, path+"/status", nil, &status); err != nil {
		return r, err
	}
	truth := s.truths[q.sql]
	r.ok = status.Done
	correct := 0
	for _, row := range status.RowStatus {
		if row.Status == "correct" {
			correct++
			r.ok = r.ok && truth[strings.Join(row.Values, "\x00")]
		}
	}
	r.ok = r.ok && correct == len(truth)
	return r, nil
}

// renderTuple renders a tuple the way the status endpoint renders a row.
func renderTuple(t table.Tuple) string {
	vals := make([]string, len(t))
	for i, v := range t {
		vals[i] = v.String()
	}
	return strings.Join(vals, "\x00")
}
