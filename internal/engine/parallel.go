package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"qres/internal/boolexpr"
	"qres/internal/table"
)

// This file implements morsel-driven parallel execution of pipeline
// fragments. A fragment is the probe-side spine of a plan subtree —
// scan → fused selections → projection → probe side of joins — whose only
// base-relation driver is its leftmost scan. The driver relation is split
// into fixed-size morsels (contiguous row ranges); a pool of workers claims
// morsels from a shared counter, runs its own private copy of the fragment
// over each claimed range, and an ordered-merge exchange emits the morsel
// outputs strictly in morsel order.
//
// Determinism argument. The serial streaming executor emits the fragment's
// rows in driver-scan order. Morsels partition the driver into contiguous
// ranges, each worker preserves intra-morsel order (its fragment is the
// same operator chain the serial compiler would build), and the exchange
// concatenates morsel buffers in morsel index order — so the merged stream
// is the serial stream, row for row. Join build sides are drained once,
// serially, in the same order the serial build would see, and bucket lists
// store build-row indices in ascending order, so every probe emits matches
// in serial build order and every provenance conjunction is constructed
// from identical operands in an identical order. Results — columns, tuple
// order, and provenance expressions — are therefore bit-identical to the
// serial streaming executor for any worker count and any morsel size.
//
// Pipeline breakers (sort, top-k, duplicate elimination, union merge) and
// Limit run serially above the exchange; only the per-row fragment below
// them fans out.

// morselRows is the number of driver-relation rows per morsel.
// Fragments over relations that do not fill at least two morsels run
// serially — the pool overhead would dominate.
const morselRows = 1024

// compileInput compiles a plan subtree that feeds a pipeline breaker (or
// the executor's root drain), fanning its pipeline fragment out across the
// worker pool when the compilation is parallel and the subtree qualifies.
// Any fragment that does not qualify — or whose compilation fails — falls
// back to the serial compiler, which also surfaces binding errors exactly
// as the serial path would.
func compileInput(n Node, ctx *compileCtx) (compiled, error) {
	if c, ok := tryExchange(n, ctx); ok {
		return c, nil
	}
	return compile(n, ctx)
}

// fragmentEligible reports whether n is a parallelizable pipeline
// fragment: a spine of scans, selections, non-distinct projections and
// join probe sides. Joins only need their left (probe) input on the spine;
// the right input becomes a shared build and may be any plan.
func fragmentEligible(n Node) bool {
	switch t := n.(type) {
	case *scanNode:
		return true
	case *selectNode:
		return fragmentEligible(t.input)
	case *projectNode:
		return !t.distinct && fragmentEligible(t.input)
	case *joinNode:
		return fragmentEligible(t.left)
	default:
		return false
	}
}

// driverRelation resolves the fragment's leftmost scan — the relation whose
// rows are partitioned into morsels.
func driverRelation(n Node, src Source) (*table.Relation, bool) {
	switch t := n.(type) {
	case *scanNode:
		return src.Relation(t.relation)
	case *selectNode:
		return driverRelation(t.input, src)
	case *projectNode:
		return driverRelation(t.input, src)
	case *joinNode:
		return driverRelation(t.left, src)
	}
	return nil, false
}

// tryExchange attempts to compile n as a parallel pipeline fragment behind
// an ordered-merge exchange. It declines (ok=false) when the compilation is
// serial or tracing (per-operator spans assume one iterator tree), when n
// is not a fragment, when the driver relation does not fill at least two
// morsels, or when any binding step fails — the caller then falls back to
// the serial compiler.
func tryExchange(n Node, ctx *compileCtx) (compiled, bool) {
	if ctx.workers < 2 || ctx.trace {
		return compiled{}, false
	}
	if !fragmentEligible(n) {
		return compiled{}, false
	}
	rel, ok := driverRelation(n, ctx.src)
	if !ok {
		return compiled{}, false
	}
	morsel := ctx.morsel
	if rel.Len() <= morsel {
		return compiled{}, false
	}
	nMorsels := (rel.Len() + morsel - 1) / morsel
	workers := ctx.workers
	if workers > nMorsels {
		workers = nMorsels
	}
	sh := &exchShared{
		stats:    ctx.stats,
		relLen:   rel.Len(),
		morsel:   morsel,
		nMorsels: nMorsels,
		workers:  workers,
		builds:   make(map[*joinNode]*sharedBuild),
	}
	var schema outSchema
	for w := 0; w < workers; w++ {
		c, ms, err := compileFragment(n, ctx, sh)
		if err != nil {
			return compiled{}, false
		}
		sh.frags = append(sh.frags, &workerFrag{root: c.it, scan: ms, stable: c.stable})
		if w == 0 {
			schema = c.schema
		}
	}
	ctx.stats.pipelines++
	return compiled{schema: schema, it: &exchangeIter{sh: sh}, stable: true}, true
}

// compileFragment builds one worker's private instance of the fragment:
// its own iterators, scratch buffers and bound closures, sharing only the
// immutable base relations and the per-join shared build tables. Binding
// runs in the same order as the serial compiler (children before the
// operator's own expressions), so any error it can produce is exactly the
// error the serial fallback will surface.
func compileFragment(n Node, ctx *compileCtx, sh *exchShared) (compiled, *morselScanIter, error) {
	switch t := n.(type) {
	case *scanNode:
		rel, ok := ctx.src.Relation(t.relation)
		if !ok {
			return compiled{}, nil, fmt.Errorf("engine: unknown relation %q", t.relation)
		}
		alias := t.alias
		if alias == "" {
			alias = t.relation
		}
		schema := make(outSchema, rel.Schema().Len())
		for i, c := range rel.Schema().Columns() {
			schema[i] = OutCol{Qualifier: alias, Name: c.Name, Kind: c.Kind}
		}
		ms := &morselScanIter{rel: rel, prov: provFetcher(ctx.src, t.relation)}
		return compiled{schema: schema, it: ms, stable: true}, ms, nil

	case *selectNode:
		c, ms, err := compileFragment(t.input, ctx, sh)
		if err != nil {
			return compiled{}, nil, err
		}
		match, err := t.pred.bind(c.schema)
		if err != nil {
			return compiled{}, nil, err
		}
		// Same fusion as the serial compiler: filters run inside the scan,
		// before the provenance fetch.
		if sc, ok := c.it.(*morselScanIter); ok {
			sc.filters = append(sc.filters, match)
			return c, ms, nil
		}
		return compiled{schema: c.schema, it: &selIter{in: c.it, match: match}, stable: c.stable}, ms, nil

	case *projectNode:
		c, ms, err := compileFragment(t.input, ctx, sh)
		if err != nil {
			return compiled{}, nil, err
		}
		evals := make([]func(table.Tuple) table.Value, len(t.cols))
		out := make(outSchema, len(t.cols))
		for i, col := range t.cols {
			f, kind, err := col.bind(c.schema)
			if err != nil {
				return compiled{}, nil, err
			}
			evals[i] = f
			name := col.String()
			if cr, ok := col.(colRef); ok {
				name = cr.name
			}
			out[i] = OutCol{Name: name, Kind: kind}
		}
		it := &projectIter{in: c.it, evals: evals, scratch: make(table.Tuple, len(evals))}
		return compiled{schema: out, it: it, stable: false}, ms, nil

	case *joinNode:
		lc, ms, err := compileFragment(t.left, ctx, sh)
		if err != nil {
			return compiled{}, nil, err
		}
		sb := sh.builds[t]
		if sb == nil {
			// The build side compiles once, serially (no nested exchange:
			// it drains exactly once, before the workers launch).
			bctx := &compileCtx{src: ctx.src, stats: ctx.stats}
			rc, err := compile(t.right, bctx)
			if err != nil {
				return compiled{}, nil, err
			}
			equi, _ := splitEquiConds(t.on, lc.schema, rc.schema)
			sb = &sharedBuild{
				in:       rc.it,
				schema:   rc.schema,
				stable:   rc.stable,
				conds:    equi,
				sizeHint: estimateRows(t.right, ctx.src),
			}
			sh.builds[t] = sb
			sh.buildOrder = append(sh.buildOrder, sb)
		}
		schema := make(outSchema, 0, len(lc.schema)+len(sb.schema))
		schema = append(schema, lc.schema...)
		schema = append(schema, sb.schema...)
		equi, residual := splitEquiConds(t.on, lc.schema, sb.schema)
		var match func(table.Tuple) bool
		if residual != nil {
			match, err = residual.bind(schema)
			if err != nil {
				return compiled{}, nil, err
			}
		}
		scratch := make(table.Tuple, 0, len(schema))
		if len(equi) > 0 {
			it := &hashProbeIter{in: lc.it, build: sb, conds: equi, match: match, scratch: scratch}
			return compiled{schema: schema, it: it, stable: false}, ms, nil
		}
		it := &loopProbeIter{in: lc.it, build: sb, match: match, scratch: scratch}
		return compiled{schema: schema, it: it, stable: false}, ms, nil
	}
	return compiled{}, nil, fmt.Errorf("engine: node %T is not fragment-eligible", n)
}

// morselScanIter is the parallel counterpart of scanIter: it streams one
// contiguous row range [lo, hi) of the driver relation, with the same
// filter fusion (filters run before the provenance fetch). The range is
// re-pointed and the iterator re-opened for every morsel the owning worker
// claims. Scanned-row counts accumulate locally and are flushed atomically
// per morsel, keeping the hot loop free of shared-memory traffic.
type morselScanIter struct {
	rel     *table.Relation
	prov    func(i int) boolexpr.Expr
	filters []func(table.Tuple) bool
	lo, hi  int
	i       int
	scanned int64
}

// Open implements iter.
func (s *morselScanIter) Open() error {
	s.i = s.lo
	return nil
}

// Next implements iter.
func (s *morselScanIter) Next() (Row, bool, error) {
scan:
	for s.i < s.hi {
		i := s.i
		s.i++
		s.scanned++
		t := s.rel.At(i)
		for _, f := range s.filters {
			if !f(t) {
				continue scan
			}
		}
		return Row{Tuple: t, Prov: s.prov(i)}, true, nil
	}
	return Row{}, false, nil
}

// Close implements iter.
func (s *morselScanIter) Close() {}

// buildPart is one partition of a shared hash-join build table: the key
// index and bucket lists for the build rows whose key hash falls in this
// partition. Bucket lists hold global build-row indices in ascending
// order — exactly the order the serial build would probe them in.
type buildPart struct {
	index map[string]int32
	lists [][]int32
}

// sharedBuild materializes one join's build side once for all workers. The
// input drains serially (preserving the serial build's row order and
// NULL-key skips); the hash index is then constructed in parallel, one
// goroutine per key-hash partition, each inserting its rows in ascending
// global order. After run returns the structure is immutable and safe for
// concurrent probes.
type sharedBuild struct {
	in       iter
	schema   outSchema
	stable   bool
	conds    []equiCond // empty for theta (nested-loop) builds
	sizeHint int

	rows   []Row
	keyBuf []byte
	offs   []int32
	parts  []buildPart
	nparts uint64
	done   bool
}

// run drains the build input and constructs the partitioned index using up
// to workers goroutines.
func (b *sharedBuild) run(workers int) error {
	b.done = true
	if err := b.in.Open(); err != nil {
		return err
	}
	defer b.in.Close()
	b.rows = make([]Row, 0, clampPreSize(b.sizeHint))
	var hashes []uint64
	b.offs = append(b.offs[:0], 0)
	for {
		r, ok, err := b.in.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if len(b.conds) > 0 {
			start := len(b.keyBuf)
			nb, keyOK := appendEquiKey(b.keyBuf, r.Tuple, b.conds, false)
			if !keyOK {
				b.keyBuf = nb[:start]
				continue // NULL key never joins, as in the serial build
			}
			b.keyBuf = nb
			b.offs = append(b.offs, int32(len(b.keyBuf)))
			hashes = append(hashes, fnv64(b.keyBuf[start:]))
		}
		t := r.Tuple
		if !b.stable {
			t = cloneTuple(t)
		}
		b.rows = append(b.rows, Row{Tuple: t, Prov: r.Prov})
	}
	if len(b.conds) == 0 {
		return nil // theta build: probes walk rows directly
	}
	nparts := workers
	if nparts > len(b.rows) {
		nparts = len(b.rows)
	}
	if nparts < 1 {
		nparts = 1
	}
	b.nparts = uint64(nparts)
	b.parts = make([]buildPart, nparts)
	perPart := len(b.rows)/nparts + 1
	if perPart > maxPreSize {
		perPart = maxPreSize
	}
	var wg sync.WaitGroup
	for p := 0; p < nparts; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			part := buildPart{index: make(map[string]int32, perPart)}
			pp := uint64(p)
			for i := range b.rows {
				if hashes[i]%b.nparts != pp {
					continue
				}
				key := b.keyBuf[b.offs[i]:b.offs[i+1]]
				if id, hit := part.index[string(key)]; hit {
					part.lists[id] = append(part.lists[id], int32(i))
				} else {
					part.index[string(key)] = int32(len(part.lists))
					part.lists = append(part.lists, []int32{int32(i)})
				}
			}
			b.parts[p] = part
		}(p)
	}
	wg.Wait()
	return nil
}

// bucket returns the ascending build-row indices matching key, or nil.
func (b *sharedBuild) bucket(key []byte) []int32 {
	if len(b.rows) == 0 {
		return nil
	}
	part := &b.parts[fnv64(key)%b.nparts]
	if id, hit := part.index[string(key)]; hit {
		return part.lists[id]
	}
	return nil
}

// close releases the build input if run never drained it (an earlier build
// errored, or the tree was closed before the first Next).
func (b *sharedBuild) close() {
	if !b.done {
		b.done = true
		b.in.Close()
	}
	b.rows, b.parts, b.keyBuf, b.offs = nil, nil, nil, nil
}

// fnv64 is FNV-1a over the key bytes, used to assign build keys to
// partitions and route probes to the owning partition.
func fnv64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// hashProbeIter is the probe side of a parallel hash join: the fragment's
// rows stream through, probing the shared build table and emitting
// concatenations into a per-worker scratch tuple. Emission order per probe
// row follows the bucket's ascending build order — identical to the serial
// hashJoinIter.
type hashProbeIter struct {
	in    iter
	build *sharedBuild
	conds []equiCond
	match func(table.Tuple) bool

	buf    []byte
	cur    Row
	have   bool
	bucket []int32
	bi     int

	scratch table.Tuple
}

// Open implements iter.
func (j *hashProbeIter) Open() error {
	j.have, j.bucket, j.bi = false, nil, 0
	return j.in.Open()
}

// Next implements iter.
func (j *hashProbeIter) Next() (Row, bool, error) {
	for {
		for j.have && j.bi < len(j.bucket) {
			r := j.build.rows[j.bucket[j.bi]]
			j.bi++
			t := append(append(j.scratch[:0], j.cur.Tuple...), r.Tuple...)
			if j.match != nil && !j.match(t) {
				continue
			}
			return Row{Tuple: t, Prov: j.cur.Prov.And(r.Prov)}, true, nil
		}
		l, ok, err := j.in.Next()
		if err != nil || !ok {
			return Row{}, false, err
		}
		key, keyOK := appendEquiKey(j.buf[:0], l.Tuple, j.conds, true)
		j.buf = key
		if !keyOK {
			continue
		}
		j.cur, j.have, j.bi = l, true, 0
		j.bucket = j.build.bucket(key)
	}
}

// Close implements iter.
func (j *hashProbeIter) Close() { j.in.Close() }

// loopProbeIter is the probe side of a parallel theta join: every fragment
// row nested-loops against the shared build rows, in build order, exactly
// like the serial loopJoinIter.
type loopProbeIter struct {
	in    iter
	build *sharedBuild
	match func(table.Tuple) bool

	cur  Row
	have bool
	ri   int

	scratch table.Tuple
}

// Open implements iter.
func (j *loopProbeIter) Open() error {
	j.have, j.ri = false, 0
	return j.in.Open()
}

// Next implements iter.
func (j *loopProbeIter) Next() (Row, bool, error) {
	for {
		for j.have && j.ri < len(j.build.rows) {
			r := j.build.rows[j.ri]
			j.ri++
			t := append(append(j.scratch[:0], j.cur.Tuple...), r.Tuple...)
			if j.match != nil && !j.match(t) {
				continue
			}
			return Row{Tuple: t, Prov: j.cur.Prov.And(r.Prov)}, true, nil
		}
		l, ok, err := j.in.Next()
		if err != nil || !ok {
			return Row{}, false, err
		}
		j.cur, j.have, j.ri = l, true, 0
	}
}

// Close implements iter.
func (j *loopProbeIter) Close() { j.in.Close() }

// workerFrag is one worker's private fragment instance: the iterator tree,
// its driver scan (whose range is re-pointed per morsel), and whether the
// tree's output tuples are stable (scratch-backed rows are cloned into the
// morsel buffer otherwise).
type workerFrag struct {
	root   iter
	scan   *morselScanIter
	stable bool
}

// exchShared is the state one exchange shares between its workers and the
// merge side: the morsel geometry, the per-worker fragments, the shared
// join builds, and the per-morsel output buffers and completion signals.
type exchShared struct {
	stats    *execStats
	relLen   int
	morsel   int
	nMorsels int
	workers  int

	frags      []*workerFrag
	builds     map[*joinNode]*sharedBuild
	buildOrder []*sharedBuild

	next    int64 // atomic: next morsel to claim
	cancel  int32 // atomic: stop claiming new morsels
	scanned int64 // atomic: rows scanned by morsel scans

	out   [][]Row
	errs  []error
	ready []chan struct{}
	wg    sync.WaitGroup

	started   bool
	closeOnce sync.Once
}

// start drains the shared builds (serially, in fragment registration
// order) and launches the worker pool. It runs in the consumer's goroutine
// on the first Next, following the pipeline-breaker convention.
func (sh *exchShared) start() error {
	for _, b := range sh.buildOrder {
		if err := b.run(sh.workers); err != nil {
			return err
		}
	}
	sh.out = make([][]Row, sh.nMorsels)
	sh.errs = make([]error, sh.nMorsels)
	sh.ready = make([]chan struct{}, sh.nMorsels)
	for i := range sh.ready {
		sh.ready[i] = make(chan struct{})
	}
	for _, f := range sh.frags {
		sh.wg.Add(1)
		go sh.work(f)
	}
	return nil
}

// work is one worker's loop: claim the next morsel index, run the private
// fragment over its row range, publish the buffer, repeat. Workers claim
// indices in ascending order, so when a morsel errors every lower-numbered
// morsel is already claimed and will complete — the merge side never waits
// on an unclaimed morsel.
func (sh *exchShared) work(f *workerFrag) {
	defer sh.wg.Done()
	for {
		if atomic.LoadInt32(&sh.cancel) != 0 {
			return
		}
		m := int(atomic.AddInt64(&sh.next, 1)) - 1
		if m >= sh.nMorsels {
			return
		}
		rows, err := sh.runMorsel(f, m)
		sh.out[m], sh.errs[m] = rows, err
		close(sh.ready[m])
		if err != nil {
			atomic.StoreInt32(&sh.cancel, 1)
			return
		}
	}
}

// runMorsel executes one morsel: point the driver scan at the range,
// re-open the fragment, drain it, cloning scratch-backed tuples so the
// buffer owns its memory.
func (sh *exchShared) runMorsel(f *workerFrag, m int) ([]Row, error) {
	f.scan.lo = m * sh.morsel
	f.scan.hi = f.scan.lo + sh.morsel
	if f.scan.hi > sh.relLen {
		f.scan.hi = sh.relLen
	}
	defer func() {
		atomic.AddInt64(&sh.scanned, f.scan.scanned)
		f.scan.scanned = 0
	}()
	if err := f.root.Open(); err != nil {
		return nil, err
	}
	var rows []Row
	for {
		r, ok, err := f.root.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return rows, nil
		}
		if !f.stable {
			r.Tuple = cloneTuple(r.Tuple)
		}
		rows = append(rows, r)
	}
}

// exchangeIter is the ordered-merge gather side of one parallel pipeline:
// it emits morsel buffers strictly in morsel index order, waiting for each
// buffer to be published. Its output is stable (buffers own their rows)
// and bit-identical to draining the serial fragment. The exchange is
// single-pass: builds drain and workers launch on the first Next, and
// Close cancels outstanding morsels, joins the pool, and flushes the
// scan/morsel counters into the run's stats.
type exchangeIter struct {
	sh  *exchShared
	m   int
	cur []Row
	i   int
	err error
}

// Open implements iter. The fragment iterators are opened per morsel by
// the workers; there is nothing to prepare eagerly.
func (e *exchangeIter) Open() error { return nil }

// Next implements iter.
func (e *exchangeIter) Next() (Row, bool, error) {
	if e.err != nil {
		return Row{}, false, e.err
	}
	sh := e.sh
	if !sh.started {
		sh.started = true
		if err := sh.start(); err != nil {
			e.err = err
			return Row{}, false, err
		}
	}
	for {
		if e.i < len(e.cur) {
			r := e.cur[e.i]
			e.i++
			return r, true, nil
		}
		if e.m >= sh.nMorsels {
			return Row{}, false, nil
		}
		m := e.m
		e.m++
		<-sh.ready[m]
		if err := sh.errs[m]; err != nil {
			e.err = err
			return Row{}, false, err
		}
		e.cur, e.i = sh.out[m], 0
		sh.out[m] = nil
	}
}

// Close implements iter.
func (e *exchangeIter) Close() {
	sh := e.sh
	sh.closeOnce.Do(func() {
		atomic.StoreInt32(&sh.cancel, 1)
		sh.wg.Wait()
		sh.stats.scanned += atomic.LoadInt64(&sh.scanned)
		claimed := atomic.LoadInt64(&sh.next)
		if claimed > int64(sh.nMorsels) {
			claimed = int64(sh.nMorsels)
		}
		sh.stats.morsels += claimed
		for _, b := range sh.buildOrder {
			b.close()
		}
	})
}
