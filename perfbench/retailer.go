package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	fdb "repro"
	"repro/internal/wire"
)

// retailerParams sizes the retailer-read workload.
type retailerParams struct {
	scale int
	// tamper corrupts every expected checksum of the first pool statement,
	// so a run must report divergences (the benchmark's own tests use it).
	tamper bool
}

// defaultRetailer: retailer data at scale 8 (4000 orders, 1600 stock rows,
// 800 dispatch rows), the size the sizing figures in README.md were taken
// at.
var defaultRetailer = retailerParams{scale: 8}

// retailerState is a retailer database with the read pool prepared on it.
type retailerState struct {
	db    *fdb.DB
	pool  []poolEntry
	stmts []*fdb.Stmt // nil for the set query
	args  [][][]fdb.NamedArg
	union *fdb.SetExpr
}

func setupRetailer(seed int64, scale int, pool []poolEntry, tr *tracer) (*retailerState, error) {
	root := tr.begin("bench.setup", -1, 0)
	defer tr.end(root)
	db, err := newRetailerDB(seed, scale)
	if err != nil {
		return nil, err
	}
	s := &retailerState{db: db, pool: pool, stmts: make([]*fdb.Stmt, len(pool)), union: unionExpr()}
	for i := range pool {
		e := &pool[i]
		var args [][]fdb.NamedArg
		for _, b := range e.bindings {
			args = append(args, namedArgs(b))
		}
		s.args = append(s.args, args)
		if e.spec == nil {
			continue
		}
		cl, err := e.spec.Clauses()
		if err != nil {
			return nil, err
		}
		sp := tr.begin("opt.prepare", root, 0)
		st, err := db.Prepare(cl...)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("prepare %s: %w", e.name, err)
		}
		s.stmts[i] = st
	}
	return s, nil
}

// retailerRec collects the traced phase's per-layer counters that spans do
// not carry.
type retailerRec struct {
	tr              *tracer
	alloc           *allocCounter
	allocs, bytes   uint64
	paramExecs      int
	rows            int64
	ordered, sorted int
	size, flat      int64
	nonAgg          int
	last            *fdb.Result // the last read's result, until observed
}

// execSpan names the layer that does the work of pool entry e's execution
// call: parameterised statements filter and rebuild (fbuild), projection
// and DISTINCT over a memoised arena run f-plan operators (fplan),
// parameter-free aggregates and the set query run in frep.
func execSpan(e *poolEntry) string {
	switch {
	case e.spec == nil:
		return "frep.setop"
	case e.params:
		return "fbuild.exec_param"
	case e.agg:
		return "frep.agg"
	default:
		return "fplan.exec_cached"
	}
}

// read executes pool entry ei under args and consumes the whole answer,
// returning its checksum. rec is nil outside the traced phase.
func (s *retailerState) read(ei int, args []fdb.NamedArg, rec *retailerRec, req uint32) (checksum, error) {
	e := &s.pool[ei]
	var tr *tracer
	if rec != nil {
		tr = rec.tr
	}
	root := tr.begin("bench.read", -1, req)
	sp := tr.begin(execSpan(e), root, req)
	var a0, b0 uint64
	if rec != nil && e.params {
		a0, b0 = rec.alloc.read()
	}
	var (
		res *fdb.Result
		ar  *fdb.AggResult
		err error
	)
	switch {
	case e.spec == nil:
		res, err = s.db.QuerySet(s.union)
	case e.agg:
		ar, err = s.stmts[ei].ExecAgg(args...)
	default:
		res, err = s.stmts[ei].Exec(args...)
	}
	tr.end(sp)
	if rec != nil && e.params {
		a1, b1 := rec.alloc.read()
		rec.allocs += a1 - a0
		rec.bytes += b1 - b0
		rec.paramExecs++
	}
	if err != nil {
		tr.end(root)
		return checksum{}, err
	}
	if ar != nil {
		cs := hashAgg(ar, len(e.spec.Aggs))
		tr.end(root)
		return cs, nil
	}
	rs := tr.begin("frep.retrieve", root, req)
	cs := hashResult(res)
	tr.end(rs)
	tr.end(root)
	if rec != nil {
		rec.last = res
	}
	return cs, nil
}

// observe counts the last non-aggregate result's retrieval and size
// figures, outside the timed read.
func (rec *retailerRec) observe(e *poolEntry, rows int64) {
	res := rec.last
	rec.last = nil
	if res == nil {
		return
	}
	rec.rows += rows
	if e.spec != nil && len(e.spec.OrderBy) > 0 {
		rec.ordered++
		if !res.OrderStreamed() {
			rec.sorted++
		}
	}
	rec.size += int64(res.Size())
	rec.flat += res.FlatSize()
	rec.nonAgg++
}

// rows executes pool entry ei and returns its decoded rows.
func (s *retailerState) rows(ei int, bi int) (*wire.Rows, error) {
	e := &s.pool[ei]
	args := s.args[ei][bi]
	switch {
	case e.spec == nil:
		res, err := s.db.QuerySet(s.union)
		if err != nil {
			return nil, err
		}
		return &wire.Rows{Schema: res.Schema(), Rows: res.Rows(0)}, nil
	case e.agg:
		ar, err := s.stmts[ei].ExecAgg(args...)
		if err != nil {
			return nil, err
		}
		return &wire.Rows{Schema: ar.Schema(), Rows: ar.Rows(0)}, nil
	default:
		res, err := s.stmts[ei].Exec(args...)
		if err != nil {
			return nil, err
		}
		return &wire.Rows{Schema: res.Schema(), Rows: res.Rows(0)}, nil
	}
}

// retailerExpected computes, on an identically seeded reference database
// evaluated serially through the ad hoc Query paths with constants in place
// of parameters, the checksum of every (statement, binding) of the pool. It
// also runs every statement of s once and compares it row for row, in
// retrieval order, with the reference.
func retailerExpected(s *retailerState, seed int64, scale int, rng *rand.Rand, o *outcome) ([][]checksum, error) {
	ref, err := newRetailerDB(seed, scale)
	if err != nil {
		return nil, err
	}
	ref.SetParallelism(1)
	exp := make([][]checksum, len(s.pool))
	for ei := range s.pool {
		e := &s.pool[ei]
		check := rng.Intn(len(e.bindings))
		for bi, b := range e.bindings {
			want, cs, err := referenceRows(ref, e, b)
			if err != nil {
				return nil, fmt.Errorf("reference %s: %w", e.name, err)
			}
			exp[ei] = append(exp[ei], cs)
			if bi != check {
				continue
			}
			o.attempted++
			got, err := s.rows(ei, bi)
			if err != nil {
				o.fail("precheck %s%v: %v", e.name, b, err)
			} else if !equalRows(got, want) {
				o.fail("precheck %s%v: %d rows differ from the reference's %d", e.name, b, len(got.Rows), len(want.Rows))
			}
		}
	}
	return exp, nil
}

// retailerLoop is the closed loop with one caller: statements in seeded
// shuffled blocks (each block runs every pool entry once, so the mix is
// exact), bindings drawn uniformly from the seeded rng. Every answer's
// count and checksum are checked against the precomputed expectation.
func (s *retailerState) loop(seconds float64, rng *rand.Rand, exp [][]checksum, rec *retailerRec, o *outcome) (*windowed, []latencies) {
	lat := newWindowed(seconds)
	per := make([]latencies, len(s.pool))
	var order []int
	var req uint32
	dur := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	for time.Since(start) < dur {
		if rec == nil {
			lat.sampleHeap(time.Since(start))
		}
		if len(order) == 0 {
			order = rng.Perm(len(s.pool))
		}
		ei := order[0]
		order = order[1:]
		bi := rng.Intn(len(s.pool[ei].bindings))
		req++
		t0 := time.Now()
		cs, err := s.read(ei, s.args[ei][bi], rec, req)
		d := time.Since(t0)
		if rec != nil {
			rec.observe(&s.pool[ei], cs.count)
		}
		o.attempted++
		if err != nil {
			o.fail("%s binding %d: %v", s.pool[ei].name, bi, err)
			continue
		}
		if want := exp[ei][bi]; cs != want {
			o.fail("%s binding %d: %d rows checksum %016x, want %d rows checksum %016x",
				s.pool[ei].name, bi, cs.count, cs.sum, want.count, want.sum)
			continue
		}
		lat.add(time.Since(start), d)
		per[ei].add(d)
	}
	return lat, per
}

func runRetailer(cfg config, p retailerParams) (o *outcome, err error) {
	o = &outcome{}
	pool, err := retailerPool(true)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer(64) // the set-up spans; reserved before the traced phase
	}
	setups := &setupRuns[*retailerState]{n: cfg.setups, setup: func(keep bool) (*retailerState, error) {
		t := tr
		if !keep {
			t = nil
		}
		return setupRetailer(cfg.seed, p.scale, pool, t)
	}}
	s, err := setups.before()
	if err != nil {
		return nil, err
	}
	defer func() {
		if err == nil {
			err = setups.after(o)
		}
	}()
	rng := rand.New(rand.NewSource(cfg.seed))
	exp, err := retailerExpected(s, cfg.seed, p.scale, rng, o)
	if err != nil {
		return nil, err
	}
	if p.tamper {
		for bi := range exp[0] {
			exp[0][bi].sum ^= 1
		}
	}

	lat, per := s.loop(cfg.seconds, rng, exp, nil, o)
	heap := lat.heapMetric()
	runtime.KeepAlive(s)
	for ei, l := range per {
		fmt.Fprintf(cfg.log, "  %-14s p50=%8.3f ms p99=%8.3f ms n=%d\n", pool[ei].name, l.ms(50), l.ms(99), len(l))
	}
	o.e2e = append(o.e2e, lat.timing("read")...)
	o.e2e = append(o.e2e, lat.rate("read_qps"), heap)
	if !cfg.trace {
		return o, nil
	}

	tr.reserve(spanCapacity)
	rec := &retailerRec{tr: tr, alloc: newAllocCounter()}
	gc0 := readGC()
	tlat, _ := s.loop(cfg.seconds, rng, exp, rec, o)
	gcm := gcMetrics(gc0)
	cs := s.db.CacheStats()
	plans := uint64(len(pool)-1) + cs.Misses
	var cost float64
	for _, st := range s.stmts {
		if st != nil {
			cost += st.Cost()
		}
	}
	l := &o.layer
	*l = append(*l, spanTimings(tr, "opt.prepare", "opt.prepare_ms", 50, 99)...)
	*l = append(*l,
		ratio("opt.escalation_frac", float64(cs.Escalations), float64(plans)),
		metric{Name: "opt.budget_fallbacks", Value: float64(cs.BudgetFallbacks), Unit: "count", N: int(plans)},
		ratio("opt.cost_mean", cost, float64(len(pool)-1)),
		ratio("fdb.cache_hit_rate", float64(cs.Hits), float64(cs.Hits+cs.Misses)))
	*l = append(*l, spanTimings(tr, "fbuild.exec_param", "fbuild.exec_param_ms", 50, 99)...)
	*l = append(*l,
		ratio("fbuild.allocs_per_exec", float64(rec.allocs), float64(rec.paramExecs)),
		ratio("fbuild.bytes_per_exec", float64(rec.bytes), float64(rec.paramExecs)))
	*l = append(*l, spanTimings(tr, "fplan.exec_cached", "fplan.exec_cached_ms", 50)...)
	*l = append(*l, spanTimings(tr, "frep.retrieve", "frep.retrieve_ms", 50, 99)...)
	retrieve := spanDurations(tr, "frep.retrieve")
	var retrieveNs int64
	for _, d := range retrieve {
		retrieveNs += d
	}
	*l = append(*l,
		ratio("frep.ns_per_row", float64(retrieveNs), float64(rec.rows)),
		ratio("frep.sorted_frac", float64(rec.sorted), float64(rec.ordered)))
	*l = append(*l, spanTimings(tr, "frep.agg", "frep.agg_ms", 50)...)
	*l = append(*l, spanTimings(tr, "frep.setop", "frep.setop_ms", 50)...)
	*l = append(*l,
		ratio("frep.compression", float64(rec.flat), float64(rec.size)),
		ratio("frep.singletons", float64(rec.size), float64(rec.nonAgg)),
		ratio("frep.flat_singletons", float64(rec.flat), float64(rec.nonAgg)))
	*l = append(*l, gcm...)
	*l = append(*l, overhead(lat, tlat))
	return o, reportTrace(cfg, "retailer-read", tr)
}
