package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	fdb "repro"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/rdb"
	"repro/internal/relation"
)

// adhocParams sizes the adhoc-shapes workload: query shapes of the paper's
// Experiment 1 generator over small data, drawn with Zipf skew from a pool
// several times larger than the plan cache.
type adhocParams struct {
	schemas   int     // independent random schemas, each its own relations
	shapes    int     // pool size
	zipfS     float64 // Zipf exponent over pool ranks
	oracleCap int64   // largest flat component the rdb oracle enumerates
}

// The shapes of the paper's Experiment 1: 8 relations over 24 attributes
// with about 100 tuples over a domain of 10 values, 2-10 equalities per
// query.
const (
	adhocRelations = 8   // relations per schema
	adhocAttrs     = 24  // attributes per schema
	adhocTuples    = 100 // tuples drawn per relation (duplicates collapse)
	adhocDomain    = 10  // values are drawn uniformly from [1, adhocDomain]
	adhocMinEq     = 2   // equalities per shape, from adhocMinEq ...
	adhocMaxEq     = 10  // ... to adhocMaxEq, stratified over the Zipf ranks
)

// defaultAdhoc: 320 shapes, five times the 64-entry plan cache.
var defaultAdhoc = adhocParams{schemas: 4, shapes: 320, zipfS: 0.6, oracleCap: 10_000}

// adhocData is the generated database content.
type adhocData struct {
	schemas []*gen.Schema
	rows    [][][]relation.Tuple // [schema][relation] deduplicated tuples
}

// relName is the database name of relation j of schema s.
func (d *adhocData) relName(s, j int) string {
	return fmt.Sprintf("S%d%s", s+1, d.schemas[s].Names[j])
}

// relOf returns the index of the relation of schema s holding attribute a.
func (d *adhocData) relOf(s int, a relation.Attribute) int {
	for j, sch := range d.schemas[s].Relations {
		for _, b := range sch {
			if a == b {
				return j
			}
		}
	}
	return -1
}

// qualified returns the database name of attribute a of schema s.
func (d *adhocData) qualified(s int, a relation.Attribute) string {
	return d.relName(s, d.relOf(s, a)) + "." + string(a)
}

// shape is one ad hoc query: COUNT over the join of one schema's relations
// under its equalities, grouped by one attribute or not.
type shape struct {
	schema  int
	eqs     []core.Equality
	group   relation.Attribute // "" for an ungrouped COUNT
	clauses []fdb.Clause
	want    checksum
}

// poolSeed seeds the schemas and the shape pool. The pool is fixed, as the
// retailer pool is: only about 3% of shapes escalate to exhaustive search,
// so a pool drawn per seed put 12 to 39 ms into read_p99_ms depending on
// which few shapes escalated. The run's seed drives the data and the
// request sequence.
const poolSeed = 1

// genAdhocData draws the schemas from the pool seed and the tuples from rng.
func genAdhocData(rng *rand.Rand, p adhocParams) (*adhocData, error) {
	d := &adhocData{}
	prng := rand.New(rand.NewSource(poolSeed))
	for s := 0; s < p.schemas; s++ {
		sch, err := gen.RandomSchema(prng, adhocRelations, adhocAttrs)
		if err != nil {
			return nil, err
		}
		d.schemas = append(d.schemas, sch)
	}
	for _, sch := range d.schemas {
		var rels [][]relation.Tuple
		for _, rs := range sch.Relations {
			seen := map[string]bool{}
			var ts []relation.Tuple
			for i := 0; i < adhocTuples; i++ {
				t := make(relation.Tuple, len(rs))
				for k := range t {
					t[k] = relation.Value(rng.Intn(adhocDomain) + 1)
				}
				if k := fmt.Sprint(t); !seen[k] {
					seen[k] = true
					ts = append(ts, t)
				}
			}
			rels = append(rels, ts)
		}
		d.rows = append(d.rows, rels)
	}
	return d, nil
}

// genShapes draws the pool from the pool seed. Pool rank r gets 2 + r mod 9 equalities and is
// grouped in one rank block of 9 out of 3, so every seed puts the same mix
// of query sizes on the popular ranks; the equalities and the group-by
// attribute themselves are random.
func genShapes(d *adhocData, p adhocParams) ([]*shape, error) {
	rng := rand.New(rand.NewSource(poolSeed + 1))
	span := adhocMaxEq - adhocMinEq + 1
	seen := map[string]bool{}
	var out []*shape
	for r := 0; len(out) < p.shapes; r++ {
		if r > 100*p.shapes {
			return nil, fmt.Errorf("adhoc: cannot draw %d distinct shapes", p.shapes)
		}
		i := len(out)
		sh := &shape{schema: i % p.schemas}
		sch := d.schemas[sh.schema]
		eqs, err := gen.RandomEqualities(rng, sch, adhocMinEq+i%span)
		if err != nil {
			return nil, err
		}
		sh.eqs = eqs
		if (i/span)%3 == 0 {
			rel := sch.Relations[rng.Intn(len(sch.Relations))]
			sh.group = rel[rng.Intn(len(rel))]
		}
		var names []string
		for j := range sch.Relations {
			names = append(names, d.relName(sh.schema, j))
		}
		sh.clauses = append(sh.clauses, fdb.From(names...))
		var keys []string
		for _, e := range eqs {
			a, b := d.qualified(sh.schema, e.A), d.qualified(sh.schema, e.B)
			sh.clauses = append(sh.clauses, fdb.Eq(a, b))
			if a > b {
				a, b = b, a
			}
			keys = append(keys, a+"="+b)
		}
		if sh.group != "" {
			sh.clauses = append(sh.clauses, fdb.GroupBy(d.qualified(sh.schema, sh.group)))
		}
		sh.clauses = append(sh.clauses, fdb.Agg(fdb.Count, ""))
		sort.Strings(keys)
		key := fmt.Sprintf("%d|%s|%s", sh.schema, strings.Join(keys, ","), sh.group)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, sh)
	}
	return out, nil
}

// loadAdhoc creates and fills a database with the generated data.
func loadAdhoc(d *adhocData) (*fdb.DB, error) {
	db := fdb.New()
	for s, sch := range d.schemas {
		for j, rs := range sch.Relations {
			attrs := make([]string, len(rs))
			for k, a := range rs {
				attrs[k] = string(a)
			}
			if err := db.Create(d.relName(s, j), attrs...); err != nil {
				return nil, err
			}
			rows := make([][]interface{}, len(d.rows[s][j]))
			for i, t := range d.rows[s][j] {
				row := make([]interface{}, len(t))
				for k, v := range t {
					row[k] = int64(v)
				}
				rows[i] = row
			}
			if err := db.InsertBatch(d.relName(s, j), rows); err != nil {
				return nil, err
			}
		}
	}
	return db, nil
}

// aggCounts normalises a COUNT result to group key -> count ("" for the
// ungrouped total), dropping empty groups.
func aggCounts(ar *fdb.AggResult) map[string]int64 {
	out := map[string]int64{}
	for i := 0; i < ar.Len(); i++ {
		if v := ar.Value(i, 0); v != 0 {
			out[strings.Join(ar.Key(i), ",")] = v
		}
	}
	return out
}

// oracleCounts evaluates a shape with the flat rdb oracle: the join splits
// into connected components, each is enumerated flat, and the COUNT is the
// product of the component counts (times the group's count in the
// grouped component). ok is false when a component's flat result exceeds
// maxTuples.
func oracleCounts(d *adhocData, sh *shape, maxTuples int64) (map[string]int64, bool, error) {
	sch := d.schemas[sh.schema]
	n := len(sch.Relations)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			i = parent[i]
		}
		return i
	}
	for _, e := range sh.eqs {
		parent[find(d.relOf(sh.schema, e.A))] = find(d.relOf(sh.schema, e.B))
	}
	total := int64(1)
	var groups map[string]int64
	for c := 0; c < n; c++ {
		if find(c) != c {
			continue
		}
		q := &core.Query{}
		grouped := false
		for j := 0; j < n; j++ {
			if find(j) != c {
				continue
			}
			r := relation.New(sch.Names[j], sch.Relations[j])
			for _, t := range d.rows[sh.schema][j] {
				r.AppendTuple(append(relation.Tuple(nil), t...))
			}
			q.Relations = append(q.Relations, r)
			for _, a := range sch.Relations[j] {
				grouped = grouped || a == sh.group
			}
		}
		for _, e := range sh.eqs {
			if find(d.relOf(sh.schema, e.A)) == c {
				q.Equalities = append(q.Equalities, e)
			}
		}
		res, err := rdb.Evaluate(q, rdb.Options{MaxTuples: maxTuples + 1, Materialize: grouped})
		if err != nil {
			return nil, false, err
		}
		if res.TimedOut || res.Tuples > maxTuples {
			return nil, false, nil
		}
		if !grouped {
			total *= res.Tuples
			continue
		}
		pos := -1
		for k, a := range res.Relation.Schema {
			if a == sh.group {
				pos = k
			}
		}
		groups = map[string]int64{}
		for _, t := range res.Relation.Tuples {
			groups[strconv.FormatInt(int64(t[pos]), 10)]++
		}
	}
	out := map[string]int64{}
	if sh.group == "" {
		if total != 0 {
			out[""] = total
		}
		return out, true, nil
	}
	for k, v := range groups {
		if v*total != 0 {
			out[k] = v * total
		}
	}
	return out, true, nil
}

// adhocPrecheck runs every shape once on db and compares its counts with
// the rdb oracle, or, for shapes whose flat components are too large to
// enumerate, with an identically loaded reference database evaluated
// serially without a plan cache. It records each shape's checksum for the
// timed checks.
func adhocPrecheck(db *fdb.DB, d *adhocData, shapes []*shape, p adhocParams, o *outcome) (flatChecked int, err error) {
	ref, err := loadAdhoc(d)
	if err != nil {
		return 0, err
	}
	ref.SetParallelism(1)
	ref.SetPlanCacheCapacity(0)
	for i, sh := range shapes {
		want, ok, err := oracleCounts(d, sh, p.oracleCap)
		if err != nil {
			return 0, fmt.Errorf("oracle shape %d: %w", i, err)
		}
		if ok {
			flatChecked++
		} else {
			ar, err := ref.QueryAgg(sh.clauses...)
			if err != nil {
				return 0, fmt.Errorf("reference shape %d: %w", i, err)
			}
			want = aggCounts(ar)
		}
		o.attempted++
		ar, err := db.QueryAgg(sh.clauses...)
		if err != nil {
			o.fail("precheck shape %d: %v", i, err)
			continue
		}
		if got := aggCounts(ar); fmt.Sprint(got) != fmt.Sprint(want) {
			o.fail("precheck shape %d: counts %v, want %v", i, got, want)
			continue
		}
		sh.want = hashAgg(ar, 1)
	}
	return flatChecked, nil
}

// zipf draws pool ranks with probability proportional to 1/(rank+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	sum := 0.0
	for i := range z.cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

func (z *zipf) draw(rng *rand.Rand) int {
	u := rng.Float64()
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// adhocRec collects the traced phase's per-layer figures.
type adhocRec struct {
	tr        *tracer
	hit, miss latencies
	cost      float64
}

// adhocRead runs one shape through DB.QueryAgg and reads its rows. In the traced
// phase the call is issued as its two public halves — PrepareCached (the
// plan-cache lookup, planning on a miss) then ExecAgg — which is the path
// QueryAgg takes, so each half gets its own span.
func adhocRead(db *fdb.DB, sh *shape, rec *adhocRec, req uint32) (checksum, error) {
	if rec == nil {
		ar, err := db.QueryAgg(sh.clauses...)
		if err != nil {
			return checksum{}, err
		}
		return hashAgg(ar, 1), nil
	}
	tr := rec.tr
	t0 := time.Now()
	root := tr.beginAt("bench.read", -1, req, t0)
	before := db.CacheStats().Misses
	sp := tr.begin("fdb.prepare_cached", root, req)
	st, err := db.PrepareCached(sh.clauses...)
	tr.end(sp)
	if err != nil {
		tr.end(root)
		return checksum{}, err
	}
	miss := db.CacheStats().Misses != before
	exec := "frep.agg"
	if miss {
		// A miss planned the statement, and its first execution builds the
		// arena before aggregating.
		tr.rename(sp, "opt.prepare")
		exec = "fbuild.exec_agg"
		rec.cost += st.Cost()
	}
	ep := tr.begin(exec, root, req)
	ar, err := st.ExecAgg()
	tr.end(ep)
	if err != nil {
		tr.end(root)
		return checksum{}, err
	}
	cs := hashAgg(ar, 1)
	tr.end(root)
	if miss {
		rec.miss.add(time.Since(t0))
	} else {
		rec.hit.add(time.Since(t0))
	}
	return cs, nil
}

func adhocLoop(db *fdb.DB, shapes []*shape, z *zipf, seconds float64, rng *rand.Rand, rec *adhocRec, o *outcome) *windowed {
	lat := newWindowed(seconds)
	var req uint32
	dur := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	for time.Since(start) < dur {
		if rec == nil {
			lat.sampleHeap(time.Since(start))
		}
		r := z.draw(rng)
		sh := shapes[r]
		req++
		t0 := time.Now()
		cs, err := adhocRead(db, sh, rec, req)
		d := time.Since(t0)
		o.attempted++
		if err != nil {
			o.fail("shape %d: %v", r, err)
			continue
		}
		if cs != sh.want {
			o.fail("shape %d: %d rows checksum %016x, want %d rows checksum %016x", r, cs.count, cs.sum, sh.want.count, sh.want.sum)
			continue
		}
		lat.add(time.Since(start), d)
	}
	return lat
}

func runAdhoc(cfg config, p adhocParams) (o *outcome, err error) {
	o = &outcome{}
	rng := rand.New(rand.NewSource(cfg.seed))
	d, err := genAdhocData(rng, p)
	if err != nil {
		return nil, err
	}
	shapes, err := genShapes(d, p)
	if err != nil {
		return nil, err
	}
	setups := &setupRuns[*fdb.DB]{n: cfg.setups, setup: func(bool) (*fdb.DB, error) { return loadAdhoc(d) }}
	db, err := setups.before()
	if err != nil {
		return nil, err
	}
	defer func() {
		if err == nil {
			err = setups.after(o)
		}
	}()
	flat, err := adhocPrecheck(db, d, shapes, p, o)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.log, "  precheck: %d shapes, %d against the flat rdb oracle, %d against the reference database\n",
		len(shapes), flat, len(shapes)-flat)
	z := newZipf(len(shapes), p.zipfS)

	lat := adhocLoop(db, shapes, z, cfg.seconds, rng, nil, o)
	heap := lat.heapMetric()
	runtime.KeepAlive(db)
	o.e2e = append(o.e2e, lat.timing("read")...)
	o.e2e = append(o.e2e, lat.rate("read_qps"), heap)
	if !cfg.trace {
		return o, nil
	}

	tr := newTracer(spanCapacity)
	rec := &adhocRec{tr: tr}
	cs0 := db.CacheStats()
	gc0 := readGC()
	tlat := adhocLoop(db, shapes, z, cfg.seconds, rng, rec, o)
	gcm := gcMetrics(gc0)
	cs := db.CacheStats()
	// PrepareCached and QueryAgg count one lookup each per read.
	hits, misses := cs.Hits-cs0.Hits, cs.Misses-cs0.Misses
	l := &o.layer
	*l = append(*l, spanTimings(tr, "opt.prepare", "opt.prepare_ms", 50, 99)...)
	*l = append(*l,
		ratio("opt.escalation_frac", float64(cs.Escalations-cs0.Escalations), float64(misses)),
		metric{Name: "opt.budget_fallbacks", Value: float64(cs.BudgetFallbacks - cs0.BudgetFallbacks), Unit: "count", N: int(misses)},
		ratio("opt.cost_mean", rec.cost, float64(misses)),
		ratio("fdb.cache_hit_rate", float64(hits), float64(hits+misses)),
		quantile("fdb.cache_hit_ms.p50", rec.hit, 50),
		quantile("fdb.cache_miss_ms.p50", rec.miss, 50))
	*l = append(*l, spanTimings(tr, "frep.agg", "frep.agg_ms", 50)...)
	*l = append(*l, gcm...)
	*l = append(*l, overhead(lat, tlat))
	return o, reportTrace(cfg, "adhoc-shapes", tr)
}
