// Package fuzz is the differential testing harness of the engine: it
// derives a complete random query workload from a single seed — schema and
// data via internal/gen, a conjunctive equality join, constant selections,
// a projection or a group-by aggregation, and (for tuple results) random
// OrderBy keys (mixed asc/desc, tree-compatible and incompatible),
// Limit/Offset and Distinct — runs it through the public fdb surface at a
// chosen execution parallelism, and checks the result against the flat
// internal/rdb oracle as an exact tuple *sequence*: the engine's
// enumeration order is deterministic (ORDER BY keys first, remaining
// columns ascending), so the oracle sorts its flat result with the same
// comparator and every position must match. Every failure message leads
// with the seed, so any mismatch found by the randomised tests or by `go
// test -fuzz` reproduces with Check(seed, p) alone.
package fuzz

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strconv"

	fdb "repro"
	"repro/internal/core"
	"repro/internal/frep"
	"repro/internal/gen"
	"repro/internal/rdb"
	"repro/internal/relation"
)

// maxOracleTuples caps the flat result the oracle is asked to materialise;
// the generator's sizes keep real cases far below it, so hitting the cap
// skips the case rather than failing it.
const maxOracleTuples = 500_000

// Querier is the query surface a differential check runs against: the live
// database or a pinned snapshot — both answer the same clause language, so
// the same oracle comparison covers read-your-writes and snapshot reads.
type Querier interface {
	Query(clauses ...fdb.Clause) (*fdb.Result, error)
	QueryAgg(clauses ...fdb.Clause) (*fdb.AggResult, error)
}

// Case is one derived differential test case. All randomness comes from the
// seed; two Cases with the same seed are identical.
type Case struct {
	Seed int64
	// Mode forces a planning tier on the case's database (zero value is
	// fdb.PlannerAuto). The oracle comparison is tier-blind, so running the
	// same seed under PlannerGreedy and PlannerExhaustive is the
	// greedy-vs-exhaustive differential: both tiers must reproduce the same
	// exact tuple sequence.
	Mode     fdb.PlannerMode
	rels     []*relation.Relation // qualified-schema inputs for the oracle
	names    []string             // relation names, creation order
	bare     map[string][]string  // relation name -> bare attribute names
	eqs      []core.Equality      // qualified
	sels     []core.ConstSel      // qualified
	project  []relation.Attribute // qualified; nil when aggregating or keeping all
	groupBy  []relation.Attribute // qualified; aggregation cases only
	aggs     []frep.AggSpec       // non-empty for aggregation cases
	orderBy  []frep.OrderKey      // qualified; tuple cases only
	limit    int                  // -1: none
	offset   int
	distinct bool
	// String cases insert every value dictionary-encoded through a scrambled
	// alphabet (strs[v-1] is value v's string form; lexicographic order is a
	// random permutation of numeric order), so ORDER BY must sort keys in
	// decoded order — codes are insertion-ordered — and the per-column sort
	// permutations are on the oracle's hook. Range selections on strings
	// compare in decoded order too, so the oracle pre-filters them in string
	// space before its (value-space) join.
	strs []string
	// Set-operation cases (setOp != 0) combine two selection legs over the
	// same relations, equalities and projection: leg one uses sels, leg two
	// sels2, joined by union (1), union all (2), except (3) or intersect (4).
	setOp int
	sels2 []core.ConstSel
	// Where/Join leg (every case): whereEqs (and, when non-nil,
	// whereProject) are applied to the joined, selected result through
	// Result.Where; the relations split at joinSplit into two legs that
	// Result.Join recombines on the equalities crossing the split plus
	// joinEqs.
	whereEqs     []core.Equality
	whereProject []relation.Attribute
	joinSplit    int
	joinEqs      []core.Equality
}

// NewCase derives a case from the seed.
func NewCase(seed int64) (*Case, error) {
	rng := rand.New(rand.NewSource(seed))
	c := &Case{Seed: seed, bare: map[string][]string{}, limit: -1}

	r := 2 + rng.Intn(2)           // 2..3 relations
	a := r + rng.Intn(5)           // r..r+4 attributes
	n := 5 + rng.Intn(40)          // tuples per relation
	m := 2 + rng.Intn(10)          // value domain [1, m]
	k := 1 + rng.Intn(min(a-1, 3)) // join equalities
	dist := gen.Uniform
	if rng.Intn(3) == 0 {
		dist = gen.Zipf
	}

	sch, err := gen.RandomSchema(rng, r, a)
	if err != nil {
		return nil, err
	}
	eqs, err := gen.RandomEqualities(rng, sch, k)
	if err != nil {
		return nil, err
	}
	rels := sch.Populate(rng, n, gen.NewSampler(rng, dist, m))

	// Qualify every attribute as "Rel.attr" — the names the fdb surface
	// gives them — so the oracle query and the fdb query read identically.
	owner := map[relation.Attribute]relation.Attribute{}
	for _, rel := range rels {
		qual := make(relation.Schema, len(rel.Schema))
		for j, attr := range rel.Schema {
			q := relation.Attribute(rel.Name + "." + string(attr))
			owner[attr] = q
			qual[j] = q
			c.bare[rel.Name] = append(c.bare[rel.Name], string(attr))
		}
		rel.Schema = qual
		c.names = append(c.names, rel.Name)
	}
	c.rels = rels
	for _, e := range eqs {
		c.eqs = append(c.eqs, core.Equality{A: owner[e.A], B: owner[e.B]})
	}

	var attrs []relation.Attribute
	for _, rel := range rels {
		attrs = append(attrs, rel.Schema...)
	}

	// One case in three runs on dictionary-encoded strings through a
	// scrambled alphabet (the permutation makes decoded order disagree with
	// code order); only applied to tuple-result cases (aggregates over codes
	// have no flat-int reference).
	useStrings := rng.Intn(3) == 0
	scramble := rng.Perm(m)

	// Constant selections: 0-2, values around the domain, any operator —
	// string cases included: ranges on strings compare in decoded
	// lexicographic order on both sides of the differential.
	ops := []fdb.CmpOp{fdb.EQ, fdb.NE, fdb.LT, fdb.LE, fdb.GT, fdb.GE}
	c.sels = gen.RandomConstSels(rng, attrs, 2, m, ops)

	// Query shape: plain (possibly projected) or aggregation.
	if rng.Intn(5) < 2 {
		// Aggregation: 0-2 group-by attributes, 1-3 aggregates.
		perm := rng.Perm(len(attrs))
		for i := rng.Intn(3); i > 0 && len(c.groupBy) < len(attrs); i-- {
			c.groupBy = append(c.groupBy, attrs[perm[len(c.groupBy)]])
		}
		fns := []frep.AggFunc{frep.AggCount, frep.AggSum, frep.AggMin, frep.AggMax, frep.AggCountDistinct}
		for i := 1 + rng.Intn(3); i > 0; i-- {
			fn := fns[rng.Intn(len(fns))]
			spec := frep.AggSpec{Fn: fn}
			if fn != frep.AggCount {
				spec.Attr = attrs[rng.Intn(len(attrs))]
			}
			c.aggs = append(c.aggs, spec)
		}
	} else if rng.Intn(2) == 0 {
		// Projection onto a random non-empty subset, random order.
		perm := rng.Perm(len(attrs))
		keep := 1 + rng.Intn(len(attrs))
		for _, i := range perm[:keep] {
			c.project = append(c.project, attrs[i])
		}
	}
	if len(c.aggs) == 0 {
		// Order-aware retrieval clauses over the output attributes: random
		// key sets land on tree-compatible and incompatible orders alike, so
		// both the streaming iterator and the heap fallback are exercised —
		// with and without Limit/Offset clipping and Distinct.
		out := attrs
		if c.project != nil {
			out = c.project
		}
		if rng.Intn(2) == 0 {
			c.orderBy = gen.RandomOrderBy(rng, out, 3)
		}
		if rng.Intn(3) == 0 {
			c.limit = rng.Intn(25)
		}
		if rng.Intn(4) == 0 {
			c.offset = rng.Intn(8)
		}
		if rng.Intn(4) == 0 {
			c.distinct = true
		}
		if useStrings {
			c.strs = make([]string, m)
			for v := 1; v <= m; v++ {
				c.strs[v-1] = fmt.Sprintf("s%03d", scramble[v-1])
			}
		}
		// One tuple case in three additionally runs as a set operation: a
		// second selection leg over the same relations, equalities and
		// projection, combined by a random operator. The plain leg-one check
		// still runs, so set cases subsume plain coverage.
		if rng.Intn(3) == 0 {
			c.setOp = 1 + rng.Intn(4)
			c.sels2 = gen.RandomConstSels(rng, attrs, 2, m, ops)
		}
	}
	// The Where/Join leg draws last: drawing earlier would change every
	// field above for a given seed, and with them the checked-in corpus.
	for i := 1 + rng.Intn(2); i > 0; i-- {
		if x, y := attrs[rng.Intn(len(attrs))], attrs[rng.Intn(len(attrs))]; x != y {
			c.whereEqs = append(c.whereEqs, core.Equality{A: x, B: y})
		}
	}
	if rng.Intn(2) == 0 {
		perm := rng.Perm(len(attrs))
		for _, i := range perm[:1+rng.Intn(len(attrs))] {
			c.whereProject = append(c.whereProject, attrs[i])
		}
	}
	c.joinSplit = 1 + rng.Intn(len(rels)-1)
	if rng.Intn(2) == 0 {
		var left, right []relation.Attribute
		for i, rel := range rels {
			if i < c.joinSplit {
				left = append(left, rel.Schema...)
			} else {
				right = append(right, rel.Schema...)
			}
		}
		c.joinEqs = []core.Equality{{A: left[rng.Intn(len(left))], B: right[rng.Intn(len(right))]}}
	}
	return c, nil
}

// codes replays the dictionary assignment the engine performs while the
// case's tuples are inserted (codes are handed out in first-appearance scan
// order), returning value → code. Selection constants never mint codes —
// query comparison is a read path — so only the inserted data contributes.
func (c *Case) codes() map[relation.Value]relation.Value {
	out := map[relation.Value]relation.Value{}
	next := relation.Value(0)
	for _, rel := range c.rels {
		for _, t := range rel.Tuples {
			for _, v := range t {
				if _, ok := out[v]; !ok {
					out[v] = next
					next++
				}
			}
		}
	}
	return out
}

// Check derives the case for seed and runs it at the given parallelism,
// returning a seed-stamped error on any divergence from the oracle.
func Check(seed int64, parallelism int) error {
	c, err := NewCase(seed)
	if err != nil {
		return fmt.Errorf("fuzz: seed %d: generate: %v", seed, err)
	}
	return c.Run(parallelism)
}

// Run executes the case at the given parallelism against a fresh database.
func (c *Case) Run(parallelism int) error { return c.run(parallelism, nil) }

// CheckPlanner derives the case for seed and runs it with the database
// forced to the given planning tier. Checking a seed under both
// fdb.PlannerGreedy and fdb.PlannerExhaustive proves the tiers agree: each
// leg must match the flat oracle's exact tuple sequence, so any divergence
// between the greedy and exhaustive trees surfaces as a failure in one leg.
func CheckPlanner(seed int64, parallelism int, mode fdb.PlannerMode) error {
	c, err := NewCase(seed)
	if err != nil {
		return fmt.Errorf("fuzz: seed %d: generate: %v", seed, err)
	}
	c.Mode = mode
	return c.Run(parallelism)
}

// CheckPersisted derives the case for seed and runs it through a snapshot
// round-trip: the database is built exactly as Check builds it, saved as a
// zero-copy snapshot file under dir, reopened from the file (mmap when
// available), and the oracle comparison runs against the reopened database.
// Opened-snapshot reads thereby face the same differential bar as live
// ones — including the adopted pre-built encoding, since the plan cache is
// warmed before the save so the file carries the arena the reopened
// database's first query adopts.
func CheckPersisted(seed int64, parallelism int, dir string) error {
	c, err := NewCase(seed)
	if err != nil {
		return fmt.Errorf("fuzz: seed %d: generate: %v", seed, err)
	}
	return c.run(parallelism, func(db *fdb.DB, clauses []fdb.Clause) (*fdb.DB, error) {
		if len(c.aggs) == 0 {
			// Memoise the encoding so the snapshot carries it and the
			// reopened database exercises the zero-copy adoption path.
			if _, err := db.Query(clauses...); err != nil {
				return nil, err
			}
		}
		path := filepath.Join(dir, fmt.Sprintf("case%d.fdb", seed))
		if err := db.SaveSnapshot(path); err != nil {
			return nil, err
		}
		ndb, err := fdb.OpenSnapshotFile(path)
		if err != nil {
			return nil, err
		}
		ndb.SetParallelism(parallelism)
		return ndb, nil
	})
}

// run builds the case's database, optionally routes it through a persist
// hook (which may replace it with a reopened copy), and checks the result
// of every query variant against the flat oracle.
func (c *Case) run(parallelism int, persist func(*fdb.DB, []fdb.Clause) (*fdb.DB, error)) error {
	fail := func(format string, args ...interface{}) error {
		return fmt.Errorf("fuzz: seed %d (p=%d mode=%d): %s", c.Seed, parallelism, c.Mode, fmt.Sprintf(format, args...))
	}

	db := fdb.New()
	db.SetParallelism(parallelism)
	db.SetPlannerMode(c.Mode)
	for _, rel := range c.rels {
		if err := db.Create(rel.Name, c.bare[rel.Name]...); err != nil {
			return fail("create: %v", err)
		}
		for _, t := range rel.Tuples {
			vals := make([]interface{}, len(t))
			for i, v := range t {
				if c.strs != nil {
					vals[i] = c.strs[v-1]
				} else {
					vals[i] = int64(v)
				}
			}
			if err := db.Insert(rel.Name, vals...); err != nil {
				return fail("insert: %v", err)
			}
		}
	}

	base := []fdb.Clause{fdb.From(c.names...)}
	for _, e := range c.eqs {
		base = append(base, fdb.Eq(string(e.A), string(e.B)))
	}
	clauses := append(append([]fdb.Clause{}, base...), c.selClauses(c.sels)...)

	if persist != nil {
		ndb, err := persist(db, clauses)
		if err != nil {
			return fail("persist: %v", err)
		}
		db = ndb
	}

	// Oracle: the flat relational engine on the same qualified query.
	flat, err := c.oracleFlat(c.eqs, c.sels)
	if err != nil {
		return fail("oracle: %v", err)
	}
	if flat == nil {
		return nil // flat result past the cap: not this harness's business
	}

	if err := c.checkWhereJoin(db, clauses, fail); err != nil {
		return err
	}
	if len(c.aggs) > 0 {
		return c.checkAgg(db, clauses, flat, fail)
	}
	if err := c.checkPlain(db, clauses, flat, fail); err != nil {
		return err
	}
	if c.setOp != 0 {
		return c.checkSet(db, base, flat, fail)
	}
	return nil
}

// checkWhereJoin runs the follow-up f-plans of the case against the flat
// oracle of the combined query: the case's join and selections refined by
// extra equalities (and a projection) through Result.Where, and the
// relations split into two legs recombined through Result.Join. Both run
// the f-plan operators — swap and absorb among them — on built
// representations; the results compare unordered and unclipped.
func (c *Case) checkWhereJoin(db *fdb.DB, clauses []fdb.Clause, fail func(string, ...interface{}) error) error {
	plain := *c
	plain.orderBy, plain.offset, plain.limit, plain.distinct = nil, 0, -1, false

	res, err := db.Query(clauses...)
	if err != nil {
		return fail("query: %v", err)
	}
	var where []fdb.Clause
	for _, e := range c.whereEqs {
		where = append(where, fdb.Eq(string(e.A), string(e.B)))
	}
	if c.whereProject != nil {
		where = append(where, fdb.Project(attrNames(c.whereProject)...))
	}
	if res, err = res.Where(where...); err != nil {
		return fail("where: %v", err)
	}
	want, err := c.oracleFlat(append(append([]core.Equality{}, c.eqs...), c.whereEqs...), c.sels)
	if err != nil {
		return fail("where oracle: %v", err)
	}
	if want != nil {
		if c.whereProject != nil {
			want = want.Project(c.whereProject)
		}
		if err := plain.comparePlain(res, want, fail); err != nil {
			return fmt.Errorf("where leg %v project %v: %w", c.whereEqs, c.whereProject, err)
		}
	}

	// Join leg: each side keeps the equalities within it; the rest join.
	side := map[relation.Attribute]int{} // 0: left leg, 1: right leg
	for _, rel := range c.rels[c.joinSplit:] {
		for _, a := range rel.Schema {
			side[a] = 1
		}
	}
	legs := [2][]fdb.Clause{{fdb.From(c.names[:c.joinSplit]...)}, {fdb.From(c.names[c.joinSplit:]...)}}
	var on []fdb.Clause
	for _, e := range c.eqs {
		eq := fdb.Eq(string(e.A), string(e.B))
		if l := side[e.A]; l == side[e.B] {
			legs[l] = append(legs[l], eq)
		} else {
			on = append(on, eq)
		}
	}
	for _, e := range c.joinEqs {
		on = append(on, fdb.Eq(string(e.A), string(e.B)))
	}
	var parts [2]*fdb.Result
	for i, leg := range legs {
		if parts[i], err = db.Query(leg...); err != nil {
			return fail("join leg %d: %v", i, err)
		}
	}
	joined, err := parts[0].Join(parts[1], on...)
	if err != nil {
		return fail("join: %v", err)
	}
	want, err = c.oracleFlat(append(append([]core.Equality{}, c.eqs...), c.joinEqs...), nil)
	if err != nil {
		return fail("join oracle: %v", err)
	}
	if want == nil {
		return nil
	}
	if err := plain.comparePlain(joined, want, fail); err != nil {
		return fmt.Errorf("join leg split %d extra %v: %w", c.joinSplit, c.joinEqs, err)
	}
	return nil
}

// attrNames renders qualified attributes as the strings the clauses take.
func attrNames(attrs []relation.Attribute) []string {
	out := make([]string, len(attrs))
	for i, a := range attrs {
		out[i] = string(a)
	}
	return out
}

// selClauses renders a selection leg as fdb Cmp clauses (string form for
// string cases).
func (c *Case) selClauses(sels []core.ConstSel) []fdb.Clause {
	var out []fdb.Clause
	for _, s := range sels {
		if c.strs != nil {
			out = append(out, fdb.Cmp(string(s.A), s.Op, c.strs[s.C-1]))
		} else {
			out = append(out, fdb.Cmp(string(s.A), s.Op, int64(s.C)))
		}
	}
	return out
}

// oracleFlat evaluates the case's relations joined on eqs under one
// selection leg against the flat rdb oracle and returns the materialised
// result (nil when past the materialisation cap).
// For string cases, range selections compare in decoded lexicographic order
// — not in the oracle's integer value space — so they are applied as
// string-space pre-filters on the inputs (a single-attribute selection
// commutes with the equi-join); equalities commute with the injective
// dictionary and stay in value space.
func (c *Case) oracleFlat(eqs []core.Equality, sels []core.ConstSel) (*relation.Relation, error) {
	oq := &core.Query{Equalities: eqs}
	var strRanges []core.ConstSel
	for _, s := range sels {
		if c.strs != nil && s.Op != fdb.EQ && s.Op != fdb.NE {
			strRanges = append(strRanges, s)
			continue
		}
		oq.Selections = append(oq.Selections, s)
	}
	for _, rel := range c.rels {
		r := rel.Clone()
		for _, s := range strRanges {
			col := r.Schema.Index(s.A)
			if col < 0 {
				continue
			}
			s, col := s, col
			r = r.Filter(func(t relation.Tuple) bool { return c.strRangeMatch(t[col], s) })
		}
		oq.Relations = append(oq.Relations, r)
	}
	ores, err := rdb.Evaluate(oq, rdb.Options{Materialize: true, MaxTuples: maxOracleTuples})
	if err != nil {
		return nil, err
	}
	if ores.TimedOut || ores.Relation == nil {
		return nil, nil
	}
	return ores.Relation, nil
}

// strRangeMatch evaluates a string range selection in decoded space: both
// the data value and the constant map through the scrambled alphabet.
func (c *Case) strRangeMatch(v relation.Value, s core.ConstSel) bool {
	dv, dc := c.strs[v-1], c.strs[s.C-1]
	switch s.Op {
	case fdb.LT:
		return dv < dc
	case fdb.LE:
		return dv <= dc
	case fdb.GT:
		return dv > dc
	case fdb.GE:
		return dv >= dc
	}
	return false
}

// checkPlain compares the enumerated factorised result with the flat oracle
// as an exact tuple sequence: the oracle's (set-semantics) flat result is
// sorted with the engine's retrieval comparator — the OrderBy keys first,
// then every result column ascending — clipped by Offset/Limit, and each
// position must match (the factorised count must agree too).
func (c *Case) checkPlain(db Querier, clauses []fdb.Clause, flat *relation.Relation, fail func(string, ...interface{}) error) error {
	if c.project != nil {
		clauses = append(clauses, fdb.Project(attrNames(c.project)...))
	}
	if len(c.orderBy) > 0 {
		keys := make([]interface{}, len(c.orderBy))
		for i, k := range c.orderBy {
			if k.Desc {
				keys[i] = fdb.Desc(string(k.Attr))
			} else {
				keys[i] = fdb.Asc(string(k.Attr))
			}
		}
		clauses = append(clauses, fdb.OrderBy(keys...))
	}
	if c.distinct {
		clauses = append(clauses, fdb.Distinct())
	}
	if c.offset > 0 {
		clauses = append(clauses, fdb.Offset(c.offset))
	}
	if c.limit >= 0 {
		clauses = append(clauses, fdb.Limit(c.limit))
	}
	res, err := db.Query(clauses...)
	if err != nil {
		return fail("query: %v", err)
	}

	want := flat
	if c.project != nil {
		want = flat.Project(c.project) // set semantics, like the engine
	}
	return c.comparePlain(res, want, fail)
}

// comparePlain checks one tuple result against its flat reference relation
// (already projected; duplicates preserved — union-all references are
// bags): the reference moves into the engine's column order, sorts by the
// retrieval comparator, clips by Offset/Limit, and each position must
// match.
func (c *Case) comparePlain(res *fdb.Result, want *relation.Relation, fail func(string, ...interface{}) error) error {
	gotSchema := make(relation.Schema, 0, len(res.Schema()))
	for _, a := range res.Schema() {
		gotSchema = append(gotSchema, relation.Attribute(a))
	}
	// Reference sequence: the oracle tuples permuted into the engine's
	// column order (a pure permutation — never a dedup, so bag references
	// survive), sorted by the retrieval comparator, clipped. For string
	// cases the oracle moves into dictionary-code space first (replaying the
	// engine's insertion-ordered code assignment) and sorts keys by decoded
	// string — exactly the contract: keys decoded, residual ties by code.
	perm := make([]int, len(gotSchema))
	for i, a := range gotSchema {
		if perm[i] = want.Schema.Index(a); perm[i] < 0 {
			return fail("result schema %v not covered by oracle schema %v", gotSchema, want.Schema)
		}
	}
	ref := make([]relation.Tuple, len(want.Tuples))
	for i, t := range want.Tuples {
		nt := make(relation.Tuple, len(perm))
		for j, cix := range perm {
			nt[j] = t[cix]
		}
		ref[i] = nt
	}
	var less frep.ValueLess
	if c.strs != nil {
		code := c.codes()
		str := make(map[relation.Value]string, len(code))
		for v, cd := range code {
			str[cd] = c.strs[v-1]
		}
		for _, t := range ref {
			for i, v := range t {
				t[i] = code[v]
			}
		}
		less = func(a, b relation.Value) bool { return str[a] < str[b] }
	}
	cmp := frep.TupleCompare(gotSchema, c.orderBy, less)
	sort.SliceStable(ref, func(i, j int) bool { return cmp(ref[i], ref[j]) < 0 })
	expect := ref
	if c.offset > 0 {
		if c.offset >= len(expect) {
			expect = nil
		} else {
			expect = expect[c.offset:]
		}
	}
	if c.limit >= 0 && len(expect) > c.limit {
		expect = expect[:c.limit]
	}

	var got []relation.Tuple
	it := res.Iter()
	for {
		t, ok := it.Next()
		if !ok {
			break
		}
		got = append(got, t.Clone())
	}
	if int64(len(got)) != res.Count() {
		return fail("enumerated %d tuples but Count() = %d", len(got), res.Count())
	}
	if len(got) != len(expect) {
		return fail("result has %d tuples, oracle %d", len(got), len(expect))
	}
	for i := range got {
		if got[i].Compare(expect[i]) != 0 {
			return fail("sequence diverges at position %d: fdb %v, oracle %v (order %v offset %d limit %d distinct %v)",
				i, got[i], expect[i], c.orderBy, c.offset, c.limit, c.distinct)
		}
	}
	return nil
}

// checkSet runs the case's set operation through QuerySet (and, when no
// ordering/clipping clauses ride on the case, additionally through the
// Result methods) and compares against the flat rdb set-algebra mirror over
// the two legs' oracle results.
func (c *Case) checkSet(db *fdb.DB, base []fdb.Clause, flat1 *relation.Relation, fail func(string, ...interface{}) error) error {
	flat2, err := c.oracleFlat(c.eqs, c.sels2)
	if err != nil {
		return fail("oracle leg 2: %v", err)
	}
	if flat2 == nil {
		return nil // past the materialisation cap
	}
	leg := func(sels []core.ConstSel) []fdb.Clause {
		cl := append(append([]fdb.Clause{}, base...), c.selClauses(sels)...)
		if c.project != nil {
			cl = append(cl, fdb.Project(attrNames(c.project)...))
		}
		return cl
	}
	want1, want2 := flat1, flat2
	if c.project != nil {
		want1 = flat1.Project(c.project) // set semantics per leg, like the engine
		want2 = flat2.Project(c.project)
	}
	type setRef func(a, b *relation.Relation) (*relation.Relation, error)
	ops := map[int]struct {
		name string
		expr func(a, b *fdb.SetExpr) *fdb.SetExpr
		meth func(a, b *fdb.Result) (*fdb.Result, error)
		ref  setRef
	}{
		1: {"union", fdb.Union, (*fdb.Result).Union, rdb.Union},
		2: {"union all", fdb.UnionAll, (*fdb.Result).UnionAll, rdb.UnionAll},
		3: {"except", fdb.Except, (*fdb.Result).Except, rdb.Except},
		4: {"intersect", fdb.Intersect, (*fdb.Result).Intersect, rdb.Intersect},
	}
	op := ops[c.setOp]
	want, err := op.ref(want1, want2)
	if err != nil {
		return fail("%s reference: %v", op.name, err)
	}
	if c.distinct {
		want = want.Clone()
		want.Dedup() // trailing Distinct normalises a union-all bag
	}

	var trailing []fdb.Clause
	if len(c.orderBy) > 0 {
		keys := make([]interface{}, len(c.orderBy))
		for i, k := range c.orderBy {
			if k.Desc {
				keys[i] = fdb.Desc(string(k.Attr))
			} else {
				keys[i] = fdb.Asc(string(k.Attr))
			}
		}
		trailing = append(trailing, fdb.OrderBy(keys...))
	}
	if c.distinct {
		trailing = append(trailing, fdb.Distinct())
	}
	if c.offset > 0 {
		trailing = append(trailing, fdb.Offset(c.offset))
	}
	if c.limit >= 0 {
		trailing = append(trailing, fdb.Limit(c.limit))
	}
	res, err := db.QuerySet(op.expr(fdb.Sub(leg(c.sels)...), fdb.Sub(leg(c.sels2)...)), trailing...)
	if err != nil {
		return fail("queryset %s: %v", op.name, err)
	}
	if err := c.comparePlain(res, want, fail); err != nil {
		return fmt.Errorf("%s via QuerySet: %w", op.name, err)
	}
	if len(trailing) == 0 {
		r1, err := db.Query(leg(c.sels)...)
		if err != nil {
			return fail("query leg 1: %v", err)
		}
		r2, err := db.Query(leg(c.sels2)...)
		if err != nil {
			return fail("query leg 2: %v", err)
		}
		mres, err := op.meth(r1, r2)
		if err != nil {
			return fail("result %s: %v", op.name, err)
		}
		if err := c.comparePlain(mres, want, fail); err != nil {
			return fmt.Errorf("%s via Result method: %w", op.name, err)
		}
	}
	return nil
}

// checkAgg compares QueryAgg rows against a straight fold over the flat
// oracle result.
func (c *Case) checkAgg(db Querier, clauses []fdb.Clause, flat *relation.Relation, fail func(string, ...interface{}) error) error {
	if len(c.groupBy) > 0 {
		gs := make([]string, len(c.groupBy))
		for i, a := range c.groupBy {
			gs[i] = string(a)
		}
		clauses = append(clauses, fdb.GroupBy(gs...))
	}
	for _, s := range c.aggs {
		clauses = append(clauses, fdb.Agg(s.Fn, string(s.Attr)))
	}
	res, err := db.QueryAgg(clauses...)
	if err != nil {
		return fail("queryagg: %v", err)
	}
	want := flatAggregate(flat, c.groupBy, c.aggs)
	if res.Len() != len(want) {
		return fail("aggregation has %d groups, oracle %d", res.Len(), len(want))
	}
	for i, w := range want {
		key := res.Key(i)
		for j, kv := range w.Key {
			if key[j] != strconv.FormatInt(int64(kv), 10) {
				return fail("group %d key %v, oracle key %v", i, key, w.Key)
			}
		}
		for j, wv := range w.Vals {
			if got := res.Value(i, j); got != wv {
				return fail("group %d (%v) aggregate %d = %d, oracle %d", i, w.Key, j, got, wv)
			}
		}
	}
	return nil
}

// flatAggregate folds the aggregates over the flat oracle result — the
// reference semantics for checkAgg. Rows come back sorted by group key,
// matching frep's order.
func flatAggregate(rel *relation.Relation, groupBy []relation.Attribute, specs []frep.AggSpec) []frep.AggRow {
	gcols := make([]int, len(groupBy))
	for i, a := range groupBy {
		gcols[i] = rel.Schema.Index(a)
	}
	acols := make([]int, len(specs))
	for i, s := range specs {
		if s.Fn != frep.AggCount {
			acols[i] = rel.Schema.Index(s.Attr)
		}
	}
	type state struct {
		key  []relation.Value
		cnt  int64
		sum  []int64
		m    []int64
		mSet []bool
		dist []map[relation.Value]struct{}
	}
	groups := map[string]*state{}
	for _, t := range rel.Tuples {
		kb := make([]byte, 0, 16*len(groupBy))
		for _, c := range gcols {
			kb = strconv.AppendInt(kb, int64(t[c]), 10)
			kb = append(kb, '|')
		}
		k := string(kb)
		s, ok := groups[k]
		if !ok {
			s = &state{
				key: make([]relation.Value, len(groupBy)), sum: make([]int64, len(specs)),
				m: make([]int64, len(specs)), mSet: make([]bool, len(specs)),
				dist: make([]map[relation.Value]struct{}, len(specs)),
			}
			for i, c := range gcols {
				s.key[i] = t[c]
			}
			groups[k] = s
		}
		s.cnt++
		for i, sp := range specs {
			switch sp.Fn {
			case frep.AggCount:
			case frep.AggSum:
				s.sum[i] += int64(t[acols[i]])
			case frep.AggMin:
				if v := int64(t[acols[i]]); !s.mSet[i] || v < s.m[i] {
					s.m[i], s.mSet[i] = v, true
				}
			case frep.AggMax:
				if v := int64(t[acols[i]]); !s.mSet[i] || v > s.m[i] {
					s.m[i], s.mSet[i] = v, true
				}
			case frep.AggCountDistinct:
				if s.dist[i] == nil {
					s.dist[i] = map[relation.Value]struct{}{}
				}
				s.dist[i][t[acols[i]]] = struct{}{}
			}
		}
	}
	rows := make([]frep.AggRow, 0, len(groups))
	for _, s := range groups {
		row := frep.AggRow{Key: s.key, Vals: make([]int64, len(specs))}
		for i, sp := range specs {
			switch sp.Fn {
			case frep.AggCount:
				row.Vals[i] = s.cnt
			case frep.AggSum:
				row.Vals[i] = s.sum[i]
			case frep.AggMin, frep.AggMax:
				row.Vals[i] = s.m[i]
			case frep.AggCountDistinct:
				row.Vals[i] = int64(len(s.dist[i]))
			}
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		for k := range rows[i].Key {
			if rows[i].Key[k] != rows[j].Key[k] {
				return rows[i].Key[k] < rows[j].Key[k]
			}
		}
		return false
	})
	return rows
}
