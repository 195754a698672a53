package main

import (
	"fmt"
	"math/rand"

	fdb "repro"
	"repro/internal/wire"
)

// poolEntry is one statement of the retailer read pool, with every binding
// it can be executed with. The binding domains are small (50 items, 40
// locations), so the expected result of every (statement, binding) pair is
// computed before timing.
type poolEntry struct {
	name     string
	spec     *wire.Spec // nil for the set query
	agg      bool
	params   bool
	bindings [][]wire.Arg // one nil binding for parameter-free statements
}

// retailerDomains enumerates the full binding domain of each parameterised
// statement of wire.RetailerQueries, matching its Args generator.
var retailerDomains = map[string]func() [][]wire.Arg{
	"item_point": func() (out [][]wire.Arg) {
		for v := int64(1); v <= 50; v++ {
			out = append(out, []wire.Arg{{Name: "item", Val: wire.Int(v)}})
		}
		return out
	},
	"loc_range": func() (out [][]wire.Arg) {
		for v := int64(1); v <= 40; v++ {
			out = append(out, []wire.Arg{{Name: "loc", Val: wire.Int(v)}})
		}
		return out
	},
	"agg_item_band": func() (out [][]wire.Arg) {
		for v := int64(1); v <= 40; v++ {
			out = append(out, []wire.Arg{{Name: "lo", Val: wire.Int(v)}, {Name: "hi", Val: wire.Int(v + 10)}})
		}
		return out
	},
}

var selParamKind = wire.SelParam("", 0, "").Kind

// unionName names the pool's one set query: the UNION of two
// parameter-free legs over the retailer join.
const unionName = "union_legs"

// retailerPool returns the wire.RetailerQueries pool, plus the set query
// when withUnion is set (the wire protocol has no set-query verb). It checks
// that every binding the pool's Args generators produce lies in the
// enumerated domain, so the precomputed expectations cover every read.
func retailerPool(withUnion bool) ([]poolEntry, error) {
	qs := wire.RetailerQueries()
	rng := rand.New(rand.NewSource(1))
	var out []poolEntry
	for i := range qs {
		q := &qs[i]
		e := poolEntry{name: q.Name, spec: &q.Spec, agg: q.Spec.IsAgg(), bindings: [][]wire.Arg{nil}}
		for _, s := range q.Spec.Sels {
			e.params = e.params || s.Kind == selParamKind
		}
		if e.params {
			dom, ok := retailerDomains[q.Name]
			if !ok {
				return nil, fmt.Errorf("pool: no binding domain for parameterised query %s", q.Name)
			}
			e.bindings = dom()
			seen := map[string]bool{}
			for _, b := range e.bindings {
				seen[fmt.Sprint(b)] = true
			}
			for k := 0; k < 1000; k++ {
				if a := q.Args(rng); !seen[fmt.Sprint(a)] {
					return nil, fmt.Errorf("pool: %s binding %v outside its enumerated domain", q.Name, a)
				}
			}
		}
		out = append(out, e)
	}
	if withUnion {
		out = append(out, poolEntry{name: unionName, bindings: [][]wire.Arg{nil}})
	}
	return out, nil
}

// unionExpr is the pool's set query: items up to 25 UNION locations from
// 20 on, both projected to (location, item).
func unionExpr() *fdb.SetExpr {
	leg := func(sel fdb.Clause) *fdb.SetExpr {
		return fdb.Sub(
			fdb.From("Orders", "Stock", "Disp"),
			fdb.Eq("Orders.item", "Stock.item"),
			fdb.Eq("Stock.location", "Disp.location"),
			sel,
			fdb.Project("Stock.location", "Orders.item"))
	}
	return fdb.Union(
		leg(fdb.Cmp("Orders.item", fdb.LE, int64(25))),
		leg(fdb.Cmp("Stock.location", fdb.GE, int64(20))))
}

// namedArgs converts wire bindings to library arguments.
func namedArgs(args []wire.Arg) []fdb.NamedArg {
	if len(args) == 0 {
		return nil
	}
	out := make([]fdb.NamedArg, len(args))
	for i, a := range args {
		out[i] = fdb.Arg(a.Name, a.Val.Native())
	}
	return out
}

// boundClauses returns the spec's clauses with every parameter replaced by
// its bound constant: the reference executes constant selections through
// DB.Query, a different code path from the benchmarked Prepare + Exec.
func boundClauses(sp *wire.Spec, args []wire.Arg) ([]fdb.Clause, error) {
	c := *sp
	c.Sels = append([]wire.Sel(nil), sp.Sels...)
	for i, s := range c.Sels {
		if s.Kind != selParamKind {
			continue
		}
		found := false
		for _, a := range args {
			if a.Name == s.Str {
				c.Sels[i] = wire.SelInt(s.Attr, s.Op, a.Val.Int)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("pool: parameter %q unbound", s.Str)
		}
	}
	return c.Clauses()
}

// hashResult drains a result's iterator into an order-sensitive checksum.
func hashResult(res *fdb.Result) checksum {
	cs := newChecksum()
	it := res.Iter()
	for {
		t, ok := it.Next()
		if !ok {
			return cs
		}
		for _, v := range t {
			cs.word(uint64(v))
		}
		cs.endRow()
	}
}

// hashAgg reads every aggregate row into an order-sensitive checksum.
func hashAgg(ar *fdb.AggResult, naggs int) checksum {
	cs := newChecksum()
	for i := 0; i < ar.Len(); i++ {
		for _, k := range ar.Key(i) {
			cs.str(k)
		}
		for j := 0; j < naggs; j++ {
			cs.word(uint64(ar.Value(i, j)))
		}
		cs.endRow()
	}
	return cs
}

// referenceRows evaluates pool entry e under binding args on the reference
// database through the ad hoc Query/QueryAgg/QuerySet paths, returning its
// decoded rows and checksum.
func referenceRows(db *fdb.DB, e *poolEntry, args []wire.Arg) (*wire.Rows, checksum, error) {
	if e.spec == nil {
		res, err := db.QuerySet(unionExpr())
		if err != nil {
			return nil, checksum{}, err
		}
		return &wire.Rows{Schema: res.Schema(), Rows: res.Rows(0)}, hashResult(res), nil
	}
	cl, err := boundClauses(e.spec, args)
	if err != nil {
		return nil, checksum{}, err
	}
	if e.agg {
		ar, err := db.QueryAgg(cl...)
		if err != nil {
			return nil, checksum{}, err
		}
		return &wire.Rows{Schema: ar.Schema(), Rows: ar.Rows(0)}, hashAgg(ar, len(e.spec.Aggs)), nil
	}
	res, err := db.Query(cl...)
	if err != nil {
		return nil, checksum{}, err
	}
	return &wire.Rows{Schema: res.Schema(), Rows: res.Rows(0)}, hashResult(res), nil
}

// newRetailerDB seeds a retailer database.
func newRetailerDB(seed int64, scale int) (*fdb.DB, error) {
	db := fdb.New()
	if err := wire.SeedRetailer(db, seed, scale); err != nil {
		return nil, fmt.Errorf("seed retailer: %w", err)
	}
	return db, nil
}

// equalRows reports whether two decoded results agree row for row.
func equalRows(a, b *wire.Rows) bool {
	if fmt.Sprint(a.Schema) != fmt.Sprint(b.Schema) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return false
		}
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				return false
			}
		}
	}
	return true
}
