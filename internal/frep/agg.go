// Aggregation on factorised representations: COUNT, SUM, MIN, MAX and
// COUNT DISTINCT, optionally grouped, evaluated in one recursive pass over
// the representation — never over its flattening.
//
// The evaluator follows the algebraic structure of the representation. A
// union is a disjoint union of relations, so partial aggregates of its
// entries combine additively: counts and sums add, minima and maxima
// combine by min/max, distinct-value sets union. A product is a Cartesian
// product of independent relations, so counts multiply and sums
// cross-combine by count-weighting:
//
//	cnt(X × Y)   = cnt(X) · cnt(Y)
//	sum_A(X × Y) = sum_A(X) · cnt(Y) + sum_A(Y) · cnt(X)
//
// (an attribute labels exactly one node, so one of the two sums is zero);
// minima, maxima and distinct sets pass through unchanged from the side
// holding the attribute, because every partial represents at least one
// tuple (the reduction invariant). Grouping keys are collected along the
// way: each partial carries the group-attribute values fixed in its
// subtree, and partials merge keyed by them.
//
// The pass runs in time proportional to the representation size times the
// number of distinct partial groups met per union. When the group-by
// attributes label nodes above all aggregated ones (the layout the query
// compiler arranges with fplan.Lift), every union below the group zone
// holds exactly one partial group and the pass is linear in |E|.
package frep

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/ftree"
	"repro/internal/relation"
)

// AggFunc selects an aggregate function.
type AggFunc int

// Supported aggregate functions.
const (
	AggCount AggFunc = iota
	AggSum
	AggMin
	AggMax
	AggCountDistinct
)

func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggCountDistinct:
		return "count_distinct"
	}
	return "agg?"
}

// AggSpec is one aggregate to compute: a function and, except for AggCount,
// the attribute it folds over. SUM, MIN and MAX operate on the engine's
// int64 values; on dictionary-encoded string attributes they order by
// dictionary code, not lexicographically.
type AggSpec struct {
	Fn   AggFunc
	Attr relation.Attribute // ignored for AggCount
}

// Label renders the spec as a result-column name, e.g. "sum(Orders.qty)".
func (s AggSpec) Label() string {
	if s.Fn == AggCount {
		return "count"
	}
	return fmt.Sprintf("%s(%s)", s.Fn, s.Attr)
}

// AggRow is one output group: its key values (parallel to the groupBy
// attributes; empty for a global aggregate) and one int64 per AggSpec.
type AggRow struct {
	Key  []relation.Value
	Vals []int64
}

// Aggregate computes the given aggregates over the represented relation,
// grouped by the groupBy attributes, in one pass over the columns, without
// enumerating tuples. Rows come back sorted by group key. An empty
// representation yields no rows (also for global aggregates, where SQL
// would return one NULL-ish row).
//
// Counts saturate at math.MaxInt64; sums saturate at ±math.MaxInt64 — like
// Count, exact for the paper's workloads and clamped beyond.
func (e *Enc) Aggregate(groupBy []relation.Attribute, specs []AggSpec) ([]AggRow, error) {
	ev, err := newAggEval(e.Tree, groupBy, specs)
	if err != nil {
		return nil, err
	}
	if e.IsEmpty() {
		return nil, nil
	}
	// Subtrees without group attributes need no key bookkeeping: they fold
	// into a single scalar partial (and, without aggregated attributes
	// either, into a bare count). The group zone alone pays for maps.
	scalar := ev.unit()
	var cur map[string]*partial
	for _, ri := range e.ti.roots {
		n := e.ti.nodes[ri]
		lo, hi := int32(0), int32(e.NumEntries(ri))
		if !ev.groupBelow[n] {
			ev.crossScalar(scalar, ev.encScalarSpan(e, ri, lo, hi, 0))
		} else if m := ev.encSpan(e, ri, lo, hi); cur == nil {
			cur = m
		} else {
			cur = ev.cross(cur, m)
		}
	}
	return ev.finishRows(cur, scalar), nil
}

// encScalarSpan aggregates entries [lo,hi) of node ni — a subtree holding
// no group attribute — into a single partial — no maps, no keys, no
// allocation (scratch accumulators per depth). Subtrees without aggregated
// attributes either collapse further, into the plain count walk. The
// returned partial lives in the depth-d scratch slot; the caller must
// consume it before the slot is reused (the next encScalarSpan call at the
// same depth).
func (ev *aggEval) encScalarSpan(e *Enc, ni int, lo, hi int32, d int) *partial {
	n := e.ti.nodes[ni]
	if !ev.specBelow[n] {
		return ev.scratchAt(&ev.uscratch, d, e.countSpan(ni, lo, hi))
	}
	total := ev.scratchAt(&ev.uscratch, d, 0)
	for j := lo; j < hi; j++ {
		ev.add(total, ev.encScalarEntry(e, ni, j, d))
	}
	return total
}

// encScalarEntry aggregates one entry (absolute index j) of node ni.
func (ev *aggEval) encScalarEntry(e *Enc, ni int, j int32, d int) *partial {
	p := ev.scratchAt(&ev.escratch, d, 1)
	for _, ci := range e.ti.kids[ni] {
		clo, chi := e.UnionSpan(ci, int(j))
		ev.crossScalar(p, ev.encScalarSpan(e, ci, clo, chi, d+1))
	}
	ev.applyNode(p, e.Vals(ni)[j], e.ti.nodes[ni])
	return p
}

// encSpan aggregates entries [lo,hi) of node ni (one union of the group
// zone), keyed by the group slots fixed inside the subtree.
func (ev *aggEval) encSpan(e *Enc, ni int, lo, hi int32) map[string]*partial {
	out := make(map[string]*partial, 1)
	for j := lo; j < hi; j++ {
		for k, p := range ev.encEntry(e, ni, j) {
			if q, ok := out[k]; ok {
				ev.add(q, p)
			} else {
				out[k] = p
			}
		}
	}
	return out
}

// encEntry aggregates one group-zone entry: the product of its child
// unions (scalar for group-free children, keyed for the rest), extended by
// the entry's own value for the node's group slots and aggregated
// attributes.
func (ev *aggEval) encEntry(e *Enc, ni int, j int32) map[string]*partial {
	scalar := ev.unit()
	var cur map[string]*partial
	for _, ci := range e.ti.kids[ni] {
		cn := e.ti.nodes[ci]
		clo, chi := e.UnionSpan(ci, int(j))
		if !ev.groupBelow[cn] {
			ev.crossScalar(scalar, ev.encScalarSpan(e, ci, clo, chi, 0))
		} else if m := ev.encSpan(e, ci, clo, chi); cur == nil {
			cur = m
		} else {
			cur = ev.cross(cur, m)
		}
	}
	return ev.foldEntry(cur, scalar, e.Vals(ni)[j], e.ti.nodes[ni])
}

// newAggEval validates the aggregation request against the tree and
// prepares the shared evaluation context.
func newAggEval(t *ftree.T, groupBy []relation.Attribute, specs []AggSpec) (*aggEval, error) {
	slot := make(map[relation.Attribute]int, len(groupBy))
	for i, a := range groupBy {
		if _, dup := slot[a]; dup {
			return nil, fmt.Errorf("frep: duplicate group-by attribute %q", a)
		}
		if t.NodeOf(a) == nil || t.Hidden.Has(a) {
			return nil, fmt.Errorf("frep: group-by attribute %q not in representation", a)
		}
		slot[a] = i
	}
	for _, s := range specs {
		if s.Fn == AggCount {
			continue
		}
		if t.NodeOf(s.Attr) == nil || t.Hidden.Has(s.Attr) {
			return nil, fmt.Errorf("frep: aggregate attribute %q not in representation", s.Attr)
		}
	}
	ev := &aggEval{slot: slot, nKey: len(groupBy), specs: specs,
		groupBelow: map[*ftree.Node]bool{}, specBelow: map[*ftree.Node]bool{}}
	for _, r := range t.Roots {
		ev.markBelow(r)
	}
	return ev, nil
}

// finishRows folds the top-level scalar into the keyed partials and renders
// the sorted output rows.
func (ev *aggEval) finishRows(cur map[string]*partial, scalar *partial) []AggRow {
	if cur == nil {
		scalar.key = make([]relation.Value, ev.nKey)
		cur = map[string]*partial{pkey(scalar.key): scalar}
	} else if !scalar.isUnit() {
		for _, p := range cur {
			ev.mergeScalar(p, scalar)
		}
	}
	rows := make([]AggRow, 0, len(cur))
	for _, p := range cur {
		row := AggRow{Key: p.key, Vals: make([]int64, len(ev.specs))}
		for i, s := range ev.specs {
			switch s.Fn {
			case AggCount:
				row.Vals[i] = p.cnt
			case AggSum:
				row.Vals[i] = p.st[i].sum
			case AggMin, AggMax:
				row.Vals[i] = p.st[i].m
			case AggCountDistinct:
				row.Vals[i] = int64(len(p.st[i].set))
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

// aggEval carries the shared evaluation context.
type aggEval struct {
	slot       map[relation.Attribute]int
	nKey       int
	specs      []AggSpec
	groupBelow map[*ftree.Node]bool // node or a descendant holds a group attr
	specBelow  map[*ftree.Node]bool // node or a descendant holds a spec attr
	// Per-depth scratch accumulators for the scalar path: one union total
	// and one entry partial per recursion depth, reused across the whole
	// pass so the hot path allocates nothing. Results are consumed (sets
	// stolen, values copied) before a slot is reused.
	uscratch []*partial
	escratch []*partial
}

// scratchAt returns the reset scratch partial for depth d from pool.
func (ev *aggEval) scratchAt(pool *[]*partial, d int, cnt int64) *partial {
	for len(*pool) <= d {
		*pool = append(*pool, &partial{st: make([]aggState, len(ev.specs))})
	}
	p := (*pool)[d]
	p.cnt = cnt
	for i := range p.st {
		p.st[i] = aggState{}
	}
	return p
}

// markBelow precomputes, per node, whether its subtree touches a group or
// an aggregated attribute.
func (ev *aggEval) markBelow(n *ftree.Node) (g, s bool) {
	for _, a := range n.Attrs {
		if _, ok := ev.slot[a]; ok {
			g = true
		}
	}
	for _, sp := range ev.specs {
		if sp.Fn != AggCount && n.HasAttr(sp.Attr) {
			s = true
		}
	}
	for _, c := range n.Children {
		cg, cs := ev.markBelow(c)
		g = g || cg
		s = s || cs
	}
	ev.groupBelow[n] = g
	ev.specBelow[n] = s
	return g, s
}

// aggState is the running value of one AggSpec inside a partial.
type aggState struct {
	sum  int64
	m    int64 // min or max of the subtree
	mSet bool  // m holds a value (the spec's attribute is in the subtree)
	set  map[relation.Value]struct{}
}

// partial is the aggregate of one group over one subtree: the group-key
// slots fixed so far (slots of attributes outside the subtree stay zero and
// are uniform across a map), the tuple count, and one state per spec. A
// partial always represents at least one tuple.
type partial struct {
	key []relation.Value
	cnt int64
	st  []aggState
}

// isUnit reports whether p is the aggregate of the nullary product: one
// tuple, no key slot fixed, no spec state touched. Crossing with it is the
// identity.
func (p *partial) isUnit() bool {
	if p.cnt != 1 {
		return false
	}
	for _, v := range p.key {
		if v != 0 {
			return false
		}
	}
	for i := range p.st {
		if p.st[i].sum != 0 || p.st[i].mSet || p.st[i].set != nil {
			return false
		}
	}
	return true
}

// pkey packs the group-key slots into a map key. All partials in one map
// fix the same slot set, so packing every slot raw is unambiguous.
func pkey(key []relation.Value) string {
	if len(key) == 0 {
		return ""
	}
	b := make([]byte, 8*len(key))
	for i, v := range key {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
	}
	return string(b)
}

// unit is the scalar aggregate of the nullary product: one tuple, nothing
// touched. (Its key stays nil until it enters a keyed map.)
func (ev *aggEval) unit() *partial {
	return &partial{cnt: 1, st: make([]aggState, len(ev.specs))}
}

// applyNode extends a partial by the entry's own value for every
// aggregated attribute of the node. The attribute labels only this node,
// so the corresponding spec state is untouched below and the updates are
// first-writes (sum was 0, mSet false, set nil).
func (ev *aggEval) applyNode(p *partial, v relation.Value, n *ftree.Node) {
	for i, s := range ev.specs {
		if s.Fn == AggCount || !n.HasAttr(s.Attr) {
			continue
		}
		st := &p.st[i]
		switch s.Fn {
		case AggSum:
			st.sum = satMulI(int64(v), p.cnt)
		case AggMin, AggMax:
			st.m, st.mSet = int64(v), true
		case AggCountDistinct:
			st.set = map[relation.Value]struct{}{v: {}}
		}
	}
}

// crossScalar folds the independent scalar q into p in place, consuming q
// (q's sets transfer ownership).
func (ev *aggEval) crossScalar(p, q *partial) {
	for i := range p.st {
		a, b := &p.st[i], &q.st[i]
		a.sum = satAddI(satMulI(a.sum, q.cnt), satMulI(b.sum, p.cnt))
		if !a.mSet && b.mSet {
			a.m, a.mSet = b.m, true
		}
		if b.set != nil {
			a.set = b.set // disjoint attributes: a.set was nil
		}
	}
	p.cnt = satMul(p.cnt, q.cnt)
}

// mergeScalar folds the independent scalar s into p in place without
// consuming s: s may be shared across every partial of a map, so its sets
// are cloned.
func (ev *aggEval) mergeScalar(p, s *partial) {
	for i := range p.st {
		a, b := &p.st[i], &s.st[i]
		a.sum = satAddI(satMulI(a.sum, s.cnt), satMulI(b.sum, p.cnt))
		if !a.mSet && b.mSet {
			a.m, a.mSet = b.m, true
		}
		if b.set != nil {
			a.set = cloneSet(b.set)
		}
	}
	p.cnt = satMul(p.cnt, s.cnt)
}

// foldEntry finishes one group-zone entry: the top-level scalar merges
// into the keyed partials, then the entry's own value extends every
// partial's group slots and aggregate states, re-keying the map where the
// node is "hot" (touches a key slot or a spec attribute).
func (ev *aggEval) foldEntry(cur map[string]*partial, scalar *partial, v relation.Value, n *ftree.Node) map[string]*partial {
	if cur == nil {
		scalar.key = make([]relation.Value, ev.nKey)
		cur = map[string]*partial{pkey(scalar.key): scalar}
	} else if !scalar.isUnit() {
		for _, p := range cur {
			ev.mergeScalar(p, scalar)
		}
	}
	hot := false
	for _, a := range n.Attrs {
		if _, ok := ev.slot[a]; ok {
			hot = true
		}
	}
	for _, s := range ev.specs {
		if s.Fn != AggCount && n.HasAttr(s.Attr) {
			hot = true
		}
	}
	if !hot {
		return cur
	}
	out := make(map[string]*partial, len(cur))
	for _, p := range cur {
		for _, a := range n.Attrs {
			if si, ok := ev.slot[a]; ok {
				p.key[si] = v
			}
		}
		ev.applyNode(p, v, n)
		k := pkey(p.key)
		if q, ok := out[k]; ok {
			ev.add(q, p)
		} else {
			out[k] = p
		}
	}
	return out
}

func cloneSet(s map[relation.Value]struct{}) map[relation.Value]struct{} {
	out := make(map[relation.Value]struct{}, len(s))
	for v := range s {
		out[v] = struct{}{}
	}
	return out
}

// add merges q into p: the union of two disjoint relations with the same
// group key.
func (ev *aggEval) add(p, q *partial) {
	p.cnt = satAdd(p.cnt, q.cnt)
	for i := range p.st {
		a, b := &p.st[i], &q.st[i]
		a.sum = satAddI(a.sum, b.sum)
		if b.mSet {
			switch {
			case !a.mSet:
				a.m, a.mSet = b.m, true
			case ev.specs[i].Fn == AggMin && b.m < a.m:
				a.m = b.m
			case ev.specs[i].Fn == AggMax && b.m > a.m:
				a.m = b.m
			}
		}
		if b.set != nil {
			if a.set == nil {
				a.set = b.set
			} else {
				for v := range b.set {
					a.set[v] = struct{}{}
				}
			}
		}
	}
}

// cross combines two independent partial maps (a Cartesian product):
// counts multiply, sums cross-combine by count-weighting, min/max and
// distinct sets pass through from the side holding the attribute, and the
// disjoint key slots of both sides merge.
func (ev *aggEval) cross(m1, m2 map[string]*partial) map[string]*partial {
	// Identity fast paths: a lone unit partial (the seed of every product
	// fold, and every subtree below the group zone that holds no aggregated
	// attribute) multiplies counts by 1 and adds nothing.
	if len(m2) == 1 {
		for _, p2 := range m2 {
			if p2.isUnit() {
				return m1
			}
		}
	}
	if len(m1) == 1 {
		for _, p1 := range m1 {
			if p1.isUnit() {
				return m2
			}
		}
	}
	out := make(map[string]*partial, len(m1)*len(m2))
	for _, p1 := range m1 {
		for _, p2 := range m2 {
			np := &partial{
				key: make([]relation.Value, ev.nKey),
				cnt: satMul(p1.cnt, p2.cnt),
				st:  make([]aggState, len(ev.specs)),
			}
			for i := range np.key {
				np.key[i] = p1.key[i] | p2.key[i] // slots are disjoint; unset is 0
			}
			for i := range np.st {
				a, b := &p1.st[i], &p2.st[i]
				np.st[i].sum = satAddI(satMulI(a.sum, p2.cnt), satMulI(b.sum, p1.cnt))
				if a.mSet {
					np.st[i].m, np.st[i].mSet = a.m, true
				} else if b.mSet {
					np.st[i].m, np.st[i].mSet = b.m, true
				}
				// Clone, never share: p1/p2 are crossed against every
				// partial of the other side, and a shared set mutated by a
				// later merge would corrupt sibling groups.
				if a.set != nil {
					np.st[i].set = cloneSet(a.set)
				} else if b.set != nil {
					np.st[i].set = cloneSet(b.set)
				}
			}
			k := pkey(np.key)
			if q, ok := out[k]; ok {
				ev.add(q, np)
			} else {
				out[k] = np
			}
		}
	}
	return out
}

const minInt64 = -maxInt64 - 1

// satAddI adds signed values, saturating at ±math.MaxInt64 (sums may go
// negative, unlike counts).
func satAddI(a, b int64) int64 {
	s := a + b
	if a > 0 && b > 0 && s < 0 {
		return maxInt64
	}
	if a < 0 && b < 0 && s >= 0 {
		return minInt64
	}
	return s
}

// satMulI multiplies signed values with saturation.
func satMulI(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a == minInt64 || b == minInt64 {
		if a == 1 {
			return b
		}
		if b == 1 {
			return a
		}
		if (a < 0) == (b < 0) {
			return maxInt64
		}
		return minInt64
	}
	r := a * b
	if r/b != a {
		if (a < 0) == (b < 0) {
			return maxInt64
		}
		return minInt64
	}
	return r
}
