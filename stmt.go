package fdb

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/fbuild"
	"repro/internal/fplan"
	"repro/internal/frep"
	"repro/internal/ftree"
	"repro/internal/opt"
	"repro/internal/relation"
)

// mergeMaxFrac is the incremental-maintenance threshold: a refresh whose
// net delta exceeds this fraction of the statement's input tuples skips the
// arena merge and lets the next execution rebuild with BuildEncParallel —
// when deltas dominate, the full build's morsel parallelism beats patching
// most of the representation value by value.
const mergeMaxFrac = 0.25

// Stmt is a compiled, reusable select-project-join statement. Prepare pays
// the expensive part of query evaluation once — clause validation, optimal
// f-tree search, input snapshot (dedup + constant pre-filtering + path
// sort) — so that each Exec only binds parameters and builds the
// factorised result.
//
// A Stmt prepared from the database follows it: each Exec reads the
// relations' current versions, folding any delta batches committed since
// the last execution into its sorted snapshots (and, when the change is
// small, directly into its cached encoded representation) — the compiled
// plan never recompiles on the query path, though a hot cached statement
// may be promoted: a background re-optimisation that swaps the whole plan
// atomically (see maybePromote). A Stmt prepared from a Snapshot is
// pinned: it keeps reading the snapshot's versions and fails loudly once
// the snapshot is closed. Exec is safe for concurrent callers.
type Stmt struct {
	db       *DB
	psels    []paramSel           // parameterised selections, bound at Exec
	dsels    []dynSel             // string selections resolved per Exec
	params   []string             // distinct parameter names, declaration order
	project  []relation.Attribute // nil: keep all attributes
	groupBy  []relation.Attribute // aggregation statements: group-by attributes
	aggs     []frep.AggSpec       // aggregation statements: aggregates to compute
	order    []frep.OrderKey      // ORDER BY keys; empty: enumeration order
	offset   int                  // tuples to skip
	limit    int                  // result cap; -1: none
	distinct bool                 // explicit set-semantics normalisation
	par      int                  // WithParallelism override; 0 = inherit from the DB
	fp       string               // plan-cache fingerprint; "" when not cached

	// classes and schemas are the query's attribute classes and relation
	// schemas — data-independent, kept so a background promotion can rerun
	// the f-tree search without recompiling the spec; ochain is the ORDER
	// BY key-class chain of ordered statements.
	classes []relation.AttrSet
	schemas []relation.AttrSet
	ochain  []int

	snap *Snapshot // non-nil: pinned to this snapshot's versions

	// plan is the statement's current compiled plan — f-tree, per-input
	// sort permutations, input data. Promotion publishes successor plans
	// atomically and each Exec loads the pointer once, so tree, inputs and
	// data are always observed as one consistent triple. refreshMu
	// serialises the (slow-path) data refresh.
	plan      atomic.Pointer[stmtPlan]
	refreshMu sync.Mutex

	// hits counts plan-cache hits (the promotion trigger); promoting
	// latches so at most one background re-optimisation runs per statement.
	hits      atomic.Uint64
	promoting atomic.Bool
}

// stmtPlan is one immutable compiled plan of a statement: its f-tree, the
// per-input sort permutations derived from that tree, the cost model's
// verdict, and the input data (behind its own atomic pointer: refresh
// publishes new data within a plan, promotion publishes whole new plans).
// greedy marks trees produced by the greedy tier — the candidates
// background promotion re-optimises.
type stmtPlan struct {
	tree       *ftree.T
	inputs     []stmtInput
	cost       float64 // s(T) of the compiled f-tree
	streamable bool    // the tree streams the statement's ORDER BY
	greedy     bool

	data atomic.Pointer[stmtData]
}

// stmtInput is one compiled input relation: its backing store, the
// constant-selection pre-filter baked at compile time, and the column
// permutation of its f-tree path sort (for in-order delta merging).
type stmtInput struct {
	store     *delta.Store
	filter    func(relation.Tuple) bool // nil: no constant selection
	sortIdx   []int
	sortAttrs []relation.Attribute // schema attrs in sortIdx order (SortBy arg)
}

// stmtData is one immutable version of a statement's inputs: the deduped,
// pre-filtered, path-sorted snapshots and the store version each reflects.
// The encoded representation of a parameter-free statement is memoised here
// (built on first use, or inherited from the previous version via the
// incremental merge); reads and writes of enc go through mu.
type stmtData struct {
	rels []*relation.Relation
	vers []uint64

	mu  sync.Mutex
	enc *frep.Enc // cached pre-projection build; nil until needed
}

// paramSel is one compiled parameterised selection: column col of input
// relation rel compared against the value bound to the named parameter.
type paramSel struct {
	rel  int
	col  int
	op   fplan.Cmp
	name string
}

// dynSel is one compiled string selection that must be re-resolved against
// the dictionary on every execution: a range comparison (decoded order can
// gain strings between Execs) or an equality whose constant had no code at
// prepare time (it may gain one). Equalities on already-encoded strings
// compile to constant code selections instead — codes are permanent, so
// baking them is cache-safe.
type dynSel struct {
	rel int
	col int
	op  fplan.Cmp
	s   string
}

// execSel is one per-execution column filter: a resolved parameter binding
// or dynamic string selection.
type execSel struct {
	col  int
	pred func(relation.Value) bool
}

// NamedArg binds a parameter name to a value for Exec; create it with Arg.
type NamedArg struct {
	Name  string
	Value interface{}
}

// Arg binds the named Param placeholder to a value (int, int64 or string).
func Arg(name string, value interface{}) NamedArg { return NamedArg{Name: name, Value: value} }

// Prepare compiles a select-project-join query into a reusable statement.
// Selections whose value is a Param placeholder are compiled into the plan
// and bound per Exec; all other clauses are fixed at Prepare time.
func (db *DB) Prepare(clauses ...Clause) (*Stmt, error) {
	s, err := compileSpec(modeQuery, clauses)
	if err != nil {
		return nil, err
	}
	return db.prepareSpec(s, nil)
}

// prepareSpec is the shared compile path behind Prepare, Query and the
// snapshot query surface. With a non-nil snap the statement reads the
// snapshot's pinned states and never refreshes.
func (db *DB) prepareSpec(s *spec, snap *Snapshot) (*Stmt, error) {
	if len(s.from) == 0 {
		return nil, fmt.Errorf("fdb: query needs From(...)")
	}
	// Resolve the stores and capture one consistent version per input.
	// States are immutable: everything after the capture runs lock-free.
	stores := make([]*delta.Store, len(s.from))
	states := make([]*delta.State, len(s.from))
	db.mu.RLock()
	for i, name := range s.from {
		st, ok := db.stores[name]
		if !ok {
			db.mu.RUnlock()
			return nil, fmt.Errorf("fdb: unknown relation %q", name)
		}
		stores[i] = st
		states[i] = st.State()
	}
	db.mu.RUnlock()
	if snap != nil {
		if snap.isClosed() {
			return nil, errSnapshotClosed
		}
		for i, name := range s.from {
			st, ok := snap.states[name]
			if !ok {
				return nil, fmt.Errorf("fdb: relation %q created after the snapshot", name)
			}
			states[i] = st
		}
	}
	rels := make([]*relation.Relation, len(s.from))
	for i, st := range states {
		rels[i] = snapRelation(st)
	}

	// Split selections: integer constants (and equalities on already-encoded
	// strings) are encoded and pre-filtered now; parameters become
	// placeholders resolved per Exec; string ranges and equalities on unseen
	// strings become dynamic selections, re-resolved against the dictionary
	// per Exec — never minting a code for a constant the database has only
	// ever compared against.
	var consts []core.ConstSel
	var psels []paramSel
	var dsels []dynSel
	params := s.params()
	locate := func(a relation.Attribute) (int, int, error) {
		for i, r := range rels {
			if j := r.Schema.Index(a); j >= 0 {
				return i, j, nil
			}
		}
		return -1, -1, fmt.Errorf("fdb: selection on unknown attribute %q", a)
	}
	for _, sel := range s.sels {
		if p, isParam := sel.val.(ParamValue); isParam {
			ri, ci, err := locate(sel.attr)
			if err != nil {
				return nil, err
			}
			psels = append(psels, paramSel{rel: ri, col: ci, op: sel.op, name: p.name})
			continue
		}
		if str, isStr := sel.val.(string); isStr {
			if v, ok := db.dict.Lookup(str); ok && (sel.op == fplan.Eq || sel.op == fplan.Ne) {
				consts = append(consts, core.ConstSel{A: sel.attr, Op: sel.op, C: v})
				continue
			}
			ri, ci, err := locate(sel.attr)
			if err != nil {
				return nil, err
			}
			dsels = append(dsels, dynSel{rel: ri, col: ci, op: sel.op, s: str})
			continue
		}
		v, err := db.encode(sel.val)
		if err != nil {
			return nil, err
		}
		consts = append(consts, core.ConstSel{A: sel.attr, Op: sel.op, C: v})
	}

	q := &core.Query{Relations: rels, Equalities: s.eqs, Selections: consts, Projection: s.project}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if len(s.groupBy) > 0 && len(s.aggs) == 0 {
		return nil, fmt.Errorf("fdb: GroupBy needs at least one Agg clause")
	}
	if len(s.aggs) > 0 && (len(s.orderBy) > 0 || s.limit >= 0 || s.offset > 0 || s.distinct) {
		return nil, fmt.Errorf("fdb: OrderBy/Limit/Offset/Distinct apply to tuple results; aggregate rows are already sorted by group key")
	}
	if len(s.orderBy) > 0 {
		out := relation.AttrSet{}
		if s.project != nil {
			for _, a := range s.project {
				out.Add(a)
			}
		} else {
			for _, r := range rels {
				for _, a := range r.Schema {
					out.Add(a)
				}
			}
		}
		for _, k := range s.orderBy {
			if !out.Has(k.Attr) {
				return nil, fmt.Errorf("fdb: order-by attribute %q not in the result", k.Attr)
			}
		}
	}
	if len(s.aggs) > 0 {
		if s.project != nil {
			return nil, fmt.Errorf("fdb: Project cannot be combined with aggregates (GroupBy defines the output columns)")
		}
		all := relation.AttrSet{}
		for _, r := range rels {
			for _, a := range r.Schema {
				all.Add(a)
			}
		}
		seen := relation.AttrSet{}
		for _, a := range s.groupBy {
			if seen.Has(a) {
				return nil, fmt.Errorf("fdb: duplicate group-by attribute %q", a)
			}
			seen.Add(a)
			if !all.Has(a) {
				return nil, fmt.Errorf("fdb: group-by attribute %q not in any input relation", a)
			}
		}
		for _, sp := range s.aggs {
			if sp.Fn != frep.AggCount && !all.Has(sp.Attr) {
				return nil, fmt.Errorf("fdb: aggregate attribute %q not in any input relation", sp.Attr)
			}
		}
	}
	// Constant selections are cheapest first (Section 4): filter inputs now
	// and keep each input's compiled filter for refresh-time delta
	// filtering.
	filters := make([]func(relation.Tuple) bool, len(rels))
	for i, r := range q.Relations {
		var mine []core.ConstSel
		for _, c := range q.Selections {
			if r.Schema.Contains(c.A) {
				mine = append(mine, c)
			}
		}
		if len(mine) > 0 {
			cols := make([]int, len(mine))
			for j, c := range mine {
				cols[j] = r.Schema.Index(c.A)
			}
			filters[i] = func(t relation.Tuple) bool {
				for j, c := range mine {
					if !c.Match(t[cols[j]]) {
						return false
					}
				}
				return true
			}
			q.Relations[i] = r.Select(filters[i])
		}
	}
	// Tiered planning: greedy by default, exhaustive when the cost model
	// asks for it, never a budget error (see planTree).
	classes, schemas := q.Classes(), q.Schemas()
	tr, cost, greedy, err := db.planTree(classes, schemas, nil)
	if err != nil {
		return nil, err
	}
	// Grouped aggregation: restructure the optimal tree once, at compile
	// time, so the group-by attributes label nodes above every aggregated
	// one. Exec-time builds then produce the lifted layout directly and the
	// aggregation pass is linear in the representation size — no data
	// movement per Exec.
	if len(s.groupBy) > 0 {
		if err := (fplan.Lift{Attrs: s.groupBy}).ApplyTree(tr); err != nil {
			return nil, err
		}
	}
	// Order-aware planning: sibling and root order are semantically free, so
	// first try to reorder the optimal tree until the ORDER BY keys label the
	// front of its pre-order walk (streaming order, no sort). If the shape
	// itself is in the way, search for the cheapest order-compatible tree and
	// take it when the cost model approves — equal cost always, half a cover
	// unit of slack when a Limit makes top-k short-circuiting worth it.
	// Otherwise the statement keeps the optimal tree and retrieval falls back
	// to a bounded heap at Exec time.
	streamable := false
	var ochain []int
	if len(s.orderBy) > 0 {
		ochain = orderChain(q, s.orderBy)
		// A successful reorder is verified against the order property it
		// claims to establish.
		streamable = fplan.ReorderForOrder(tr, s.orderBy) && fplan.OrderCompatible(tr, s.orderBy)
		if !streamable {
			ot, ocost, ogreedy, oerr := db.planTree(classes, schemas, ochain)
			switch {
			case oerr == nil:
				if opt.PreferOrdered(cost, ocost, s.limit >= 0) && fplan.ReorderForOrder(ot, s.orderBy) {
					tr, cost, greedy = ot, ocost, ogreedy
					streamable = true
				}
			case errors.Is(oerr, opt.ErrOrderIncompatible):
				// No f-tree of this query streams the requested order;
				// retrieval falls back to the bounded heap at Exec time.
			default:
				return nil, oerr
			}
		}
	}
	// Sort every snapshot in its f-tree path order once; Exec-time builds
	// then see pre-sorted inputs and never mutate the shared snapshots.
	if err := fbuild.SortFor(q.Relations, tr); err != nil {
		return nil, err
	}
	inputs := make([]stmtInput, len(s.from))
	vers := make([]uint64, len(s.from))
	for i := range s.from {
		idx, err := fbuild.SortIndex(q.Relations[i], tr)
		if err != nil {
			return nil, err
		}
		attrs := make([]relation.Attribute, len(idx))
		for j, c := range idx {
			attrs[j] = q.Relations[i].Schema[c]
		}
		inputs[i] = stmtInput{store: stores[i], filter: filters[i], sortIdx: idx, sortAttrs: attrs}
		vers[i] = states[i].Ver
	}
	st := &Stmt{
		db:       db,
		psels:    psels,
		dsels:    dsels,
		params:   params,
		project:  s.project,
		groupBy:  s.groupBy,
		aggs:     s.aggs,
		order:    s.orderBy,
		offset:   s.offset,
		limit:    s.limit,
		distinct: s.distinct,
		par:      s.par,
		classes:  classes,
		schemas:  schemas,
		ochain:   ochain,
		snap:     snap,
	}
	p := &stmtPlan{tree: tr, inputs: inputs, cost: cost, streamable: streamable, greedy: greedy}
	p.data.Store(&stmtData{rels: q.Relations, vers: vers})
	st.plan.Store(p)
	return st, nil
}

// pin derives a statement bound to the snapshot's pinned versions from an
// already-compiled live statement, sharing the compiled plan — f-tree,
// parameter slots, baked filters and sort permutations — and paying only
// the input re-snapshot (dedup, constant pre-filter, path sort). This is
// the server front-end's path for executing a cached statement under a
// per-connection snapshot: clause validation and f-tree search are never
// repeated per (statement, snapshot) pair. The pinned statement never
// refreshes and fails loudly once the snapshot is closed.
func (st *Stmt) pin(snap *Snapshot) (*Stmt, error) {
	if st.snap != nil {
		return nil, fmt.Errorf("fdb: statement is already pinned to a snapshot")
	}
	if snap.isClosed() {
		return nil, errSnapshotClosed
	}
	ns := &Stmt{
		db:       st.db,
		psels:    st.psels,
		dsels:    st.dsels,
		params:   st.params,
		project:  st.project,
		groupBy:  st.groupBy,
		aggs:     st.aggs,
		order:    st.order,
		offset:   st.offset,
		limit:    st.limit,
		distinct: st.distinct,
		par:      st.par,
		classes:  st.classes,
		schemas:  st.schemas,
		ochain:   st.ochain,
		snap:     snap,
	}
	// One plan load: the pinned statement shares whichever consistent
	// (tree, inputs) pair is current — promotion of the source statement
	// can race but never tear. greedy is cleared: a pinned statement is
	// never cached, so it can never be promoted.
	p := st.plan.Load()
	np := &stmtPlan{tree: p.tree, inputs: p.inputs, cost: p.cost, streamable: p.streamable}
	rels := make([]*relation.Relation, len(p.inputs))
	vers := make([]uint64, len(p.inputs))
	for i, in := range p.inputs {
		state, ok := snap.states[in.store.Name]
		if !ok {
			return nil, fmt.Errorf("fdb: relation %q created after the snapshot", in.store.Name)
		}
		rels[i] = p.resnapInput(i, state)
		vers[i] = state.Ver
	}
	np.data.Store(&stmtData{rels: rels, vers: vers})
	ns.plan.Store(np)
	return ns, nil
}

// snapRelation derives a private, mutable snapshot of a state's live
// relation: a fresh tuple-slice header over shared (read-only) tuples.
func snapRelation(st *delta.State) *relation.Relation {
	live := st.Live()
	r := relation.New(live.Name, live.Schema)
	r.Tuples = append(make([]relation.Tuple, 0, len(live.Tuples)), live.Tuples...)
	r.Dedup()
	return r
}

// orderChain maps the ORDER BY keys to their attribute-class indices, in key
// order with repeats dropped — the chain OptimalFTreeOrdered pins to the
// front of the pre-order walk.
func orderChain(q *core.Query, keys []frep.OrderKey) []int {
	classes := q.Classes()
	var chain []int
	seen := map[int]bool{}
	for _, k := range keys {
		for i, c := range classes {
			if c.Has(k.Attr) {
				if !seen[i] {
					seen[i] = true
					chain = append(chain, i)
				}
				break
			}
		}
	}
	return chain
}

// parallelism resolves the worker count for one execution: the statement's
// WithParallelism override if present, else the database-wide setting.
func (st *Stmt) parallelism() int {
	if st.par > 0 {
		return st.par
	}
	return st.db.Parallelism()
}

// Params lists the statement's parameter names in declaration order.
func (st *Stmt) Params() []string { return append([]string(nil), st.params...) }

// Aggregates lists the statement's aggregate column labels in declaration
// order; empty for a plain select-project-join statement. Statements with
// aggregates run through ExecAgg, all others through Exec.
func (st *Stmt) Aggregates() []string {
	out := make([]string, len(st.aggs))
	for i, s := range st.aggs {
		out[i] = s.Label()
	}
	return out
}

// Cost returns the cost s(T) of the statement's compiled f-tree (the
// promoted tree's cost once a background promotion has landed).
func (st *Stmt) Cost() float64 { return st.plan.Load().cost }

// GreedyPlanned reports whether the statement's current f-tree came from
// the greedy planning tier (false once escalation or promotion has
// replaced it with an exhaustively searched tree).
func (st *Stmt) GreedyPlanned() bool { return st.plan.Load().greedy }

// OrderStreamable reports whether the compiled f-tree streams the
// statement's ORDER BY structurally (no sort; Limit short-circuits). It is
// trivially false without an OrderBy clause. A projection applied at Exec
// time can still restructure the tree, in which case retrieval re-checks and
// may fall back to the bounded-heap sort.
func (st *Stmt) OrderStreamable() bool { return st.plan.Load().streamable }

// FTree renders the statement's compiled f-tree.
func (st *Stmt) FTree() string { return st.plan.Load().tree.String() }

// Exec runs the compiled statement with the given parameter bindings and
// returns a fresh factorised result. Safe for concurrent callers.
// Statements with Agg clauses must use ExecAgg instead.
func (st *Stmt) Exec(args ...NamedArg) (*Result, error) {
	return st.ExecContext(context.Background(), args...)
}

// ExecContext is Exec with cancellation: the factorisation build and the
// baked projection observe ctx and abort with its error.
func (st *Stmt) ExecContext(ctx context.Context, args ...NamedArg) (*Result, error) {
	if len(st.aggs) > 0 {
		return nil, fmt.Errorf("fdb: statement computes aggregates; use ExecAgg")
	}
	fr, err := st.buildContext(ctx, args)
	if err != nil {
		return nil, err
	}
	if st.distinct {
		// Projection already yields set semantics; δ normalises and makes the
		// guarantee explicit (a no-op pass on every engine-built rep).
		fr, err = fplan.ApplyEnc(fplan.Distinct{}, fr)
		if err != nil {
			return nil, err
		}
	}
	res := newResult(st.db, fr)
	if len(st.order) > 0 || st.offset > 0 || st.limit >= 0 {
		res.order = st.order
		res.offset = st.offset
		res.limit = st.limit
		res.less = st.db.orderLess()
	}
	return res, nil
}

// ExecAgg runs a compiled aggregation statement (one with Agg clauses,
// optionally GroupBy) and returns its aggregate rows. The aggregates are
// computed in one pass over the factorised result, in time proportional to
// its factorised size — the flat relation is never enumerated. Safe for
// concurrent callers.
func (st *Stmt) ExecAgg(args ...NamedArg) (*AggResult, error) {
	return st.ExecAggContext(context.Background(), args...)
}

// ExecAggContext is ExecAgg with cancellation.
func (st *Stmt) ExecAggContext(ctx context.Context, args ...NamedArg) (*AggResult, error) {
	if len(st.aggs) == 0 {
		return nil, fmt.Errorf("fdb: statement has no aggregates; use Exec")
	}
	fr, err := st.buildContext(ctx, args)
	if err != nil {
		return nil, err
	}
	rows, err := fr.AggregateParallel(st.groupBy, st.aggs, st.parallelism())
	if err != nil {
		return nil, err
	}
	return &AggResult{db: st.db, groupBy: st.groupBy, specs: st.aggs, rows: rows}, nil
}

// current reports whether d reflects every input store's current version.
func (p *stmtPlan) current(d *stmtData) bool {
	for i := range p.inputs {
		if p.inputs[i].store.State().Ver != d.vers[i] {
			return false
		}
	}
	return true
}

// refresh brings the statement's input snapshots up to the relations'
// current versions. The fast path is len(inputs) atomic loads; behind them,
// the slow path captures a consistent cut under the database read lock,
// folds each changed relation's net delta into its sorted snapshot with a
// linear merge (or re-snapshots wholesale when the history was compacted
// away), and — for parameter-free statements with a small enough delta —
// patches the cached encoded representation in place of the next rebuild.
// Pinned (snapshot-bound) statements never refresh. refresh operates on
// one plan: a promotion landing concurrently publishes its own fresh data
// with the new plan, so refreshing the plan an execution already loaded is
// always consistent.
func (st *Stmt) refresh(p *stmtPlan) {
	if st.snap != nil {
		return
	}
	d := p.data.Load()
	if p.current(d) {
		return
	}
	st.refreshMu.Lock()
	defer st.refreshMu.Unlock()
	d = p.data.Load()
	if p.current(d) {
		return
	}
	// A consistent cut: no writer commits between the state loads.
	states := make([]*delta.State, len(p.inputs))
	st.db.mu.RLock()
	for i := range p.inputs {
		states[i] = p.inputs[i].store.State()
	}
	st.db.mu.RUnlock()

	nd := &stmtData{
		rels: make([]*relation.Relation, len(p.inputs)),
		vers: make([]uint64, len(p.inputs)),
	}
	deltas := make([]fbuild.RelDelta, len(p.inputs))
	resnap := false
	deltaTuples, totalTuples := 0, 0
	for i, in := range p.inputs {
		nd.vers[i] = states[i].Ver
		if states[i].Ver == d.vers[i] {
			nd.rels[i] = d.rels[i]
			totalTuples += d.rels[i].Cardinality()
			continue
		}
		adds, dels, ok := states[i].NetSince(d.vers[i])
		if !ok {
			// The history below our version was compacted away: rebuild
			// this input from the new base (the plan stays compiled).
			nd.rels[i] = p.resnapInput(i, states[i])
			totalTuples += nd.rels[i].Cardinality()
			resnap = true
			continue
		}
		if in.filter != nil {
			adds = filterTuples(adds, in.filter)
			dels = filterTuples(dels, in.filter)
		}
		nd.rels[i], deltas[i] = mergeSortedDelta(d.rels[i], adds, dels, in.sortIdx)
		deltaTuples += len(deltas[i].Adds) + len(deltas[i].Dels)
		totalTuples += nd.rels[i].Cardinality()
	}
	// Incremental maintenance of the cached representation: worth it only
	// for statements with no per-Exec selections (others build per Exec
	// anyway), with an encoding to patch, no wholesale re-snapshot, and a
	// delta small enough that patching beats the morsel-parallel rebuild.
	if len(st.psels) == 0 && len(st.dsels) == 0 && !resnap && deltaTuples > 0 &&
		float64(deltaTuples) <= mergeMaxFrac*float64(max(totalTuples, 1)) {
		d.mu.Lock()
		old := d.enc
		d.mu.Unlock()
		if old != nil {
			if enc, ok, err := fbuild.MergeEnc(nd.rels, p.tree.Clone(), old, deltas); err == nil && ok {
				nd.enc = enc
			}
		}
	}
	p.data.Store(nd)
}

// resnapInput rebuilds input i's snapshot from a state: dedup, constant
// pre-filter, path sort — the same pipeline Prepare ran.
func (p *stmtPlan) resnapInput(i int, state *delta.State) *relation.Relation {
	r := snapRelation(state)
	if f := p.inputs[i].filter; f != nil {
		r = r.Filter(f)
	}
	r.SortBy(p.inputs[i].sortAttrs)
	return r
}

// filterTuples returns the tuples passing f (allocation-free when all do).
func filterTuples(ts []relation.Tuple, f func(relation.Tuple) bool) []relation.Tuple {
	keep := ts[:0:0]
	for _, t := range ts {
		if f(t) {
			keep = append(keep, t)
		}
	}
	return keep
}

// mergeSortedDelta applies a net delta to a sorted, deduplicated snapshot
// with one linear merge in the snapshot's sort order (the column
// permutation idx), returning the new snapshot (sharing tuple storage with
// the old) and the delta actually applied: additions not already present
// and removals actually found — the touched set the representation merge
// patches.
func mergeSortedDelta(old *relation.Relation, adds, dels []relation.Tuple, idx []int) (*relation.Relation, fbuild.RelDelta) {
	cmp := func(a, b relation.Tuple) int {
		for _, c := range idx {
			if a[c] != b[c] {
				if a[c] < b[c] {
					return -1
				}
				return 1
			}
		}
		return 0
	}
	sortTuples := func(ts []relation.Tuple) []relation.Tuple {
		out := append(make([]relation.Tuple, 0, len(ts)), ts...)
		sort.Slice(out, func(i, j int) bool { return cmp(out[i], out[j]) < 0 })
		return out
	}
	adds, dels = sortTuples(adds), sortTuples(dels)
	var applied fbuild.RelDelta
	out := relation.New(old.Name, old.Schema)
	out.Tuples = make([]relation.Tuple, 0, len(old.Tuples)+len(adds))
	ai, di := 0, 0
	for _, t := range old.Tuples {
		for di < len(dels) && cmp(dels[di], t) < 0 {
			di++ // removal of an absent tuple: no-op
		}
		if di < len(dels) && cmp(dels[di], t) == 0 {
			applied.Dels = append(applied.Dels, t)
			di++
			continue
		}
		for ai < len(adds) && cmp(adds[ai], t) < 0 {
			out.Tuples = append(out.Tuples, adds[ai])
			applied.Adds = append(applied.Adds, adds[ai])
			ai++
		}
		if ai < len(adds) && cmp(adds[ai], t) == 0 {
			ai++ // addition of a present tuple: no-op
		}
		out.Tuples = append(out.Tuples, t)
	}
	for ; ai < len(adds); ai++ {
		out.Tuples = append(out.Tuples, adds[ai])
		applied.Adds = append(applied.Adds, adds[ai])
	}
	return out, applied
}

// buildContext binds parameters and builds the statement's factorised
// result straight into the arena-backed columnar encoding: the shared
// evaluation path behind ExecContext and ExecAggContext. Parameter-free
// statements memoise the pre-projection encoding per input version (so a
// read-mostly workload re-executes from the cached arena); parameterised
// ones filter and build per call.
func (st *Stmt) buildContext(ctx context.Context, args []NamedArg) (*frep.Enc, error) {
	if st.snap != nil && st.snap.isClosed() {
		return nil, errSnapshotClosed
	}
	// Bindings stay raw Go values here: a string argument must resolve
	// through the read-only dictionary path below (Lookup / decoded-order
	// predicate), never by minting a code for it.
	bound := make(map[string]interface{}, len(args))
	for _, a := range args {
		known := false
		for _, p := range st.params {
			if p == a.Name {
				known = true
				break
			}
		}
		if !known {
			return nil, fmt.Errorf("fdb: unknown parameter %q", a.Name)
		}
		if _, dup := bound[a.Name]; dup {
			return nil, fmt.Errorf("fdb: parameter %q bound twice", a.Name)
		}
		switch a.Value.(type) {
		case int, int64, relation.Value, string:
		default:
			return nil, fmt.Errorf("fdb: unsupported value type %T", a.Value)
		}
		bound[a.Name] = a.Value
	}
	for _, p := range st.params {
		if _, ok := bound[p]; !ok {
			return nil, fmt.Errorf("fdb: missing parameter %q", p)
		}
	}

	// One plan load per execution: tree, inputs and data stay mutually
	// consistent even if a promotion swaps the statement's plan mid-flight.
	p := st.plan.Load()
	st.refresh(p)
	d := p.data.Load()

	if len(st.psels) == 0 && len(st.dsels) == 0 {
		fr, err := st.cachedEnc(ctx, p, d)
		if err != nil {
			return nil, err
		}
		return st.applyProject(ctx, fr)
	}

	// Resolve this execution's selections — bound parameters and dynamic
	// string comparisons — into per-relation column predicates, then filter
	// the affected snapshots. Filter shares tuple storage and preserves
	// order, so the filtered inputs stay sorted and the shared snapshots
	// stay untouched.
	byRel := map[int][]execSel{}
	addSel := func(ri, col int, op fplan.Cmp, val interface{}) error {
		var pred func(relation.Value) bool
		if s, isStr := val.(string); isStr {
			pred = st.db.stringSelPred(op, s)
		} else {
			v, err := st.db.encode(val)
			if err != nil {
				return err
			}
			cs := core.ConstSel{Op: op, C: v}
			pred = cs.Match
		}
		byRel[ri] = append(byRel[ri], execSel{col: col, pred: pred})
		return nil
	}
	for _, ps := range st.psels {
		if err := addSel(ps.rel, ps.col, ps.op, bound[ps.name]); err != nil {
			return nil, err
		}
	}
	for _, ds := range st.dsels {
		if err := addSel(ds.rel, ds.col, ds.op, ds.s); err != nil {
			return nil, err
		}
	}
	rels := append([]*relation.Relation(nil), d.rels...)
	for ri, sels := range byRel {
		sels := sels
		rels[ri] = rels[ri].Filter(func(t relation.Tuple) bool {
			for _, es := range sels {
				if !es.pred(t[es.col]) {
					return false
				}
			}
			return true
		})
	}
	// Each Exec gets its own tree: the encoded representation owns it, and
	// downstream operators derive fresh trees from it. The build is
	// morsel-parallel when the execution's parallelism allows it.
	fr, err := fbuild.BuildEncParallelContext(ctx, rels, p.tree.Clone(), st.parallelism())
	if err != nil {
		return nil, err
	}
	return st.applyProject(ctx, fr)
}

// cachedEnc returns d's memoised pre-projection encoding, building it on
// first use. Encoded representations are immutable, so handing the same
// *Enc to every Exec at this version is free sharing, not aliasing.
func (st *Stmt) cachedEnc(ctx context.Context, p *stmtPlan, d *stmtData) (*frep.Enc, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.enc == nil {
		// A database opened from a snapshot file may hold a pre-built arena
		// for exactly this plan at exactly these input versions; adopting it
		// skips the build entirely (the arena stays in the mapped file).
		if enc := st.adoptSaved(p, d); enc != nil {
			d.enc = enc
			return d.enc, nil
		}
		enc, err := fbuild.BuildEncParallelContext(ctx, d.rels, p.tree.Clone(), st.parallelism())
		if err != nil {
			return nil, err
		}
		d.enc = enc
	}
	return d.enc, nil
}

// applyProject bakes the statement's projection into the result (a pure
// encoded operator: the shared input is never mutated).
func (st *Stmt) applyProject(ctx context.Context, fr *frep.Enc) (*frep.Enc, error) {
	if st.project == nil {
		return fr, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return fplan.ApplyEnc(fplan.Project{Attrs: st.project}, fr)
}

// promote is the background half of plan promotion: rerun the budgeted
// exhaustive search over the statement's (data-independent) classes and
// schemas, and if it finds a strictly cheaper tree, assemble a complete new
// plan — lifted for group-by, order-checked, inputs re-snapshotted and
// path-sorted — and swap it in atomically. Every failure mode (budget
// exhaustion, no improvement, a lost order property) simply keeps the
// greedy plan; promotion can never break a working statement.
func (st *Stmt) promote() {
	db := st.db
	old := st.plan.Load()
	db.pstats.escalations.Add(1)
	tr, cost, err := opt.OptimalFTree(st.classes, st.schemas, db.plannerBudgetOpts())
	if err != nil {
		if errors.Is(err, opt.ErrBudget) {
			db.pstats.fallbacks.Add(1)
		}
		return
	}
	if len(st.groupBy) > 0 {
		if err := (fplan.Lift{Attrs: st.groupBy}).ApplyTree(tr); err != nil {
			return
		}
	}
	streamable := false
	if len(st.order) > 0 {
		streamable = fplan.ReorderForOrder(tr, st.order) && fplan.OrderCompatible(tr, st.order)
		if !streamable {
			if ot, ocost, oerr := opt.OptimalFTreeOrdered(st.classes, st.schemas, st.ochain, db.plannerBudgetOpts()); oerr == nil &&
				opt.PreferOrdered(cost, ocost, st.limit >= 0) && fplan.ReorderForOrder(ot, st.order) {
				tr, cost = ot, ocost
				streamable = true
			}
		}
		// Never trade the order property away: a promoted plan that stopped
		// streaming would silently re-introduce the heap sort.
		if old.streamable && !streamable {
			return
		}
	}
	if cost >= old.cost-1e-9 {
		return
	}
	np, err := st.assemblePlan(old, tr, cost, streamable)
	if err != nil {
		return
	}
	st.plan.Store(np)
	db.pstats.promotions.Add(1)
}

// assemblePlan compiles the execution half of a plan around a chosen tree:
// a consistent snapshot cut of the old plan's stores, the baked constant
// pre-filters, the tree's path sort and per-input sort permutations — the
// same pipeline prepareSpec runs, re-derived for the new tree.
func (st *Stmt) assemblePlan(old *stmtPlan, tr *ftree.T, cost float64, streamable bool) (*stmtPlan, error) {
	states := make([]*delta.State, len(old.inputs))
	st.db.mu.RLock()
	for i := range old.inputs {
		states[i] = old.inputs[i].store.State()
	}
	st.db.mu.RUnlock()
	rels := make([]*relation.Relation, len(old.inputs))
	vers := make([]uint64, len(old.inputs))
	for i, in := range old.inputs {
		r := snapRelation(states[i])
		if in.filter != nil {
			r = r.Filter(in.filter)
		}
		rels[i] = r
		vers[i] = states[i].Ver
	}
	if err := fbuild.SortFor(rels, tr); err != nil {
		return nil, err
	}
	inputs := make([]stmtInput, len(old.inputs))
	for i, in := range old.inputs {
		idx, err := fbuild.SortIndex(rels[i], tr)
		if err != nil {
			return nil, err
		}
		attrs := make([]relation.Attribute, len(idx))
		for j, c := range idx {
			attrs[j] = rels[i].Schema[c]
		}
		inputs[i] = stmtInput{store: in.store, filter: in.filter, sortIdx: idx, sortAttrs: attrs}
	}
	p := &stmtPlan{tree: tr, inputs: inputs, cost: cost, streamable: streamable}
	p.data.Store(&stmtData{rels: rels, vers: vers})
	return p, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
