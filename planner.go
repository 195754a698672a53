package fdb

import (
	"errors"
	"math"
	"sync/atomic"

	"repro/internal/ftree"
	"repro/internal/opt"
	"repro/internal/relation"
)

// PlannerMode selects how statements pick their f-tree.
type PlannerMode int32

const (
	// PlannerAuto (the default) plans greedily and escalates to the
	// exhaustive search only when the greedy cost exceeds the threshold;
	// hot cached plans are re-optimised in the background (promotion).
	PlannerAuto PlannerMode = iota
	// PlannerGreedy always uses the polynomial greedy heuristic.
	PlannerGreedy
	// PlannerExhaustive always runs the branch-and-bound search, keeping
	// the greedy tree only when the search blows its exploration budget.
	PlannerExhaustive
)

const (
	// defaultPlannerThreshold is the greedy cost s(T) above which the auto
	// tier escalates to exhaustive search. Typical OLTP-shaped joins cost
	// at most 2 (one shared branch), where greedy is near-exact; costlier
	// trees are wide enough that a better shape repays the search.
	defaultPlannerThreshold = 2.5
	// defaultPromoteAfter is the number of plan-cache hits after which a
	// greedily planned statement is re-optimised in the background.
	defaultPromoteAfter = 32
)

// plannerCounters tallies tier-policy decisions; exposed via CacheStats.
type plannerCounters struct {
	greedy      atomic.Uint64 // statements carrying a greedy-planned tree
	escalations atomic.Uint64 // exhaustive searches attempted
	fallbacks   atomic.Uint64 // budget blowups answered with the greedy tree
	promotions  atomic.Uint64 // background re-optimisations that swapped a plan
}

// SetPlannerMode selects the planning tier for statements compiled from now
// on (cached plans keep the tree they were compiled with). Safe to call
// concurrently with running queries.
func (db *DB) SetPlannerMode(m PlannerMode) { db.plannerMode.Store(int32(m)) }

// PlannerMode returns the current planning tier.
func (db *DB) PlannerMode() PlannerMode { return PlannerMode(db.plannerMode.Load()) }

// SetPlannerBudget caps the number of partial trees one exhaustive search
// may explore before it gives up and the greedy tree stands; n <= 0
// restores the default (2e6). Exploration-budget exhaustion is never a
// query error: it only pins the statement to its greedy plan.
func (db *DB) SetPlannerBudget(n int) {
	if n < 0 {
		n = 0
	}
	db.plannerBudget.Store(int64(n))
}

// SetPlannerThreshold sets the greedy cost s(T) above which PlannerAuto
// escalates to the exhaustive search; v <= 0 restores the default (2.5).
func (db *DB) SetPlannerThreshold(v float64) {
	if v <= 0 || math.IsNaN(v) {
		v = 0
	}
	db.plannerThreshold.Store(math.Float64bits(v))
}

// SetPlannerPromoteAfter sets the number of plan-cache hits after which a
// greedily planned statement re-optimises in the background (default 32);
// n < 0 disables promotion, n == 0 restores the default.
func (db *DB) SetPlannerPromoteAfter(n int) {
	if n < 0 {
		n = -1
	}
	db.plannerPromote.Store(int64(n))
}

func (db *DB) plannerBudgetOpts() opt.TreeSearchOptions {
	return opt.TreeSearchOptions{Budget: int(db.plannerBudget.Load())}
}

func (db *DB) plannerThresholdValue() float64 {
	if bits := db.plannerThreshold.Load(); bits != 0 {
		return math.Float64frombits(bits)
	}
	return defaultPlannerThreshold
}

func (db *DB) plannerPromoteAfter() int64 {
	switch n := db.plannerPromote.Load(); {
	case n < 0:
		return 0 // disabled
	case n == 0:
		return defaultPromoteAfter
	default:
		return n
	}
}

// planTree picks a statement's f-tree through the tier policy: greedy by
// default, escalating to the budgeted exhaustive search when the greedy
// cost crosses the threshold (or when forced by PlannerExhaustive), and
// keeping the greedy tree whenever the search exhausts its budget. A
// non-empty chain constrains both tiers to trees whose pre-order starts
// with the ORDER BY key classes. The returned flag reports whether the
// chosen tree came from the greedy tier (and is therefore a promotion
// candidate). opt.ErrBudget never escapes; opt.ErrOrderIncompatible
// propagates to the caller, which falls back to heap-sorted retrieval.
func (db *DB) planTree(classes, schemas []relation.AttrSet, chain []int) (*ftree.T, float64, bool, error) {
	mode := db.PlannerMode()
	var gt *ftree.T // the greedy tree, when the greedy tier ran
	var gcost float64
	if mode != PlannerExhaustive {
		var err error
		if gt, gcost, err = opt.GreedyFTreeOrdered(classes, schemas, chain); err != nil {
			return nil, 0, false, err
		}
		if mode == PlannerGreedy || gcost <= db.plannerThresholdValue()+1e-9 {
			db.pstats.greedy.Add(1)
			return gt, gcost, true, nil
		}
	}
	db.pstats.escalations.Add(1)
	ot, ocost, err := opt.OptimalFTreeOrdered(classes, schemas, chain, db.plannerBudgetOpts())
	switch {
	case err == nil && (gt == nil || ocost < gcost-1e-9):
		return ot, ocost, false, nil
	case err == nil:
		// The greedy tree already is optimal; keep it, but not as a
		// promotion candidate — re-optimising cannot improve it.
		return gt, gcost, false, nil
	case !errors.Is(err, opt.ErrBudget):
		return nil, 0, false, err
	}
	db.pstats.fallbacks.Add(1)
	if gt == nil {
		if gt, gcost, err = opt.GreedyFTreeOrdered(classes, schemas, chain); err != nil {
			return nil, 0, false, err
		}
	}
	db.pstats.greedy.Add(1)
	return gt, gcost, true, nil
}

// maybePromote is called on every plan-cache hit: once a greedily planned,
// unpinned statement crosses the promotion threshold, one background
// re-optimisation runs and — if the exhaustive search finds a strictly
// cheaper tree — swaps the statement's whole plan atomically. In-flight
// executions keep the plan they loaded; the swap reuses the incremental-
// refresh machinery, so the promoted plan's snapshots stay current the
// same way the original's did.
func (db *DB) maybePromote(st *Stmt) {
	if db.PlannerMode() != PlannerAuto {
		return // forced tiers stay forced; only auto re-optimises behind the scenes
	}
	p := st.plan.Load()
	if p == nil || !p.greedy || st.snap != nil {
		return
	}
	n := db.plannerPromoteAfter()
	if n == 0 || st.hits.Add(1) < uint64(n) {
		return
	}
	if !st.promoting.CompareAndSwap(false, true) {
		return
	}
	go st.promote()
}
