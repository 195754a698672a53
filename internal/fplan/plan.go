// Package fplan implements the f-plan operators of Section 3 on factorised
// data: push-up ψ and normalisation η, swap χ (the priority-queue algorithm
// of Figure 4), Cartesian product ×, the selection operators merge μ, absorb
// α and selection-with-constant σ, and projection π — plus f-plans
// (sequences of operators) and their executor.
//
// Every operator maps an encoded (f-tree, f-representation) pair to a fresh
// one, in time quasilinear in the sizes of its input and output
// (Proposition 2), preserving the order invariant, the path constraint, and
// normalisation.
package fplan

import (
	"context"
	"strings"

	"repro/internal/frep"
	"repro/internal/ftree"
)

// Strict enables expensive internal consistency checks (copies factored out
// by push-up must be equal). Tests switch it on; benchmarks leave it off.
var Strict = false

// Plan is an f-plan: a sequential composition of operators evaluating a
// select-project-join query on a factorised representation (Section 3).
type Plan struct {
	Ops []Op
}

// String renders the plan as "op ; op ; …".
func (p Plan) String() string {
	parts := make([]string, len(p.Ops))
	for i, op := range p.Ops {
		parts[i] = op.String()
	}
	return strings.Join(parts, " ; ")
}

// Execute applies every operator, in order, to e (tree and data together)
// and returns the final representation; e itself is left untouched. Before
// each operator runs, ctx is polled and its error returned, so long
// operator pipelines can be abandoned mid-plan.
func (p Plan) Execute(ctx context.Context, e *frep.Enc) (*frep.Enc, error) {
	for _, op := range p.Ops {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		next, err := ApplyEnc(op, e)
		if err != nil {
			return nil, err
		}
		e = next
	}
	return e, nil
}

// SimulateTree applies the plan's schema transforms to a clone of t and
// returns the final tree together with the plan cost of Section 4.1:
// s(f) = max(s(T0), …, s(Tk)) over the initial, intermediate and final
// f-trees.
func (p Plan) SimulateTree(t *ftree.T) (final *ftree.T, maxS float64, err error) {
	cur := t.Clone()
	maxS = cur.S()
	for _, op := range p.Ops {
		if err := op.ApplyTree(cur); err != nil {
			return nil, 0, err
		}
		if s := cur.S(); s > maxS {
			maxS = s
		}
	}
	return cur, maxS, nil
}

// CostS returns only the plan cost s(f) (see SimulateTree).
func (p Plan) CostS(t *ftree.T) (float64, error) {
	_, s, err := p.SimulateTree(t)
	return s, err
}

// Append returns a plan with the given operators added.
func (p Plan) Append(ops ...Op) Plan {
	out := Plan{Ops: make([]Op, 0, len(p.Ops)+len(ops))}
	out.Ops = append(out.Ops, p.Ops...)
	out.Ops = append(out.Ops, ops...)
	return out
}
