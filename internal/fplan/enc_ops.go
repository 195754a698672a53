// Encoded (columnar) implementations of the f-plan operators. ApplyEnc
// takes an arena-backed representation and returns a fresh one (inputs are
// never mutated — arenas are immutable and cheap to share).
//
// Every operator rewrites offset spans natively: everything off the
// root→target path is bulk-copied (contiguous column ranges), and only the
// path itself is re-emitted entry by entry so that emptiness cascades. Swap
// regroups each enclosing product with the priority queue of Figure 4;
// absorb restricts along the A→B chain and then splices B out as a column
// relabel; lift is a loop of swaps.
package fplan

import (
	"container/heap"
	"fmt"
	"sort"

	"repro/internal/frep"
	"repro/internal/ftree"
	"repro/internal/relation"
)

// ApplyEnc applies op to an encoded representation, returning the
// transformed representation. The input is left untouched.
func ApplyEnc(op Op, e *frep.Enc) (*frep.Enc, error) {
	if e.IsEmpty() {
		// Data-free: replay the structural change only.
		nt := e.Tree.Clone()
		if err := op.ApplyTree(nt); err != nil {
			return nil, err
		}
		return frep.NewEmptyEnc(nt), nil
	}
	switch o := op.(type) {
	case SelectConst:
		return selectConstEnc(o, e)
	case SelectFn:
		return selectFnEnc(o, e)
	case Merge:
		return mergeEnc(o, e)
	case PushUp:
		return pushUpEnc(o, e)
	case Normalise:
		return normaliseEnc(e)
	case Project:
		return projectEnc(o, e)
	case Distinct:
		return frep.DedupEnc(e), nil
	case Swap:
		return swapEnc(o, e)
	case Absorb:
		return absorbEnc(o, e)
	case Lift:
		return liftEnc(o, e)
	default:
		return nil, fmt.Errorf("fplan: operator %v has no encoded implementation", op)
	}
}

// ProductEnc combines two encoded representations over disjoint attribute
// sets into their Cartesian product (Section 3.2): the forest of both
// trees, the concatenation of both root products. Time linear in the input
// sizes (bulk column copies).
func ProductEnc(a, b *frep.Enc) (*frep.Enc, error) {
	t, err := productTree(a.Tree.Clone(), b.Tree.Clone())
	if err != nil {
		return nil, err
	}
	return frep.ConcatEnc(t, a, b), nil
}

// ------------------------------------------------------------- rewriter

// encRewriter re-emits an encoded representation into a fresh builder,
// customising behaviour at one target node and bulk-copying every subtree
// off the root→target path. Entries on the path whose subtree empties are
// rolled back, and the removal cascades upward to the roots.
type encRewriter struct {
	e        *frep.Enc
	b        *frep.EncBuilder
	s2d      []int // src pre-order index → dst pre-order index
	tni      int   // target src node
	pathNext []int // per src node: the child index continuing the path, -1 otherwise
	// Exactly one of the two hooks is set. entryFilter keeps/drops the
	// target's own entries (children copied verbatim). products emits the
	// whole child product of target entry j (absolute index) into the
	// builder, closing the emitted unions, and reports liveness.
	entryFilter func(relation.Value) bool
	products    func(j int) bool
	marks       markStack
}

// markStack holds one reusable EncBuilder mark buffer per recursion depth.
type markStack [][]int32

// mark records the column lengths of builder node ni's subtree at depth d.
func (s *markStack) mark(b *frep.EncBuilder, ni, d int) {
	for len(*s) <= d {
		*s = append(*s, nil)
	}
	(*s)[d] = b.Mark(ni, (*s)[d][:0])
}

// rollback undoes everything emitted below ni since the depth-d mark.
func (s markStack) rollback(b *frep.EncBuilder, ni, d int) { b.Rollback(ni, s[d]) }

func newEncRewriter(e *frep.Enc, b *frep.EncBuilder, dt *ftree.T, tni int) *encRewriter {
	r := &encRewriter{e: e, b: b, tni: tni}
	r.s2d = make([]int, e.NodeCount())
	for ni := 0; ni < e.NodeCount(); ni++ {
		r.s2d[ni] = b.Idx(dt.NodeOf(e.Node(ni).Attrs[0]))
	}
	r.pathNext = make([]int, e.NodeCount())
	for i := range r.pathNext {
		r.pathNext[i] = -1
	}
	for ni := tni; ni >= 0; {
		p := e.Parent(ni)
		if p < 0 {
			break
		}
		r.pathNext[p] = ni
		ni = p
	}
	return r
}

// run emits every root and returns the finished representation
// (canonicalised to the empty form if the rewrite emptied it).
func (r *encRewriter) run() *frep.Enc {
	for _, ri := range r.e.Roots() {
		dri := r.s2d[ri]
		if ri == r.tni || r.pathNext[ri] >= 0 {
			r.emitUnion(ri, 0, 0)
			r.b.CloseUnion(dri)
		} else {
			r.b.CopyUnions(r.e, ri, dri, 0, 1)
		}
	}
	out := r.b.Finish()
	if out.IsEmpty() {
		return frep.NewEmptyEnc(out.Tree)
	}
	return out
}

// emitUnion re-emits union u of on-path node ni; returns entries emitted.
func (r *encRewriter) emitUnion(ni, u, depth int) int {
	e := r.e
	lo, hi := e.UnionSpan(ni, u)
	vals := e.Vals(ni)
	dni := r.s2d[ni]
	target := ni == r.tni
	count := 0
	for j := lo; j < hi; j++ {
		if target && r.entryFilter != nil {
			if !r.entryFilter(vals[j]) {
				continue
			}
			// Surviving target entries copy their children verbatim; the
			// reduction invariant guarantees nothing below can empty.
			r.b.Append(dni, vals[j])
			for _, ci := range e.Kids(ni) {
				r.b.CopyUnions(e, ci, r.s2d[ci], int(j), int(j)+1)
			}
			count++
			continue
		}
		r.marks.mark(r.b, dni, depth)
		r.b.Append(dni, vals[j])
		dead := false
		if target {
			dead = !r.products(int(j))
		} else {
			for _, ci := range e.Kids(ni) {
				if ci == r.pathNext[ni] {
					if r.emitUnion(ci, int(j), depth+1) == 0 {
						dead = true
						break
					}
					r.b.CloseUnion(r.s2d[ci])
				} else {
					r.b.CopyUnions(e, ci, r.s2d[ci], int(j), int(j)+1)
				}
			}
		}
		if dead {
			r.marks.rollback(r.b, dni, depth)
			continue
		}
		count++
	}
	return count
}

// rewriteProducts re-emits e into a fresh representation over nt (a tree
// whose nodes keep e's labels), calling emit once per product of child
// unions of parent (nil: the single root-level product). emit(r, members,
// u) must emit union u of every member node — parent's children in e, or
// e's roots — into r.b, closing each emitted union, and report whether the
// product survived. A dead product removes its enclosing parent entry, and
// the removal cascades upward.
func rewriteProducts(e *frep.Enc, nt *ftree.T, parent *ftree.Node, emit func(r *encRewriter, members []int, u int) bool) *frep.Enc {
	b := frep.NewEncBuilder(nt)
	if parent == nil {
		// Root-level product: no path to cascade through.
		r := newEncRewriter(e, b, nt, -1)
		if !emit(r, e.Roots(), 0) {
			return frep.NewEmptyEnc(nt)
		}
		if out := b.Finish(); !out.IsEmpty() {
			return out
		}
		return frep.NewEmptyEnc(nt)
	}
	pi := e.NodeIndex(parent)
	r := newEncRewriter(e, b, nt, pi)
	members := e.Kids(pi)
	r.products = func(j int) bool { return emit(r, members, j) }
	return r.run()
}

// --------------------------------------------------- native operators

// selectConstEnc is σ_{AθC} on the encoded form: one filtered re-emit of
// the node's unions with upward cascade; for equality the node becomes
// constant and the representation re-normalises.
func selectConstEnc(o SelectConst, e *frep.Enc) (*frep.Enc, error) {
	sn := e.Tree.NodeOf(o.A)
	if sn == nil {
		return nil, fmt.Errorf("fplan: attribute %q not in f-tree", o.A)
	}
	nt := e.Tree.Clone()
	b := frep.NewEncBuilder(nt)
	r := newEncRewriter(e, b, nt, e.NodeIndex(sn))
	r.entryFilter = func(v relation.Value) bool { return o.Op.eval(v, o.C) }
	out := r.run()
	if o.Op == Eq {
		out.Tree.MarkConst(o.A)
		return normaliseEnc(out)
	}
	return out, nil
}

// selectFnEnc is σ_{A∈P} on the encoded form: the same filtered re-emit as
// selectConstEnc, with an opaque predicate and no constant marking.
func selectFnEnc(o SelectFn, e *frep.Enc) (*frep.Enc, error) {
	sn := e.Tree.NodeOf(o.A)
	if sn == nil {
		return nil, fmt.Errorf("fplan: attribute %q not in f-tree", o.A)
	}
	nt := e.Tree.Clone()
	b := frep.NewEncBuilder(nt)
	r := newEncRewriter(e, b, nt, e.NodeIndex(sn))
	r.entryFilter = o.Keep
	return r.run(), nil
}

// normaliseEnc is η on the encoded form: find the next push-up on a
// scratch clone of the tree, then apply it natively (tree and data
// together), until none is left.
func normaliseEnc(e *frep.Enc) (*frep.Enc, error) {
	for {
		probe := e.Tree.Clone()
		steps := probe.NormaliseSteps()
		if len(steps) == 0 {
			return e, nil
		}
		next, err := ApplyEnc(PushUp{B: steps[0]}, e)
		if err != nil {
			return nil, err
		}
		e = next
	}
}

// pushUpEnc is ψ_B on the encoded form: the B-union of each enclosing
// product is factored out (all copies equal by independence — the first is
// kept) and the A-entries drop their B slot. Everything else bulk-copies.
func pushUpEnc(o PushUp, e *frep.Enc) (*frep.Enc, error) {
	snb := e.Tree.NodeOf(o.B)
	if snb == nil {
		return nil, fmt.Errorf("fplan: attribute %q not in f-tree", o.B)
	}
	sna := e.Tree.ParentOf(snb)
	if sna == nil {
		return nil, fmt.Errorf("fplan: push-up: node of %q is a root", o.B)
	}
	if e.Tree.SubtreeDependsOnNode(snb, sna) {
		return nil, fmt.Errorf("fplan: push-up of %q violates the path constraint", o.B)
	}
	sai, sbi := e.NodeIndex(sna), e.NodeIndex(snb)

	nt := e.Tree.Clone()
	if err := nt.PushUp(o.B); err != nil {
		return nil, err
	}
	var checkErr error
	// Each product of the grandparent: the A-union without its B slot, the
	// factored-out B-union, and verbatim copies of the other members.
	out := rewriteProducts(e, nt, e.Tree.ParentOf(sna), func(r *encRewriter, members []int, u int) bool {
		for _, m := range members {
			if m != sai {
				r.b.CopyUnions(e, m, r.s2d[m], u, u+1)
				continue
			}
			lo, hi := e.UnionSpan(sai, u)
			vals := e.Vals(sai)
			dA := r.s2d[sai]
			for i := lo; i < hi; i++ {
				r.b.Append(dA, vals[i])
				for _, ci := range e.Kids(sai) {
					if ci != sbi {
						r.b.CopyUnions(e, ci, r.s2d[ci], int(i), int(i)+1)
					}
				}
			}
			r.b.CloseUnion(dA)
			// The factored-out copy: B-union of the first A-entry.
			r.b.CopyUnions(e, sbi, r.s2d[sbi], int(lo), int(lo)+1)
			if Strict && checkErr == nil {
				for i := lo + 1; i < hi; i++ {
					if !e.UnionEqual(sbi, int(i), int(lo)) {
						checkErr = fmt.Errorf("fplan: push-up of %q factored out unequal copies", o.B)
						break
					}
				}
			}
		}
		return true
	})
	if checkErr != nil {
		return nil, checkErr
	}
	return out, nil
}

// mergeEnc is μ_{A,B} on the encoded form: a sort-merge intersection of the
// two sibling unions per product; matched entries bulk-copy the children of
// both sides under the merged node, and an empty intersection kills the
// enclosing entry.
func mergeEnc(o Merge, e *frep.Enc) (*frep.Enc, error) {
	if !e.Tree.AreSiblings(o.A, o.B) {
		return nil, fmt.Errorf("fplan: merge: nodes of %q and %q are not siblings", o.A, o.B)
	}
	sna, snb := e.Tree.NodeOf(o.A), e.Tree.NodeOf(o.B)
	sai, sbi := e.NodeIndex(sna), e.NodeIndex(snb)

	nt := e.Tree.Clone()
	if err := nt.Merge(o.A, o.B); err != nil {
		return nil, err
	}
	va, vb := e.Vals(sai), e.Vals(sbi)
	emitMerged := func(r *encRewriter, u int) bool {
		alo, ahi := e.UnionSpan(sai, u)
		blo, bhi := e.UnionSpan(sbi, u)
		dM := r.s2d[sai]
		count := 0
		for i, k := alo, blo; i < ahi && k < bhi; {
			switch {
			case va[i] < vb[k]:
				i++
			case va[i] > vb[k]:
				k++
			default:
				r.b.Append(dM, va[i])
				for _, ca := range e.Kids(sai) {
					r.b.CopyUnions(e, ca, r.s2d[ca], int(i), int(i)+1)
				}
				for _, cb := range e.Kids(sbi) {
					r.b.CopyUnions(e, cb, r.s2d[cb], int(k), int(k)+1)
				}
				count++
				i++
				k++
			}
		}
		r.b.CloseUnion(dM)
		return count > 0
	}
	return rewriteProducts(e, nt, e.Tree.ParentOf(sna), func(r *encRewriter, members []int, u int) bool {
		for _, m := range members {
			switch m {
			case sbi:
				// Folded into the merged union.
			case sai:
				if !emitMerged(r, u) {
					return false
				}
			default:
				r.b.CopyUnions(e, m, r.s2d[m], u, u+1)
			}
		}
		return true
	}), nil
}

// swapItem is a priority-queue element: A-entry aIdx, positioned at entry
// bPos of its B-child union, which ends at bEnd (absolute indexes).
type swapItem struct {
	bVal             relation.Value
	aIdx, bPos, bEnd int32
}

type swapHeap []swapItem

func (h swapHeap) Len() int { return len(h) }
func (h swapHeap) Less(i, j int) bool {
	if h[i].bVal != h[j].bVal {
		return h[i].bVal < h[j].bVal
	}
	return h[i].aIdx < h[j].aIdx
}
func (h swapHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *swapHeap) Push(x interface{}) { *h = append(*h, x.(swapItem)) }
func (h *swapHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// swapEnc is χ_{A,B} on the encoded form: the algorithm of Figure 4 on the
// A-union of every enclosing product. A priority queue over the A-entries'
// B-unions yields the B values in order (ties in A order). Each distinct
// value b becomes one entry of the new B-union, carrying B's A-independent
// children — copied from the first occurrence, all copies being equal by
// independence — and an A-union of the A-entries whose B-union holds b.
// Those A-entries keep their other children and take over the A-dependent
// children of their b-entry. Regrouping never empties a union, so nothing
// is rolled back.
//
// Output layout (must match ftree.Swap): B's children are its independent
// children followed by A; A's are its other children followed by B's
// dependent ones.
func swapEnc(o Swap, e *frep.Enc) (*frep.Enc, error) {
	split, err := e.Tree.PlanSwap(o.A, o.B)
	if err != nil {
		return nil, err
	}
	sna := e.Tree.NodeOf(o.A)
	sai, sbi := e.NodeIndex(sna), e.NodeIndex(e.Tree.NodeOf(o.B))
	nt := e.Tree.Clone()
	if err := nt.Swap(o.A, o.B); err != nil {
		return nil, err
	}
	va, vb := e.Vals(sai), e.Vals(sbi)
	bkids := e.Kids(sbi)
	var h swapHeap
	emitSwapped := func(r *encRewriter, u int) {
		lo, hi := e.UnionSpan(sai, u)
		h = h[:0]
		for i := lo; i < hi; i++ {
			blo, bhi := e.UnionSpan(sbi, int(i))
			h = append(h, swapItem{bVal: vb[blo], aIdx: i, bPos: blo, bEnd: bhi})
		}
		heap.Init(&h)
		dA, dB := r.s2d[sai], r.s2d[sbi]
		for len(h) > 0 {
			bmin, first := h[0].bVal, int(h[0].bPos)
			r.b.Append(dB, bmin)
			for _, k := range split.Indep {
				r.b.CopyUnions(e, bkids[k], r.s2d[bkids[k]], first, first+1)
			}
			for len(h) > 0 && h[0].bVal == bmin {
				it := &h[0]
				ai, bi := int(it.aIdx), int(it.bPos)
				r.b.Append(dA, va[ai])
				for _, ci := range e.Kids(sai) {
					if ci != sbi {
						r.b.CopyUnions(e, ci, r.s2d[ci], ai, ai+1)
					}
				}
				for _, k := range split.Dep {
					r.b.CopyUnions(e, bkids[k], r.s2d[bkids[k]], bi, bi+1)
				}
				if it.bPos++; it.bPos < it.bEnd {
					it.bVal = vb[it.bPos]
					heap.Fix(&h, 0)
				} else {
					heap.Pop(&h)
				}
			}
			r.b.CloseUnion(dA)
		}
		r.b.CloseUnion(dB)
	}
	return rewriteProducts(e, nt, e.Tree.ParentOf(sna), func(r *encRewriter, members []int, u int) bool {
		for _, m := range members {
			if m == sai {
				emitSwapped(r, u)
			} else {
				r.b.CopyUnions(e, m, r.s2d[m], u, u+1)
			}
		}
		return true
	}), nil
}

// absorbEnc is α_{A,B} on the encoded form. First every A-entry with value
// a re-emits its product keeping, along the A→B chain, only the B-entries
// equal to a (a binary search, since unions are ordered); entries whose
// chain empties are rolled back, and the removal cascades up through A to
// the roots. Every surviving B-union then holds exactly one entry, so
// splicing B out — its class joins A, its children take its place — is a
// column relabel, followed by re-normalisation.
func absorbEnc(o Absorb, e *frep.Enc) (*frep.Enc, error) {
	sna, snb := e.Tree.NodeOf(o.A), e.Tree.NodeOf(o.B)
	if sna == nil || snb == nil {
		return nil, fmt.Errorf("fplan: absorb: attribute not in f-tree")
	}
	if !e.Tree.IsAncestor(sna, snb) {
		return nil, fmt.Errorf("fplan: absorb: node of %q is not an ancestor of node of %q", o.A, o.B)
	}
	sai, sbi := e.NodeIndex(sna), e.NodeIndex(snb)
	// toward[ni] is the child of chain node ni leading down to B.
	toward := map[int]int{}
	for ni := sbi; ni != sai; ni = e.Parent(ni) {
		toward[e.Parent(ni)] = ni
	}
	var a relation.Value // value of the A-entry being restricted
	var marks markStack
	var restrict func(r *encRewriter, ni, u, d int) bool
	// product emits the children of chain entry j of node ni, restricting
	// the one on the chain; false if that one empties.
	product := func(r *encRewriter, ni, j, d int) bool {
		for _, ci := range e.Kids(ni) {
			if ci != toward[ni] {
				r.b.CopyUnions(e, ci, r.s2d[ci], j, j+1)
			} else if !restrict(r, ci, j, d) {
				return false
			}
		}
		return true
	}
	// restrict emits union u of chain node ni and closes it, or reports
	// that it emptied (the caller rolls the enclosing entry back).
	restrict = func(r *encRewriter, ni, u, d int) bool {
		lo, hi := e.UnionSpan(ni, u)
		vals := e.Vals(ni)
		dni := r.s2d[ni]
		if ni == sbi {
			j := lo + int32(sort.Search(int(hi-lo), func(k int) bool { return vals[lo+int32(k)] >= a }))
			if j == hi || vals[j] != a {
				return false
			}
			r.b.Append(dni, a)
			for _, ci := range e.Kids(ni) {
				r.b.CopyUnions(e, ci, r.s2d[ci], int(j), int(j)+1)
			}
			r.b.CloseUnion(dni)
			return true
		}
		live := 0
		for j := lo; j < hi; j++ {
			marks.mark(r.b, dni, d)
			r.b.Append(dni, vals[j])
			if product(r, ni, int(j), d+1) {
				live++
			} else {
				marks.rollback(r.b, dni, d)
			}
		}
		if live == 0 {
			return false
		}
		r.b.CloseUnion(dni)
		return true
	}
	out := rewriteProducts(e, e.Tree.Clone(), sna, func(r *encRewriter, _ []int, j int) bool {
		a = e.Vals(sai)[j]
		return product(r, sai, j, 0)
	})
	if out.IsEmpty() {
		nt := e.Tree.Clone()
		if err := o.ApplyTree(nt); err != nil {
			return nil, err
		}
		return frep.NewEmptyEnc(nt), nil
	}
	// out's tree is private to this call: splice B out of it in place.
	nt := out.Tree
	bi := out.NodeIndex(nt.NodeOf(o.B))
	if err := nt.AbsorbSplice(o.A, o.B); err != nil {
		return nil, err
	}
	return normaliseEnc(out.DropNode(nt, bi))
}

// liftEnc is λ on the encoded form: native swaps until every target node
// has only target ancestors.
func liftEnc(o Lift, e *frep.Enc) (*frep.Enc, error) {
	for {
		a, b, ok, err := o.nextSwap(e.Tree)
		if err != nil {
			return nil, err
		}
		if !ok {
			return e, nil
		}
		if e, err = swapEnc(Swap{A: a, B: b}, e); err != nil {
			return nil, err
		}
	}
}

// projectEnc is π_Ā on the encoded form: hidden marking is tree-only,
// removing an all-hidden leaf drops its column outright (O(#nodes), no data
// movement — parent entries are untouched), and internal all-hidden nodes
// are first swapped down to leaves.
func projectEnc(o Project, e *frep.Enc) (*frep.Enc, error) {
	for _, a := range o.Attrs {
		if e.Tree.NodeOf(a) == nil {
			return nil, fmt.Errorf("fplan: project: attribute %q not in f-tree", a)
		}
	}
	cur := e.ReTree(e.Tree.Clone())
	cur.Tree.MarkHidden(o.hiddenAttrs(cur.Tree))
	for {
		n := findAllHidden(cur.Tree)
		if n == nil {
			return cur, nil
		}
		if len(n.Children) == 0 {
			ni := cur.NodeIndex(n)
			t := cur.Tree
			if err := t.RemoveLeaf(n); err != nil {
				return nil, err
			}
			cur = cur.DropNode(t, ni)
			continue
		}
		next, err := swapEnc(Swap{A: n.Attrs[0], B: n.Children[0].Attrs[0]}, cur)
		if err != nil {
			return nil, err
		}
		cur = next
	}
}
