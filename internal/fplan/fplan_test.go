package fplan

import (
	"math/rand"
	"testing"

	"repro/internal/frep"
	"repro/internal/ftree"
	"repro/internal/relation"
)

func init() { Strict = true }

// --- fixtures -------------------------------------------------------------

// randRel builds a random relation over the given schema with values in
// [0, dom).
func randRel(rng *rand.Rand, name string, schema relation.Schema, n, dom int) *relation.Relation {
	r := relation.New(name, schema)
	for i := 0; i < n; i++ {
		t := make(relation.Tuple, len(schema))
		for j := range t {
			t[j] = relation.Value(rng.Intn(dom))
		}
		r.AppendTuple(t)
	}
	r.Dedup()
	return r
}

// chainTree builds the f-tree A0 -> A1 -> ... over one relation schema.
func chainTree(attrs []relation.Attribute, deps []relation.AttrSet) *ftree.T {
	var root, cur *ftree.Node
	for _, a := range attrs {
		n := ftree.NewNode(a)
		if cur == nil {
			root = n
		} else {
			cur.Add(n)
		}
		cur = n
	}
	return ftree.New([]*ftree.Node{root}, deps)
}

func mustFromRelation(t *testing.T, tr *ftree.T, r *relation.Relation) *frep.Enc {
	t.Helper()
	f, err := frep.FromRelation(tr, r)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func checkValid(t *testing.T, f *frep.Enc) {
	t.Helper()
	if err := f.Validate(); err != nil {
		t.Fatalf("invalid representation: %v\ntree:\n%s", err, f.Tree)
	}
	if err := f.Tree.Validate(); err != nil {
		t.Fatalf("invalid tree: %v\n%s", err, f.Tree)
	}
}

// sameRelation compares the representation against a reference relation,
// aligning schemas.
func sameRelation(t *testing.T, f *frep.Enc, want *relation.Relation, msg string) {
	t.Helper()
	got := f.Relation("got")
	w := want.Project(got.Schema)
	if !got.Equal(w) {
		t.Fatalf("%s:\ngot:\n%s\nwant:\n%s\ntree:\n%s", msg, got, w, f.Tree)
	}
}

// applyChecked runs op natively on f and checks the result three ways: it
// validates; its tree is op.ApplyTree on a clone of f's tree; and it is
// Equal to the factorisation, over that tree, of oracle — the expected
// answer over every attribute of the tree, hidden ones included (extra
// oracle columns are projected away; nil skips this check). Over a fixed
// f-tree the representation with sorted, duplicate-free, non-empty unions
// is unique, so the last check pins the output entry for entry.
func applyChecked(t *testing.T, op Op, f *frep.Enc, oracle *relation.Relation) *frep.Enc {
	t.Helper()
	out, err := ApplyEnc(op, f)
	if err != nil {
		t.Fatalf("%v: %v", op, err)
	}
	checkValid(t, out)
	want := f.Tree.Clone()
	if err := op.ApplyTree(want); err != nil {
		t.Fatalf("%v: ApplyTree: %v", op, err)
	}
	if out.Tree.String() != want.String() || out.Tree.Canonical() != want.Canonical() {
		t.Fatalf("%v: result tree\n%s\ndiffers from ApplyTree's\n%s", op, out.Tree, want)
	}
	if oracle == nil {
		return out
	}
	ref, err := frep.FromRelation(out.Tree.Clone(), oracle.Project(out.Tree.Attrs().Sorted()))
	if err != nil {
		t.Fatalf("%v: oracle does not factorise over the result tree: %v", op, err)
	}
	if !out.Equal(ref) {
		t.Fatalf("%v: result\n%s\ndiffers from the oracle's factorisation\n%s\ntree:\n%s", op, out, ref, out.Tree)
	}
	return out
}

// --- swap -----------------------------------------------------------------

// TestSwapPreservesRelation: swapping any parent-child pair — at the root
// and below a parent — leaves the represented relation unchanged and
// matches the tree-level transform.
func TestSwapPreservesRelationRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	attrs := []relation.Attribute{"A", "B", "C", "D"}
	deps := []relation.AttrSet{relation.NewAttrSet("A", "B", "C", "D")}
	for trial := 0; trial < 40; trial++ {
		r := randRel(rng, "R", relation.Schema(attrs), 1+rng.Intn(30), 3)
		if r.Cardinality() == 0 {
			continue
		}
		perm := rng.Perm(len(attrs))
		shuffled := make([]relation.Attribute, len(attrs))
		for i, p := range perm {
			shuffled[i] = attrs[p]
		}
		f := mustFromRelation(t, chainTree(shuffled, deps), r)
		// Swap every adjacent pair on the chain, each on the original.
		for i := 0; i+1 < len(shuffled); i++ {
			a, b := shuffled[i], shuffled[i+1]
			out := applyChecked(t, Swap{A: a, B: b}, f, r)
			sameRelation(t, out, r, "swap changed the relation")
			// The node of b must now be the parent of the node of a.
			if out.Tree.ParentOf(out.Tree.NodeOf(a)) != out.Tree.NodeOf(b) {
				t.Fatalf("trial %d: swap did not exchange the nodes:\n%s", trial, out.Tree)
			}
		}
	}
}

// TestSwapSplitsChildren swaps χ_{A,B} below a parent P on the tree
// P → A → {B → {C, D}, E} of R(P,A,B,C) ⋈ S(B,D) ⋈ T(A,E): C depends on A
// and moves under it, D stays with B, E stays with A, and B takes A's
// place under P.
func TestSwapSplitsChildren(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	deps := []relation.AttrSet{
		relation.NewAttrSet("P", "A", "B", "C"),
		relation.NewAttrSet("B", "D"),
		relation.NewAttrSet("A", "E"),
	}
	for trial := 0; trial < 30; trial++ {
		r := randRel(rng, "R", relation.Schema{"P", "A", "B", "C"}, 1+rng.Intn(20), 3)
		s := randRel(rng, "S", relation.Schema{"B", "D"}, 1+rng.Intn(6), 3)
		u := randRel(rng, "T", relation.Schema{"A", "E"}, 1+rng.Intn(6), 3)
		join := relation.New("J", relation.Schema{"P", "A", "B", "C", "D", "E"})
		for _, x := range r.Tuples {
			for _, y := range s.Tuples {
				for _, z := range u.Tuples {
					if x[2] == y[0] && x[1] == z[0] {
						join.Append(x[0], x[1], x[2], x[3], y[1], z[1])
					}
				}
			}
		}
		if join.Cardinality() == 0 {
			continue
		}
		b := ftree.NewNode("B").Add(ftree.NewNode("C"), ftree.NewNode("D"))
		tr := ftree.New([]*ftree.Node{
			ftree.NewNode("P").Add(ftree.NewNode("A").Add(b, ftree.NewNode("E"))),
		}, deps)
		out := applyChecked(t, Swap{A: "A", B: "B"}, mustFromRelation(t, tr, join), join)
		want := "P\n  B\n    D\n    A\n      E\n      C\n"
		if got := out.Tree.String(); got != want {
			t.Fatalf("trial %d: swapped tree\n%s\nwant\n%s", trial, got, want)
		}
	}
}

// TestSwapT1ToT2Grocery reproduces Example 8: the swap χ_{item,location}
// regroups the factorisation over T1 into the one over T2.
func TestSwapT1ToT2Grocery(t *testing.T) {
	q1, rels := groceryQ1(t)
	tr1 := groceryT1(rels)
	f := mustFromRelation(t, tr1, q1)
	f = applyChecked(t, Swap{A: "item", B: "location"}, f, q1)
	// The post-swap tree is T2 up to sibling order, and the data must be
	// exactly the factorisation of Q1 over that tree.
	if f.Tree.Canonical() != groceryT2(rels).Canonical() {
		t.Fatalf("swap tree is not T2:\n%s", f.Tree)
	}
	want := mustFromRelation(t, f.Tree.Clone(), q1)
	if !f.Equal(want) {
		t.Fatalf("swap result differs from direct factorisation:\n%s\nvs\n%s", f, want)
	}
	if f.Size() != 22 {
		t.Fatalf("size after swap = %d, want 22", f.Size())
	}
}

// --- push-up / normalise ----------------------------------------------------

func TestNormalisePushesIndependentParts(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		// R(A,B) x S(C): over the chain A->B->C, C is independent.
		r := randRel(rng, "R", relation.Schema{"A", "B"}, 1+rng.Intn(15), 3)
		s := randRel(rng, "S", relation.Schema{"C"}, 1+rng.Intn(5), 5)
		if r.Cardinality() == 0 || s.Cardinality() == 0 {
			continue
		}
		full := r.Product(s)
		tr := chainTree([]relation.Attribute{"A", "B", "C"},
			[]relation.AttrSet{relation.NewAttrSet("A", "B"), relation.NewAttrSet("C")})
		f := mustFromRelation(t, tr, full)
		sizeBefore := f.Size()
		f = applyChecked(t, Normalise{}, f, full)
		if !f.Tree.IsNormalised() {
			t.Fatalf("trial %d: tree not normalised:\n%s", trial, f.Tree)
		}
		if f.Size() > sizeBefore {
			t.Fatalf("trial %d: normalisation grew the representation: %d -> %d",
				trial, sizeBefore, f.Size())
		}
		sameRelation(t, f, full, "normalisation changed the relation")
		// C must now be a root.
		if f.Tree.ParentOf(f.Tree.NodeOf("C")) != nil {
			t.Fatalf("trial %d: C not pushed to root:\n%s", trial, f.Tree)
		}
	}
}

// --- merge ------------------------------------------------------------------

// TestMergeIsJoin: merging root nodes of two independent factorisations
// computes the equality selection A = C on their product.
func TestMergeIsJoinRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		r := randRel(rng, "R", relation.Schema{"A", "B"}, 1+rng.Intn(20), 4)
		s := randRel(rng, "S", relation.Schema{"C", "D"}, 1+rng.Intn(20), 4)
		if r.Cardinality() == 0 || s.Cardinality() == 0 {
			continue
		}
		fr := mustFromRelation(t,
			chainTree([]relation.Attribute{"A", "B"}, []relation.AttrSet{relation.NewAttrSet("A", "B")}), r)
		fs := mustFromRelation(t,
			chainTree([]relation.Attribute{"C", "D"}, []relation.AttrSet{relation.NewAttrSet("C", "D")}), s)
		prod, err := ProductEnc(fr, fs)
		if err != nil {
			t.Fatal(err)
		}
		want := r.Product(s).Select(func(tp relation.Tuple) bool { return tp[0] == tp[2] })
		prod = applyChecked(t, Merge{A: "A", B: "C"}, prod, want)
		if prod.IsEmpty() {
			if want.Cardinality() != 0 {
				t.Fatalf("trial %d: merge produced empty, expected %d tuples", trial, want.Cardinality())
			}
			continue
		}
		sameRelation(t, prod, want, "merge != selection A=C")
	}
}

// --- absorb -----------------------------------------------------------------

// TestAbsorbIsSelection: absorbing a descendant into an ancestor computes
// the equality selection between their attributes — one level down, several
// levels down, and below a parent whose entries the restriction can kill.
func TestAbsorbIsSelectionRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	attrs := []relation.Attribute{"A", "B", "C", "D"}
	deps := []relation.AttrSet{relation.NewAttrSet("A", "B", "C", "D")}
	pairs := [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 3}, {2, 3}}
	for trial := 0; trial < 40; trial++ {
		r := randRel(rng, "R", relation.Schema(attrs), 1+rng.Intn(30), 3)
		if r.Cardinality() == 0 {
			continue
		}
		f := mustFromRelation(t, chainTree(attrs, deps), r)
		for _, pr := range pairs {
			i, j := pr[0], pr[1]
			want := r.Select(func(tp relation.Tuple) bool { return tp[i] == tp[j] })
			out := applyChecked(t, Absorb{A: attrs[i], B: attrs[j]}, f, want)
			if out.IsEmpty() != (want.Cardinality() == 0) {
				t.Fatalf("trial %d: α[%s,%s] empty=%v, expected %d tuples",
					trial, attrs[i], attrs[j], out.IsEmpty(), want.Cardinality())
			}
			sameRelation(t, out, want, "absorb != selection")
			// The two attributes now share a node.
			if out.Tree.NodeOf(attrs[i]) != out.Tree.NodeOf(attrs[j]) {
				t.Fatalf("trial %d: %s and %s not merged:\n%s", trial, attrs[i], attrs[j], out.Tree)
			}
		}
	}
}

// TestAbsorbEmptiesResult: when no A-entry has a matching B value, the
// restriction cascades up to the root and the result is the empty
// representation over the absorbed, normalised tree.
func TestAbsorbEmptiesResult(t *testing.T) {
	r := relation.New("R", relation.Schema{"A", "B", "C"})
	r.Append(1, 5, 2)
	r.Append(1, 6, 3)
	r.Append(2, 5, 1)
	f := mustFromRelation(t, chainTree([]relation.Attribute{"A", "B", "C"},
		[]relation.AttrSet{relation.NewAttrSet("A", "B", "C")}), r)
	out := applyChecked(t, Absorb{A: "A", B: "C"}, f, relation.New("E", r.Schema))
	if !out.IsEmpty() || out.Count() != 0 {
		t.Fatalf("absorb with no matches left %d tuples:\n%s", out.Count(), out)
	}
}

// --- selection with constant -------------------------------------------------

func TestSelectConstRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	attrs := []relation.Attribute{"A", "B", "C"}
	deps := []relation.AttrSet{relation.NewAttrSet("A", "B", "C")}
	ops := []Cmp{Eq, Ne, Lt, Le, Gt, Ge}
	for trial := 0; trial < 60; trial++ {
		r := randRel(rng, "R", relation.Schema(attrs), 1+rng.Intn(30), 4)
		if r.Cardinality() == 0 {
			continue
		}
		tr := chainTree(attrs, deps)
		f := mustFromRelation(t, tr, r)
		target := attrs[rng.Intn(len(attrs))]
		cmp := ops[rng.Intn(len(ops))]
		c := relation.Value(rng.Intn(4))
		col := r.Schema.Index(target)
		want := r.Select(func(tp relation.Tuple) bool { return cmp.eval(tp[col], c) })
		f = applyChecked(t, SelectConst{A: target, Op: cmp, C: c}, f, want)
		if f.IsEmpty() {
			if want.Cardinality() != 0 {
				t.Fatalf("trial %d: σ emptied, expected %d tuples", trial, want.Cardinality())
			}
			continue
		}
		sameRelation(t, f, want, "selection with constant wrong")
	}
}

func TestSelectConstEqMakesRoot(t *testing.T) {
	// After σ_{B=c} on chain A->B->C, B is constant and floats to a root.
	r := relation.New("R", relation.Schema{"A", "B", "C"})
	r.Append(1, 5, 1)
	r.Append(1, 5, 2)
	r.Append(2, 5, 1)
	r.Append(2, 6, 1)
	tr := chainTree([]relation.Attribute{"A", "B", "C"},
		[]relation.AttrSet{relation.NewAttrSet("A", "B", "C")})
	f := mustFromRelation(t, tr, r)
	want := r.Select(func(tp relation.Tuple) bool { return tp[1] == 5 })
	f = applyChecked(t, SelectConst{A: "B", Op: Eq, C: 5}, f, want)
	if f.Tree.ParentOf(f.Tree.NodeOf("B")) != nil {
		t.Fatalf("constant node B should be a root:\n%s", f.Tree)
	}
	sameRelation(t, f, want, "σ_eq wrong")
}

// --- projection ----------------------------------------------------------------

func TestProjectRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	attrs := []relation.Attribute{"A", "B", "C"}
	deps := []relation.AttrSet{relation.NewAttrSet("A", "B", "C")}
	for trial := 0; trial < 60; trial++ {
		r := randRel(rng, "R", relation.Schema(attrs), 1+rng.Intn(30), 3)
		if r.Cardinality() == 0 {
			continue
		}
		tr := chainTree(attrs, deps)
		f := mustFromRelation(t, tr, r)
		// Keep a random non-empty subset.
		var keep []relation.Attribute
		for _, a := range attrs {
			if rng.Intn(2) == 0 {
				keep = append(keep, a)
			}
		}
		if len(keep) == 0 {
			keep = []relation.Attribute{attrs[rng.Intn(3)]}
		}
		f = applyChecked(t, Project{Attrs: keep}, f, r)
		want := r.Project(keep)
		sameRelation(t, f, want, "projection wrong")
		// No all-hidden nodes may remain.
		for a := range f.Tree.Attrs() {
			if f.Tree.AllHidden(f.Tree.NodeOf(a)) {
				t.Fatalf("trial %d: all-hidden node for %q survived:\n%s", trial, a, f.Tree)
			}
		}
	}
}

// TestProjectInducedDependence reproduces the Section 3.4 pitfall: on the
// path A - B - C with relations {A,B}, {B,C}, projecting away B must keep A
// and C dependent (no flattening into independent roots) and must not
// produce duplicates.
func TestProjectInducedDependence(t *testing.T) {
	r := relation.New("R", relation.Schema{"A", "B", "C"})
	// A=1 pairs with C=1 via B=1 and with C=2 via B=2; A=2 only with C=2.
	r.Append(1, 1, 1)
	r.Append(1, 2, 2)
	r.Append(2, 2, 2)
	tr := chainTree([]relation.Attribute{"A", "B", "C"},
		[]relation.AttrSet{relation.NewAttrSet("A", "B"), relation.NewAttrSet("B", "C")})
	f := mustFromRelation(t, tr, r)
	f = applyChecked(t, Project{Attrs: []relation.Attribute{"A", "C"}}, f, r)
	want := r.Project([]relation.Attribute{"A", "C"})
	sameRelation(t, f, want, "projection with induced dependence wrong")
	// A and C must still be on one path: a forest of {A} and {C} would
	// represent the cartesian product {1,2}x{1,2}, which is wrong.
	if len(f.Tree.Roots) != 1 {
		t.Fatalf("A and C flattened into independent roots:\n%s", f.Tree)
	}
}

// --- product ---------------------------------------------------------------------

func TestProductOperator(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := randRel(rng, "R", relation.Schema{"A", "B"}, 10, 3)
	s := randRel(rng, "S", relation.Schema{"C"}, 4, 5)
	fr := mustFromRelation(t, chainTree([]relation.Attribute{"A", "B"},
		[]relation.AttrSet{relation.NewAttrSet("A", "B")}), r)
	fs := mustFromRelation(t, chainTree([]relation.Attribute{"C"},
		[]relation.AttrSet{relation.NewAttrSet("C")}), s)
	prod, err := ProductEnc(fr, fs)
	if err != nil {
		t.Fatal(err)
	}
	checkValid(t, prod)
	if prod.Size() != fr.Size()+fs.Size() {
		t.Fatalf("product size %d, want %d", prod.Size(), fr.Size()+fs.Size())
	}
	sameRelation(t, prod, r.Product(s), "product wrong")
	// Overlapping schemas must be rejected.
	if _, err := ProductEnc(fr, fr); err == nil {
		t.Fatal("product over overlapping schemas accepted")
	}
}

func TestProductWithEmpty(t *testing.T) {
	r := relation.New("R", relation.Schema{"A"})
	r.Append(1)
	e := relation.New("E", relation.Schema{"B"})
	fr := mustFromRelation(t, chainTree([]relation.Attribute{"A"}, nil), r)
	fe := mustFromRelation(t, chainTree([]relation.Attribute{"B"}, nil), e)
	prod, err := ProductEnc(fr, fe)
	if err != nil {
		t.Fatal(err)
	}
	if !prod.IsEmpty() || prod.Count() != 0 {
		t.Fatal("product with empty side should be empty")
	}
}

// --- plan simulation ----------------------------------------------------------------

func TestPlanSimulateTreeExample11(t *testing.T) {
	// The two plans of Example 11: costs 2 and 1 respectively.
	b := ftree.NewNode("B").Add(ftree.NewNode("C"))
	e := ftree.NewNode("E").Add(ftree.NewNode("F"))
	ad := ftree.NewNode("A", "D").Add(b, e)
	in := ftree.New([]*ftree.Node{ad}, []relation.AttrSet{
		relation.NewAttrSet("A", "B", "C"),
		relation.NewAttrSet("D", "E", "F"),
	})

	p1 := Plan{Ops: []Op{Swap{A: "A", B: "B"}, Absorb{A: "B", B: "F"}}}
	s1, err := p1.CostS(in)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != 2 {
		t.Fatalf("cost of plan 1 = %v, want 2", s1)
	}

	p2 := Plan{Ops: []Op{Swap{A: "E", B: "F"}, Merge{A: "B", B: "F"}}}
	s2, err := p2.CostS(in)
	if err != nil {
		t.Fatal(err)
	}
	if s2 != 1 {
		t.Fatalf("cost of plan 2 = %v, want 1", s2)
	}

	// Both plans produce trees with B and F merged.
	f1, _, _ := p1.SimulateTree(in)
	f2, _, _ := p2.SimulateTree(in)
	if f1.NodeOf("B") != f1.NodeOf("F") || f2.NodeOf("B") != f2.NodeOf("F") {
		t.Fatal("plans did not merge B and F")
	}
	if p2.String() != "χ[E,F] ; μ[B,F]" {
		t.Fatalf("plan rendering = %q", p2.String())
	}
}

// --- grocery fixtures shared by tests -----------------------------------------

func groceryQ1(t *testing.T) (*relation.Relation, []relation.AttrSet) {
	t.Helper()
	d := relation.NewDict()
	e := d.Encode
	type pair [2]string
	orders := []pair{{"01", "Milk"}, {"01", "Cheese"}, {"02", "Melon"}, {"03", "Cheese"}, {"03", "Melon"}}
	store := []pair{{"Istanbul", "Milk"}, {"Istanbul", "Cheese"}, {"Istanbul", "Melon"},
		{"Izmir", "Milk"}, {"Antalya", "Milk"}, {"Antalya", "Cheese"}}
	disp := []pair{{"Adnan", "Istanbul"}, {"Adnan", "Izmir"}, {"Yasemin", "Istanbul"}, {"Volkan", "Antalya"}}
	q1 := relation.New("Q1", relation.Schema{"item", "oid", "location", "dispatcher"})
	for _, o := range orders {
		for _, s := range store {
			if o[1] != s[1] {
				continue
			}
			for _, dd := range disp {
				if dd[1] != s[0] {
					continue
				}
				q1.Append(e(o[1]), e(o[0]), e(s[0]), e(dd[0]))
			}
		}
	}
	q1.Dedup()
	rels := []relation.AttrSet{
		relation.NewAttrSet("oid", "item"),
		relation.NewAttrSet("location", "item"),
		relation.NewAttrSet("dispatcher", "location"),
	}
	return q1, rels
}

func groceryT1(rels []relation.AttrSet) *ftree.T {
	item := ftree.NewNode("item")
	item.Add(ftree.NewNode("oid"), ftree.NewNode("location").Add(ftree.NewNode("dispatcher")))
	return ftree.New([]*ftree.Node{item}, rels)
}

func groceryT2(rels []relation.AttrSet) *ftree.T {
	loc := ftree.NewNode("location")
	loc.Add(ftree.NewNode("item").Add(ftree.NewNode("oid")), ftree.NewNode("dispatcher"))
	return ftree.New([]*ftree.Node{loc}, rels)
}
