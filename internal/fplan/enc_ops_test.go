package fplan

import (
	"math/rand"
	"testing"

	"repro/internal/frep"
	"repro/internal/ftree"
	"repro/internal/relation"
)

// encFixture builds the two-relation product fixture of endtoend_test and
// returns its factorisation together with the flat relation it represents.
func encFixture(rng *rand.Rand) (*frep.Enc, *relation.Relation, error) {
	deps := []relation.AttrSet{
		relation.NewAttrSet("A", "B"),
		relation.NewAttrSet("C", "D"),
	}
	ra := relation.New("RA", relation.Schema{"A", "B"})
	rc := relation.New("RC", relation.Schema{"C", "D"})
	for i := 0; i < 4+rng.Intn(16); i++ {
		ra.Append(relation.Value(rng.Intn(3)), relation.Value(rng.Intn(3)))
	}
	for i := 0; i < 4+rng.Intn(16); i++ {
		rc.Append(relation.Value(rng.Intn(3)), relation.Value(rng.Intn(3)))
	}
	ra.Dedup()
	rc.Dedup()
	shadow := ra.Product(rc)
	roots := []*ftree.Node{
		ftree.NewNode("A").Add(ftree.NewNode("B")),
		ftree.NewNode("C").Add(ftree.NewNode("D")),
	}
	e, err := frep.FromRelation(ftree.New(roots, deps), shadow)
	return e, shadow, err
}

// oracleAfter is the flat answer of op applied to r: equality selections
// for merge and absorb, the predicate for selections, r itself for the
// restructuring operators.
func oracleAfter(op Op, r *relation.Relation) *relation.Relation {
	col := func(a relation.Attribute) int { return r.Schema.Index(a) }
	switch o := op.(type) {
	case Merge:
		a, b := col(o.A), col(o.B)
		return r.Select(func(t relation.Tuple) bool { return t[a] == t[b] })
	case Absorb:
		a, b := col(o.A), col(o.B)
		return r.Select(func(t relation.Tuple) bool { return t[a] == t[b] })
	case SelectConst:
		a := col(o.A)
		return r.Select(func(t relation.Tuple) bool { return o.Op.eval(t[a], o.C) })
	case SelectFn:
		a := col(o.A)
		return r.Select(func(t relation.Tuple) bool { return o.Keep(t[a]) })
	}
	return r
}

// randomEncOp picks a random operator (the endtoend set plus push-up and
// normalise); applicability is not guaranteed — error parity is part of
// the property.
func randomEncOp(rng *rand.Rand, f *frep.Enc) Op {
	var attrs []relation.Attribute
	for a := range f.Tree.Attrs() {
		attrs = append(attrs, a)
	}
	if len(attrs) == 0 {
		return nil
	}
	for i := 1; i < len(attrs); i++ {
		for j := i; j > 0 && attrs[j] < attrs[j-1]; j-- {
			attrs[j], attrs[j-1] = attrs[j-1], attrs[j]
		}
	}
	pick := func() relation.Attribute { return attrs[rng.Intn(len(attrs))] }
	switch rng.Intn(7) {
	case 0:
		a := pick()
		n := f.Tree.NodeOf(a)
		if len(n.Children) == 0 {
			return nil
		}
		return Swap{A: a, B: n.Children[rng.Intn(len(n.Children))].Attrs[0]}
	case 1:
		return Merge{A: pick(), B: pick()}
	case 2:
		return Absorb{A: pick(), B: pick()}
	case 3:
		ops := []Cmp{Eq, Ne, Lt, Le, Gt, Ge}
		return SelectConst{A: pick(), Op: ops[rng.Intn(len(ops))], C: relation.Value(rng.Intn(3))}
	case 4:
		return PushUp{B: pick()}
	case 5:
		// Predicate selection: parity (a code-order-free predicate, like the
		// decoded-order string ranges SelectFn exists for).
		return SelectFn{A: pick(), Keep: func(v relation.Value) bool { return v%2 == 0 }, Label: "even"}
	default:
		return Normalise{}
	}
}

// TestApplyEncMatchesOracleRandom: random operator sequences — every
// operator, swap and absorb included — yield at every step the unique
// factorisation of the flat oracle over the schema-level result tree, and
// fail exactly when the schema-level transform does.
func TestApplyEncMatchesOracleRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(321))
	for trial := 0; trial < 80; trial++ {
		enc, shadow, err := encFixture(rng)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for s := 0; s < 6; s++ {
			op := randomEncOp(rng, enc)
			if op == nil {
				continue
			}
			errT := op.ApplyTree(enc.Tree.Clone())
			if _, errE := ApplyEnc(op, enc); (errT == nil) != (errE == nil) {
				t.Fatalf("trial %d step %d (%s): tree err %v, encoded err %v", trial, s, op, errT, errE)
			}
			if errT != nil {
				continue
			}
			shadow = oracleAfter(op, shadow)
			enc = applyChecked(t, op, enc, shadow)
		}
	}
}

// TestProjectEncMatchesOracle: projection onto random attribute subsets
// (leaf drops and swap-downs of inner hidden nodes included) yields the
// factorisation of the projected oracle.
func TestProjectEncMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	all := []relation.Attribute{"A", "B", "C", "D"}
	for trial := 0; trial < 60; trial++ {
		enc, shadow, err := encFixture(rng)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Restructure first, so hidden nodes sit at varying depths.
		if op := randomEncOp(rng, enc); op != nil && op.ApplyTree(enc.Tree.Clone()) == nil {
			shadow = oracleAfter(op, shadow)
			enc = applyChecked(t, op, enc, shadow)
		}
		var keep []relation.Attribute
		for _, a := range all {
			if rng.Intn(2) == 0 {
				keep = append(keep, a)
			}
		}
		if len(keep) == 0 {
			keep = []relation.Attribute{all[rng.Intn(len(all))]}
		}
		out := applyChecked(t, Project{Attrs: keep}, enc, shadow)
		sameRelation(t, out, shadow.Project(keep), "projection wrong")
	}
}

// TestLiftEncMatchesOracle: lifting (a loop of native swaps) keeps the
// represented relation, reaches a lifted tree, and matches the oracle's
// factorisation over it.
func TestLiftEncMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	all := []relation.Attribute{"A", "B", "C", "D"}
	for trial := 0; trial < 40; trial++ {
		enc, shadow, err := encFixture(rng)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		attrs := []relation.Attribute{all[rng.Intn(len(all))]}
		if rng.Intn(2) == 0 {
			attrs = append(attrs, all[rng.Intn(len(all))])
		}
		out := applyChecked(t, Lift{Attrs: attrs}, enc, shadow)
		if !Lifted(out.Tree, attrs) {
			t.Fatalf("trial %d: λ%v left the tree unlifted:\n%s", trial, attrs, out.Tree)
		}
	}
}

// TestProductEncMatchesProduct: the encoded Cartesian product is the
// factorisation of the flat product over the product forest.
func TestProductEncMatchesProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		f, shadow, err := encFixture(rng)
		if err != nil {
			t.Fatal(err)
		}
		re := relation.New("RE", relation.Schema{"E"})
		for i := 0; i < 1+rng.Intn(6); i++ {
			re.Append(relation.Value(rng.Intn(5)))
		}
		re.Dedup()
		g, err := frep.FromRelation(
			ftree.New([]*ftree.Node{ftree.NewNode("E")}, []relation.AttrSet{relation.NewAttrSet("E")}), re)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ProductEnc(f, g)
		if err != nil {
			t.Fatal(err)
		}
		checkValid(t, got)
		want := mustFromRelation(t, got.Tree.Clone(), shadow.Product(re))
		if !got.Equal(want) {
			t.Fatalf("trial %d: product differs from the factorised flat product", trial)
		}
		// Overlapping attributes must be rejected.
		if _, err := ProductEnc(got, f); err == nil {
			t.Fatal("overlapping product accepted")
		}
	}
}

// TestSelectFnDirect pins the SelectFn surface: rendering, the unknown-
// attribute error on the tree and the data, and a decoded-order-style predicate
// filtering the encoded form without marking anything constant.
func TestSelectFnDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	f, _, err := encFixture(rng)
	if err != nil {
		t.Fatal(err)
	}
	op := SelectFn{A: "B", Keep: func(v relation.Value) bool { return v != 1 }, Label: "!= 1 (decoded)"}
	if got := op.String(); got != "σ[B != 1 (decoded)]" {
		t.Errorf("String() = %q", got)
	}
	bad := SelectFn{A: "Z", Keep: op.Keep, Label: "x"}
	if err := bad.ApplyTree(f.Tree.Clone()); err == nil {
		t.Error("ApplyTree accepted unknown attribute")
	}
	if _, err := ApplyEnc(bad, f); err == nil {
		t.Error("ApplyEnc accepted unknown attribute")
	}
	enc, err := ApplyEnc(op, f)
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Validate(); err != nil {
		t.Fatal(err)
	}
	if enc.Tree.Canonical() != f.Tree.Canonical() {
		t.Errorf("SelectFn changed the tree:\n%s\nwas:\n%s", enc.Tree, f.Tree)
	}
	it := frep.NewEncIterator(enc)
	col := -1
	for i, a := range enc.Schema() {
		if a == "B" {
			col = i
		}
	}
	for {
		tup, ok := it.Next()
		if !ok {
			break
		}
		if tup[col] == 1 {
			t.Fatalf("tuple %v survived σ[B != 1]", tup)
		}
	}
}
