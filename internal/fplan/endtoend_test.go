package fplan

import (
	"math/rand"
	"testing"

	"repro/internal/frep"
	"repro/internal/ftree"
	"repro/internal/relation"
)

// TestRandomOperatorSequences is the strongest operator-level property
// test: starting from a factorisation of a random relation over a chain
// f-tree, apply a random sequence of valid operators and verify after every
// step that (1) the structure stays valid, (2) the represented relation
// matches a shadow relational computation, and (3) the tree matches the
// schema-level transform (see applyChecked).
func TestRandomOperatorSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 40; trial++ {
		// Dependencies: one relation over a random subset structure. Use
		// two relations {A,B} and {C,D} joined via the tree when merged.
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
		tr := ftree.New(roots, deps)
		f, err := frep.FromRelation(tr, shadow)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		steps := 1 + rng.Intn(4)
		for s := 0; s < steps && !f.IsEmpty(); s++ {
			op, expect := randomOp(rng, f, shadow)
			if op == nil {
				break
			}
			f = applyChecked(t, op, f, expect)
			shadow = expect
			if f.IsEmpty() {
				if shadow.Cardinality() != 0 {
					t.Fatalf("trial %d step %d (%s): engine empty, shadow has %d",
						trial, s, op, shadow.Cardinality())
				}
				continue
			}
			got := f.Relation("got")
			want := shadow.Project(got.Schema)
			if !got.Equal(want) {
				t.Fatalf("trial %d step %d (%s): mismatch\ngot:\n%s\nwant:\n%s\ntree:\n%s",
					trial, s, op, got, want, f.Tree)
			}
		}
	}
}

// randomOp picks a random applicable operator and computes the expected
// shadow relation after it.
func randomOp(rng *rand.Rand, f *frep.Enc, shadow *relation.Relation) (Op, *relation.Relation) {
	var attrs []relation.Attribute
	for a := range f.Tree.Attrs() {
		attrs = append(attrs, a)
	}
	if len(attrs) == 0 {
		return nil, nil
	}
	// Deterministic order for reproducibility.
	for i := 1; i < len(attrs); i++ {
		for j := i; j > 0 && attrs[j] < attrs[j-1]; j-- {
			attrs[j], attrs[j-1] = attrs[j-1], attrs[j]
		}
	}
	idx := func(a relation.Attribute) int { return shadow.Schema.Index(a) }
	for tries := 0; tries < 30; tries++ {
		switch rng.Intn(4) {
		case 0: // swap a random parent-child pair
			a := attrs[rng.Intn(len(attrs))]
			n := f.Tree.NodeOf(a)
			if len(n.Children) == 0 {
				continue
			}
			c := n.Children[rng.Intn(len(n.Children))]
			return Swap{A: a, B: c.Attrs[0]}, shadow
		case 1: // merge two sibling classes (equality selection)
			a := attrs[rng.Intn(len(attrs))]
			b := attrs[rng.Intn(len(attrs))]
			if f.Tree.NodeOf(a) == f.Tree.NodeOf(b) || !f.Tree.AreSiblings(a, b) {
				continue
			}
			ia, ib := idx(a), idx(b)
			want := shadow.Select(func(t relation.Tuple) bool { return t[ia] == t[ib] })
			return Merge{A: a, B: b}, want
		case 2: // absorb a descendant (equality selection)
			a := attrs[rng.Intn(len(attrs))]
			b := attrs[rng.Intn(len(attrs))]
			na, nb := f.Tree.NodeOf(a), f.Tree.NodeOf(b)
			if na == nb || !f.Tree.IsAncestor(na, nb) {
				continue
			}
			ia, ib := idx(a), idx(b)
			want := shadow.Select(func(t relation.Tuple) bool { return t[ia] == t[ib] })
			return Absorb{A: a, B: b}, want
		case 3: // selection with constant
			a := attrs[rng.Intn(len(attrs))]
			c := relation.Value(rng.Intn(3))
			ops := []Cmp{Eq, Ne, Lt, Le, Gt, Ge}
			op := ops[rng.Intn(len(ops))]
			ia := idx(a)
			want := shadow.Select(func(t relation.Tuple) bool { return op.eval(t[ia], c) })
			return SelectConst{A: a, Op: op, C: c}, want
		}
	}
	return nil, nil
}
