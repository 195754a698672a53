package fplan

import (
	"math/rand"
	"testing"

	"repro/internal/relation"
)

// TestLiftRaisesGroupAttrs: after Lift, every target node's ancestors are
// target nodes, the relation is unchanged, and tree-level and data-level
// transforms agree.
func TestLiftRaisesGroupAttrs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	attrs := []relation.Attribute{"A", "B", "C", "D"}
	deps := []relation.AttrSet{relation.NewAttrSet(attrs...)}
	for iter := 0; iter < 50; iter++ {
		perm := rng.Perm(len(attrs))
		order := make([]relation.Attribute, len(attrs))
		for i, p := range perm {
			order[i] = attrs[p]
		}
		rel := randRel(rng, "R", relation.Schema{"A", "B", "C", "D"}, 1+rng.Intn(20), 3)
		if rel.Cardinality() == 0 {
			continue
		}
		f := mustFromRelation(t, chainTree(order, deps), rel)
		// Lift a random non-empty subset.
		var group []relation.Attribute
		for _, a := range attrs {
			if rng.Intn(2) == 0 {
				group = append(group, a)
			}
		}
		if len(group) == 0 {
			group = []relation.Attribute{attrs[rng.Intn(len(attrs))]}
		}

		f = applyChecked(t, Lift{Attrs: group}, f, rel)
		if !Lifted(f.Tree, group) {
			t.Fatalf("not lifted for %v:\n%s", group, f.Tree)
		}
		sameRelation(t, f, rel, "lift changed the relation")
	}
}

func TestLiftUnknownAttr(t *testing.T) {
	deps := []relation.AttrSet{relation.NewAttrSet("A", "B")}
	tr := chainTree([]relation.Attribute{"A", "B"}, deps)
	if err := (Lift{Attrs: []relation.Attribute{"Z"}}).ApplyTree(tr); err == nil {
		t.Fatal("lift of unknown attribute: want error")
	}
}

// TestLiftNoop: lifting attributes already on top changes nothing.
func TestLiftNoop(t *testing.T) {
	deps := []relation.AttrSet{relation.NewAttrSet("A", "B", "C")}
	tr := chainTree([]relation.Attribute{"A", "B", "C"}, deps)
	before := tr.Canonical()
	if err := (Lift{Attrs: []relation.Attribute{"A", "B"}}).ApplyTree(tr); err != nil {
		t.Fatal(err)
	}
	if tr.Canonical() != before {
		t.Fatalf("no-op lift changed the tree:\n%s", tr)
	}
}
