package frep

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ftree"
	"repro/internal/relation"
)

// quickEnc builds a random factorised representation (or nil when the
// random relation does not factorise over the random tree).
func quickEnc(seed int64) *Enc {
	e, err := FromRelation(quickTree(seed), quickRel(seed))
	if err != nil {
		return nil
	}
	return e
}

// flatRef is the flat reference for e built from rel: rel's tuples in e's
// schema order, sorted lexicographically — exactly the enumeration order.
func flatRef(e *Enc, rel *relation.Relation) []relation.Tuple {
	ref := rel.Project(e.Schema())
	ref.SortBy(ref.Schema)
	return ref.Tuples
}

// Property: encoding a relation (FromRelation) and decoding it (Relation)
// is the identity, and the encoded form validates.
func TestQuickEncodeDecodeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := quickRel(seed)
		e, err := FromRelation(quickTree(seed), r)
		if err != nil {
			return false
		}
		if err := e.Validate(); err != nil {
			t.Logf("validate: %v", err)
			return false
		}
		return e.Relation("back").Project(r.Schema).Equal(r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: the encoded measures agree with the flat relation. Over a
// fixed f-tree every entry at node n stands for one distinct value
// combination of the classes on the root-to-n path, so the size is the
// number of such distinct path projections times n's visible attributes.
func TestQuickEncMeasures(t *testing.T) {
	f := func(seed int64) bool {
		r := quickRel(seed)
		e, err := FromRelation(quickTree(seed), r)
		if err != nil {
			return false
		}
		size := 0
		if r.Cardinality() > 0 {
			for ni := 0; ni < e.NodeCount(); ni++ {
				var path []relation.Attribute
				for p := ni; p >= 0; p = e.Parent(p) {
					path = append(path, e.Node(p).Attrs[0])
				}
				size += r.Project(path).Cardinality() * len(e.Node(ni).Attrs)
			}
		}
		n := int64(r.Cardinality())
		return e.Count() == n && e.Size() == size &&
			e.FlatSize() == n*int64(len(e.Schema())) && e.IsEmpty() == (n == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: encoded enumeration (push and pull) yields exactly the flat
// relation in lexicographic schema order.
func TestQuickEncEnumeration(t *testing.T) {
	f := func(seed int64) bool {
		r := quickRel(seed)
		e, err := FromRelation(quickTree(seed), r)
		if err != nil {
			return false
		}
		want := flatRef(e, r)
		var got []relation.Tuple
		e.Enumerate(func(tp relation.Tuple) bool {
			got = append(got, tp.Clone())
			return true
		})
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].Compare(want[i]) != 0 {
				return false
			}
		}
		// Pull-based, twice (Reset in between).
		it := NewEncIterator(e)
		for pass := 0; pass < 2; pass++ {
			i := 0
			for {
				tp, ok := it.Next()
				if !ok {
					break
				}
				if i >= len(want) || tp.Compare(want[i]) != 0 {
					return false
				}
				i++
			}
			if i != len(want) {
				return false
			}
			it.Reset()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: encoded aggregation agrees with the aggregates folded over the
// flat relation, grouped and global.
func TestQuickEncAggregate(t *testing.T) {
	specs := []AggSpec{
		{Fn: AggCount},
		{Fn: AggSum, Attr: "B"},
		{Fn: AggMin, Attr: "C"},
		{Fn: AggMax, Attr: "B"},
		{Fn: AggCountDistinct, Attr: "C"},
	}
	for _, groupBy := range [][]relation.Attribute{nil, {"A"}, {"A", "B"}} {
		f := func(seed int64) bool {
			r := quickRel(seed)
			e, err := FromRelation(quickTree(seed), r)
			if err != nil {
				return false
			}
			got, err := e.Aggregate(groupBy, specs)
			return err == nil && rowsEqual(got, foldAgg(r, groupBy, specs))
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatalf("groupBy %v: %v", groupBy, err)
		}
	}
}

// The empty representation validates, measures zero and enumerates nothing.
func TestEncEmpty(t *testing.T) {
	tr := ftree.New([]*ftree.Node{ftree.NewNode("A").Add(ftree.NewNode("B"))},
		[]relation.AttrSet{relation.NewAttrSet("A", "B")})
	e := NewEmptyEnc(tr)
	if !e.IsEmpty() || e.Count() != 0 || e.Size() != 0 {
		t.Fatalf("empty enc misbehaves: empty=%v count=%d size=%d", e.IsEmpty(), e.Count(), e.Size())
	}
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	fr, err := FromRelation(tr, relation.New("R", relation.Schema{"A", "B"}))
	if err != nil {
		t.Fatal(err)
	}
	if !fr.Equal(e) {
		t.Fatal("the empty relation does not encode to the empty enc")
	}
	n := 0
	e.Enumerate(func(relation.Tuple) bool { n++; return true })
	if n != 0 {
		t.Fatalf("empty enc enumerated %d tuples", n)
	}
}

// ConcatEnc mirrors the Cartesian product at the data level.
func TestEncConcatProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mk := func(attr relation.Attribute, n int) *Enc {
		r := relation.New("R", relation.Schema{attr})
		for i := 0; i < n; i++ {
			r.Append(relation.Value(rng.Intn(50)))
		}
		r.Dedup()
		tr := ftree.New([]*ftree.Node{ftree.NewNode(attr)}, []relation.AttrSet{relation.NewAttrSet(attr)})
		e, err := FromRelation(tr, r)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	a, b := mk("X", 8), mk("Y", 5)
	tree := &ftree.T{
		Roots:  append(append([]*ftree.Node{}, a.Tree.Roots...), b.Tree.Roots...),
		Rels:   append(append([]relation.AttrSet{}, a.Tree.Rels...), b.Tree.Rels...),
		Deps:   append(append([]relation.AttrSet{}, a.Tree.Deps...), b.Tree.Deps...),
		Hidden: a.Tree.Hidden.Union(b.Tree.Hidden),
		Consts: a.Tree.Consts.Union(b.Tree.Consts),
	}
	p := ConcatEnc(tree, a, b)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Count() != a.Count()*b.Count() {
		t.Fatalf("product count %d, want %d", p.Count(), a.Count()*b.Count())
	}
}

// DropNode removes exactly one leaf column and keeps everything else.
func TestEncDropLeaf(t *testing.T) {
	e := quickEnc(3)
	for seed := int64(4); e == nil; seed++ {
		e = quickEnc(seed)
	}
	// Find a leaf node index.
	leaf := -1
	var leafNode *ftree.Node
	for ni := 0; ni < e.NodeCount(); ni++ {
		if len(e.Kids(ni)) == 0 {
			leaf, leafNode = ni, e.Node(ni)
		}
	}
	if leaf < 0 {
		t.Skip("no leaf")
	}
	nt := e.Tree // DropNode contract: tree already mutated by the caller
	if err := nt.RemoveLeaf(leafNode); err != nil {
		t.Fatal(err)
	}
	d := e.DropNode(nt, leaf)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.NodeCount() != e.NodeCount()-1 {
		t.Fatalf("node count %d, want %d", d.NodeCount(), e.NodeCount()-1)
	}
}
