package frep

import (
	"math/rand"
	"testing"

	"repro/internal/ftree"
	"repro/internal/relation"
)

// TestIteratorMatchesEnumerate: the pull-based iterator must produce
// exactly the represented relation, in lexicographic schema order.
func TestIteratorMatchesEnumerate(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		r := relation.New("R", relation.Schema{"A", "B", "C"})
		for i := 0; i < rng.Intn(25); i++ {
			r.Append(relation.Value(rng.Intn(3)), relation.Value(rng.Intn(3)), relation.Value(rng.Intn(3)))
		}
		r.Dedup()
		tr := randomPathTree([]relation.Attribute{"A", "B", "C"}, rng,
			[]relation.AttrSet{relation.NewAttrSet("A", "B", "C")})
		f, err := FromRelation(tr, r)
		if err != nil {
			t.Fatal(err)
		}
		// The reference is the flat relation in lexicographic schema order.
		ref := r.Project(f.Schema())
		ref.SortBy(ref.Schema)
		want := ref.Tuples
		it := NewEncIterator(f)
		if !it.Schema().Equal(f.Schema()) {
			t.Fatal("iterator schema differs")
		}
		var got []relation.Tuple
		for {
			tp, ok := it.Next()
			if !ok {
				break
			}
			got = append(got, tp.Clone())
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: iterator produced %d tuples, relation has %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].Compare(want[i]) != 0 {
				t.Fatalf("trial %d: tuple %d differs: %v vs %v", trial, i, got[i], want[i])
			}
		}
		// Exhausted iterators stay exhausted.
		if _, ok := it.Next(); ok {
			t.Fatal("iterator revived after exhaustion")
		}
		// Reset rewinds to the first tuple.
		it.Reset()
		if len(want) > 0 {
			tp, ok := it.Next()
			if !ok || tp.Compare(want[0]) != 0 {
				t.Fatalf("trial %d: reset did not rewind", trial)
			}
		}
	}
}

func TestIteratorEmpty(t *testing.T) {
	tr := ftree.New([]*ftree.Node{ftree.NewNode("A")},
		[]relation.AttrSet{relation.NewAttrSet("A")})
	f := NewEmptyEnc(tr)
	it := NewEncIterator(f)
	if _, ok := it.Next(); ok {
		t.Fatal("empty representation produced a tuple")
	}
	it.Reset()
	if _, ok := it.Next(); ok {
		t.Fatal("reset empty iterator produced a tuple")
	}
}

func TestIteratorForest(t *testing.T) {
	// Product of two independent unions: iterator must produce the full
	// cross product in lexicographic order.
	ra := relation.New("RA", relation.Schema{"A"})
	rb := relation.New("RB", relation.Schema{"B"})
	for i := 0; i < 3; i++ {
		ra.Append(relation.Value(i))
		rb.Append(relation.Value(i * 10))
	}
	forest := ftree.New(
		[]*ftree.Node{ftree.NewNode("A"), ftree.NewNode("B")},
		[]relation.AttrSet{relation.NewAttrSet("A"), relation.NewAttrSet("B")})
	f, err := FromRelation(forest, ra.Product(rb))
	if err != nil {
		t.Fatal(err)
	}
	it := NewEncIterator(f)
	count := 0
	var prev relation.Tuple
	for {
		tp, ok := it.Next()
		if !ok {
			break
		}
		if prev != nil && tp.Compare(prev) <= 0 {
			t.Fatalf("order violation: %v after %v", tp, prev)
		}
		prev = tp.Clone()
		count++
	}
	if count != 9 {
		t.Fatalf("forest iterator produced %d tuples, want 9", count)
	}
}
