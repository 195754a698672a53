package frep

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ftree"
	"repro/internal/relation"
)

// quickRel derives a small random relation over {A,B,C} from a seed.
func quickRel(seed int64) *relation.Relation {
	rng := rand.New(rand.NewSource(seed))
	r := relation.New("R", relation.Schema{"A", "B", "C"})
	for i := 0; i < rng.Intn(25); i++ {
		r.Append(relation.Value(rng.Intn(3)), relation.Value(rng.Intn(3)), relation.Value(rng.Intn(3)))
	}
	r.Dedup()
	return r
}

func quickTree(seed int64) *ftree.T {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	attrs := []relation.Attribute{"A", "B", "C"}
	rng.Shuffle(3, func(i, j int) { attrs[i], attrs[j] = attrs[j], attrs[i] })
	return randomPathTree(attrs, rng,
		[]relation.AttrSet{relation.NewAttrSet("A", "B", "C")})
}

// Property: Count always equals the exact number of enumerated tuples and
// the cardinality of the source relation.
func TestQuickCountMatchesEnumeration(t *testing.T) {
	f := func(seed int64) bool {
		r := quickRel(seed)
		fr, err := FromRelation(quickTree(seed), r)
		if err != nil {
			return false
		}
		n := int64(0)
		fr.Enumerate(func(relation.Tuple) bool { n++; return true })
		return fr.Count() == n && n == int64(r.Cardinality())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Size never exceeds the flat data-element count, and is zero
// exactly for the empty relation.
func TestQuickSizeBound(t *testing.T) {
	f := func(seed int64) bool {
		r := quickRel(seed)
		fr, err := FromRelation(quickTree(seed), r)
		if err != nil {
			return false
		}
		flat := r.Cardinality() * len(r.Schema)
		if fr.Size() > flat {
			return false
		}
		return (fr.Size() == 0) == (r.Cardinality() == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: a cloned tree is deep — a view over it may re-mark its
// attributes (as projection does) without changing the original's measures.
func TestQuickCloneIsDeep(t *testing.T) {
	f := func(seed int64) bool {
		r := quickRel(seed)
		if r.Cardinality() == 0 {
			return true
		}
		fr, err := FromRelation(quickTree(seed), r)
		if err != nil {
			return false
		}
		before := fr.Size()
		c := fr.ReTree(fr.Tree.Clone())
		c.Tree.MarkHidden(c.Tree.Attrs().Sorted())
		return c.Size() == 0 && fr.Size() == before && len(fr.Schema()) == 3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Validate accepts everything FromRelation builds.
func TestQuickFromRelationValidates(t *testing.T) {
	f := func(seed int64) bool {
		fr, err := FromRelation(quickTree(seed), quickRel(seed))
		if err != nil {
			return false
		}
		return fr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
