// Package frep implements factorised representations (f-representations,
// Definition 1 of the paper) stored structurally against their f-tree
// (Definition 2). Each f-tree node corresponds, at every position in the
// data, to a union: a value-sorted list of entries, one child union per
// f-tree child. The top level holds one union per f-tree root (their
// product). Enc stores all of them in flat, arena-backed columns.
//
// The representation maintains two invariants from Section 3:
//
//   - order: the values of every union are strictly increasing;
//   - reduction: every non-root union is non-empty (an empty union would
//     annihilate its enclosing product, so the enclosing entry is removed
//     instead; emptiness can therefore only surface at the roots).
package frep

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ftree"
	"repro/internal/relation"
)

const maxInt64 = int64(^uint64(0) >> 1)

// SatMul multiplies saturating at math.MaxInt64 — exported so the public
// layer's size accounting clips the same way the representation measures do.
func SatMul(a, b int64) int64 { return satMul(a, b) }

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > maxInt64/b {
		return maxInt64
	}
	return a * b
}

func satAdd(a, b int64) int64 {
	if a > maxInt64-b {
		return maxInt64
	}
	return a + b
}

// Schema returns the visible attributes in canonical enumeration order:
// depth-first over the f-tree, attributes within a node in sorted order,
// roots left to right.
func (e *Enc) Schema() relation.Schema {
	var out relation.Schema
	var walk func(n *ftree.Node)
	walk = func(n *ftree.Node) {
		for _, a := range n.Attrs {
			if !e.Tree.Hidden.Has(a) {
				out = append(out, a)
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, r := range e.Tree.Roots {
		walk(r)
	}
	return out
}

// String renders the representation in the paper's notation, e.g.
// ⟨item:2⟩×(⟨oid:1⟩∪⟨oid:3⟩). Values print numerically; use StringDict for
// dictionary-decoded output.
func (e *Enc) String() string { return e.render(nil) }

// StringDict renders with values decoded through d.
func (e *Enc) StringDict(d *relation.Dict) string { return e.render(d) }

func (e *Enc) render(d *relation.Dict) string {
	if e.IsEmpty() {
		return "∅"
	}
	var parts []string
	for _, ri := range e.ti.roots {
		parts = append(parts, e.renderUnion(ri, 0, d))
	}
	if len(parts) == 0 {
		return "⟨⟩"
	}
	return strings.Join(parts, " × ")
}

func (e *Enc) renderUnion(ni, u int, d *relation.Dict) string {
	lo, hi := e.UnionSpan(ni, u)
	vals := e.Vals(ni)
	terms := make([]string, 0, hi-lo)
	for j := lo; j < hi; j++ {
		var b strings.Builder
		for i, a := range e.ti.nodes[ni].Attrs {
			if i > 0 {
				b.WriteString("×")
			}
			val := fmt.Sprintf("%d", int64(vals[j]))
			if d != nil {
				val = d.Decode(vals[j])
			}
			fmt.Fprintf(&b, "⟨%s:%s⟩", a, val)
		}
		for _, ci := range e.ti.kids[ni] {
			b.WriteString("×")
			b.WriteString(e.renderUnion(ci, int(j), d))
		}
		terms = append(terms, b.String())
	}
	s := strings.Join(terms, " ∪ ")
	if hi-lo > 1 {
		return "(" + s + ")"
	}
	return s
}

// FromRelation builds the unique f-representation of rel over t
// (Definition 2). The relation's schema must include every attribute of t;
// attributes of the same class must agree on every tuple. If rel does not
// factorise over t (the conditional-independence structure of t does not
// hold in the data, cf. Example 3), an error is returned.
func FromRelation(t *ftree.T, rel *relation.Relation) (*Enc, error) {
	for a := range t.Attrs() {
		if !rel.Schema.Contains(a) {
			return nil, fmt.Errorf("frep: tree attribute %q not in relation schema", a)
		}
	}
	r := rel.Clone()
	r.Dedup()
	if r.Cardinality() == 0 {
		return NewEmptyEnc(t), nil
	}
	b := NewEncBuilder(t)
	// emit groups rows by the class value of node ni and emits one entry per
	// group, recursing into the children over the group's rows. Groups are
	// contiguous after the sort, so each child may re-sort them in place.
	var emit func(ni int, rows []relation.Tuple) error
	emit = func(ni int, rows []relation.Tuple) error {
		n := b.ti.nodes[ni]
		cols := make([]int, len(n.Attrs))
		for i, a := range n.Attrs {
			cols[i] = r.Schema.Index(a)
		}
		for _, tu := range rows {
			for _, c := range cols[1:] {
				if tu[c] != tu[cols[0]] {
					return fmt.Errorf("frep: class %v has unequal values in tuple %v", n.Attrs, tu)
				}
			}
		}
		col := cols[0]
		sort.SliceStable(rows, func(i, j int) bool { return rows[i][col] < rows[j][col] })
		for lo := 0; lo < len(rows); {
			hi := lo
			for hi < len(rows) && rows[hi][col] == rows[lo][col] {
				hi++
			}
			b.Append(ni, rows[lo][col])
			for _, ci := range b.ti.kids[ni] {
				if err := emit(ci, rows[lo:hi]); err != nil {
					return err
				}
				b.CloseUnion(ci)
			}
			lo = hi
		}
		return nil
	}
	for _, ri := range b.ti.roots {
		if err := emit(ri, r.Tuples); err != nil {
			return nil, err
		}
		b.CloseUnion(ri)
	}
	e := b.Finish()
	// The grouping above always represents a superset of rel (the product
	// closure); it is exact iff the tuple counts agree.
	if e.Count() != int64(r.Cardinality()) {
		return nil, fmt.Errorf("frep: relation does not factorise over the given f-tree (represented %d tuples, relation has %d)",
			e.Count(), r.Cardinality())
	}
	return e, nil
}
