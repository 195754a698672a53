package frep

import (
	"sync"
	"sync/atomic"

	"repro/internal/relation"
)

// fillTable precomputes, per pre-order node, the output-buffer positions of
// the node's visible attributes.
func encFillTable(e *Enc, schema relation.Schema) [][]int {
	pos := map[relation.Attribute]int{}
	for i, a := range schema {
		pos[a] = i
	}
	fills := make([][]int, len(e.ti.nodes))
	for ni, n := range e.ti.nodes {
		for _, a := range n.Attrs {
			if p, ok := pos[a]; ok {
				fills[ni] = append(fills[ni], p)
			}
		}
	}
	return fills
}

// Enumerate calls yield for each tuple of the represented relation, in
// lexicographic order of Schema().
// The buffer passed to yield is reused; clone it to retain. Enumeration is
// pure index arithmetic over the arena: no per-entry allocation.
func (e *Enc) Enumerate(yield func(relation.Tuple) bool) {
	if e.IsEmpty() {
		return
	}
	it := NewEncIterator(e)
	for {
		t, ok := it.Next()
		if !ok {
			return
		}
		if !yield(t) {
			return
		}
	}
}

// EncIterator enumerates the tuples of an encoded representation with
// constant delay, as a resumable cursor: per node one absolute entry index
// plus the bounds of its current union — an odometer over flat arrays. The
// iterator is only valid while e is alive (Encs are immutable, so there is
// no invalidation-by-mutation hazard).
type EncIterator struct {
	e      *Enc
	schema relation.Schema
	fills  [][]int
	cur    []int32 // per node: current entry (absolute index into Vals)
	lo, hi []int32 // per node: current union span
	// rlo, rhi restrict the first pre-order node's (first root's) union to
	// entries [rlo, rhi) — the sharding hook for parallel enumeration. A
	// full iterator spans the whole union.
	rlo, rhi int32
	buf      relation.Tuple
	done     bool
	fresh    bool
}

// NewEncIterator prepares an iterator over e. Preparation is linear in the
// number of f-tree nodes; each Next is amortised constant delay.
func NewEncIterator(e *Enc) *EncIterator {
	return NewEncIteratorRange(e, 0, int32(e.NumEntries(0)))
}

// NewEncIteratorRange prepares an iterator over the tuples whose first-root
// entry lies in [lo, hi) — a contiguous slice of the enumeration order,
// since the first root is the most significant digit of the odometer.
// Concatenating the ranges [0,a), [a,b), …, [z,N) reproduces the full
// enumeration exactly; disjoint ranges can be walked concurrently (the
// iterators share only the immutable e).
func NewEncIteratorRange(e *Enc, lo, hi int32) *EncIterator {
	if lo < 0 {
		lo = 0
	}
	if n := int32(e.NumEntries(0)); hi > n {
		hi = n
	}
	it := &EncIterator{e: e, schema: e.Schema(), rlo: lo, rhi: hi}
	it.fills = encFillTable(e, it.schema)
	it.buf = make(relation.Tuple, len(it.schema))
	n := len(e.ti.nodes)
	it.cur = make([]int32, n)
	it.lo = make([]int32, n)
	it.hi = make([]int32, n)
	it.Reset()
	return it
}

// Reset rewinds the iterator to the first tuple of its range.
func (it *EncIterator) Reset() {
	it.done = it.e.IsEmpty() || it.rlo >= it.rhi
	it.fresh = !it.done
	if it.done {
		return
	}
	it.reseat(0)
}

// reseat recomputes union spans and first-entry cursors for nodes [from, n)
// in pre-order: a node's union is 0 for roots, else its parent's current
// entry (pre-order guarantees the parent is already seated). Node 0 — the
// first root — is clamped to the iterator's range.
func (it *EncIterator) reseat(from int) {
	e := it.e
	for ni := from; ni < len(e.ti.nodes); ni++ {
		u := 0
		if p := e.ti.par[ni]; p >= 0 {
			u = int(it.cur[p])
		}
		lo, hi := e.UnionSpan(ni, u)
		if ni == 0 {
			lo, hi = it.rlo, it.rhi
		}
		it.lo[ni], it.hi[ni], it.cur[ni] = lo, hi, lo
	}
}

// Next returns the next tuple, or ok = false when the enumeration is
// exhausted. The returned slice is reused across calls; clone it to retain.
func (it *EncIterator) Next() (t relation.Tuple, ok bool) {
	if it.done {
		return nil, false
	}
	from := 0
	if it.fresh {
		it.fresh = false
	} else {
		// Odometer: advance the deepest-rightmost node with entries left,
		// reseat everything after it.
		i := len(it.cur) - 1
		for ; i >= 0; i-- {
			if it.cur[i]+1 < it.hi[i] {
				it.cur[i]++
				it.reseat(i + 1)
				break
			}
		}
		if i < 0 {
			it.done = true
			return nil, false
		}
		from = i
	}
	for ni := from; ni < len(it.cur); ni++ {
		v := it.e.Vals(ni)[it.cur[ni]]
		for _, p := range it.fills[ni] {
			it.buf[p] = v
		}
	}
	return it.buf, true
}

// Schema returns the attribute order of the tuples produced by Next.
func (it *EncIterator) Schema() relation.Schema { return it.schema }

// EnumerateShards splits the enumeration into n resumable iterators over
// contiguous ranges of the first root's union, in enumeration order:
// walking shard 0, then 1, … reproduces Enumerate exactly, and disjoint
// shards are safe to drain concurrently. Shards past the available entries
// come back immediately exhausted, so callers may spawn one worker each
// without counting first.
func (e *Enc) EnumerateShards(n int) []*EncIterator {
	if n < 1 {
		n = 1
	}
	total := int32(e.NumEntries(0))
	if e.IsEmpty() {
		total = 0
	}
	out := make([]*EncIterator, n)
	for i := range out {
		out[i] = NewEncIteratorRange(e, chunkBound(total, i, n), chunkBound(total, i+1, n))
	}
	return out
}

// EnumerateParallel drains p shards with p goroutines, calling yield from
// each worker with the shard index and the reused per-shard tuple buffer
// (clone to retain). yield must be safe for concurrent calls; returning
// false stops every worker promptly. Tuples arrive in enumeration order
// within a shard, interleaved across shards.
func (e *Enc) EnumerateParallel(p int, yield func(shard int, t relation.Tuple) bool) {
	if p <= 1 {
		e.Enumerate(func(t relation.Tuple) bool { return yield(0, t) })
		return
	}
	shards := e.EnumerateShards(p)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i, it := range shards {
		wg.Add(1)
		go func(i int, it *EncIterator) {
			defer wg.Done()
			for !stop.Load() {
				t, ok := it.Next()
				if !ok {
					return
				}
				if !yield(i, t) {
					stop.Store(true)
					return
				}
			}
		}(i, it)
	}
	wg.Wait()
}
