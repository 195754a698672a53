package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/fbuild"
	"repro/internal/fplan"
	"repro/internal/frep"
	"repro/internal/ftree"
	"repro/internal/gen"
	"repro/internal/opt"
	"repro/internal/relation"
)

// Exp6Row is one point of Experiment 6: factorised single-pass aggregation
// versus enumerate-then-fold over the same factorised result.
type Exp6Row struct {
	Workload    string // "retailer" or "chain"
	Scale       int    // retailer scale factor / chain length
	FRepSize    int64  // singletons in the factorised result
	Tuples      int64  // tuples of the (never materialised) flat result
	Groups      int
	FactMS      float64 // one pass over the representation
	FoldMS      float64 // enumerate the flat result, fold per tuple
	FoldSkipped bool    // flat result too large to enumerate
	Speedup     float64 // FoldMS / FactMS (0 when skipped)
}

// FoldAggregate is the enumerate-then-fold baseline: it enumerates the
// flat relation tuple by tuple (over the encoded representation's
// constant-delay iterator) and folds every aggregate — what a consumer
// without factorised aggregation is forced to do. Exact (no saturation);
// used as the reference by Experiment 6 and the aggregate benchmarks.
func FoldAggregate(fr *frep.Enc, groupBy []relation.Attribute, specs []frep.AggSpec) []frep.AggRow {
	schema := fr.Schema()
	pos := map[relation.Attribute]int{}
	for i, a := range schema {
		pos[a] = i
	}
	gcols := make([]int, len(groupBy))
	for i, a := range groupBy {
		gcols[i] = pos[a]
	}
	acols := make([]int, len(specs))
	for i, s := range specs {
		if s.Fn != frep.AggCount {
			acols[i] = pos[s.Attr]
		}
	}
	type state struct {
		key  []relation.Value
		cnt  int64
		sum  []int64
		m    []int64
		mSet []bool
		dist []map[relation.Value]struct{}
	}
	groups := map[string]*state{}
	keybuf := make([]byte, 8*len(groupBy))
	fr.Enumerate(func(t relation.Tuple) bool {
		for i, c := range gcols {
			v := uint64(t[c])
			for b := 0; b < 8; b++ {
				keybuf[8*i+b] = byte(v >> (8 * b))
			}
		}
		k := string(keybuf)
		s, ok := groups[k]
		if !ok {
			s = &state{
				key: make([]relation.Value, len(groupBy)), sum: make([]int64, len(specs)),
				m: make([]int64, len(specs)), mSet: make([]bool, len(specs)),
				dist: make([]map[relation.Value]struct{}, len(specs)),
			}
			for i, c := range gcols {
				s.key[i] = t[c]
			}
			groups[k] = s
		}
		s.cnt++
		for i, sp := range specs {
			switch sp.Fn {
			case frep.AggCount:
			case frep.AggSum:
				s.sum[i] += int64(t[acols[i]])
			case frep.AggMin:
				if v := int64(t[acols[i]]); !s.mSet[i] || v < s.m[i] {
					s.m[i], s.mSet[i] = v, true
				}
			case frep.AggMax:
				if v := int64(t[acols[i]]); !s.mSet[i] || v > s.m[i] {
					s.m[i], s.mSet[i] = v, true
				}
			case frep.AggCountDistinct:
				if s.dist[i] == nil {
					s.dist[i] = map[relation.Value]struct{}{}
				}
				s.dist[i][t[acols[i]]] = struct{}{}
			}
		}
		return true
	})
	rows := make([]frep.AggRow, 0, len(groups))
	for _, s := range groups {
		row := frep.AggRow{Key: s.key, Vals: make([]int64, len(specs))}
		for i, sp := range specs {
			switch sp.Fn {
			case frep.AggCount:
				row.Vals[i] = s.cnt
			case frep.AggSum:
				row.Vals[i] = s.sum[i]
			case frep.AggMin, frep.AggMax:
				row.Vals[i] = s.m[i]
			case frep.AggCountDistinct:
				row.Vals[i] = int64(len(s.dist[i]))
			}
		}
		rows = append(rows, row)
	}
	sortAggRows(rows)
	return rows
}

func sortAggRows(rows []frep.AggRow) {
	// Same order as Enc.Aggregate: lexicographic on the key values.
	sort.Slice(rows, func(i, j int) bool { return aggKeyLess(rows[i].Key, rows[j].Key) })
}

func aggKeyLess(a, b []relation.Value) bool {
	for k := range a {
		if a[k] != b[k] {
			return a[k] < b[k]
		}
	}
	return false
}

// Exp6Config parameterises one Experiment 6 measurement.
type Exp6Config struct {
	Scale   int   // retailer scale factor / chain length
	MaxFold int64 // skip the fold leg above this many flat tuples
}

// RetailerQuery builds the scaled retailer workload: Orders ⋈item Stock
// ⋈location Disp with heavy many-to-many links, the analytics shape of the
// examples. Result tuples grow cubically with the scale while the
// factorised size stays quasi-linear.
func RetailerQuery(rng *rand.Rand, scale int) *core.Query {
	const (
		items     = 50
		locations = 40
	)
	orders := relation.New("Orders", relation.Schema{"o_oid", "o_item"})
	for i := 0; i < 500*scale; i++ {
		orders.Append(relation.Value(i+1), relation.Value(rng.Intn(items)+1))
	}
	orders.Dedup()
	stock := relation.New("Stock", relation.Schema{"s_location", "s_item"})
	for i := 0; i < 200*scale; i++ {
		stock.Append(relation.Value(rng.Intn(locations)+1), relation.Value(rng.Intn(items)+1))
	}
	stock.Dedup()
	disp := relation.New("Disp", relation.Schema{"d_dispatcher", "d_location"})
	for i := 0; i < 100*scale; i++ {
		disp.Append(relation.Value(rng.Intn(120)+1), relation.Value(rng.Intn(locations)+1))
	}
	disp.Dedup()
	return &core.Query{
		Relations: []*relation.Relation{orders, stock, disp},
		Equalities: []core.Equality{
			{A: "o_item", B: "s_item"},
			{A: "s_location", B: "d_location"},
		},
	}
}

// Experiment6Retailer measures grouped aggregation (per-location order
// count, oid sum and distinct items) on the retailer join.
func Experiment6Retailer(rng *rand.Rand, cfg Exp6Config) (Exp6Row, error) {
	q := RetailerQuery(rng, cfg.Scale)
	groupBy := []relation.Attribute{"s_location"}
	specs := []frep.AggSpec{
		{Fn: frep.AggCount},
		{Fn: frep.AggSum, Attr: "o_oid"},
		{Fn: frep.AggCountDistinct, Attr: "o_item"},
	}
	return experiment6(q, "retailer", cfg, groupBy, specs)
}

// Experiment6Chain measures grouped aggregation on the chain query of
// Example 6 (length = cfg.Scale): the flat result grows exponentially with
// the chain length, so enumerate-then-fold falls off a cliff the
// factorised pass never sees.
func Experiment6Chain(rng *rand.Rand, cfg Exp6Config) (Exp6Row, error) {
	n := cfg.Scale
	q := gen.ChainQuery(rng, n, 100, 20)
	groupBy := []relation.Attribute{"A1"}
	specs := []frep.AggSpec{
		{Fn: frep.AggCount},
		{Fn: frep.AggSum, Attr: relation.Attribute(fmt.Sprintf("B%d", n))},
	}
	return experiment6(q, "chain", cfg, groupBy, specs)
}

// BuildRep compiles q (optimal f-tree search, then the Prepare-time lift
// of the group-by attributes above everything else) and builds its
// factorised representation in the arena-backed encoding — the engine's
// hot path since the columnar refactor.
func BuildRep(q *core.Query, groupBy []relation.Attribute) (*frep.Enc, error) {
	tr, err := liftedTree(q, groupBy)
	if err != nil {
		return nil, err
	}
	return fbuild.BuildEnc(cloneRels(q.Relations), tr)
}

// liftedTree finds the optimal f-tree for q and lifts the group-by
// attributes above everything else, as the query compiler does at Prepare
// time.
func liftedTree(q *core.Query, groupBy []relation.Attribute) (*ftree.T, error) {
	tr, _, err := opt.OptimalFTree(q.Classes(), q.Schemas(), opt.TreeSearchOptions{})
	if err != nil {
		return nil, err
	}
	if len(groupBy) > 0 {
		if err := (fplan.Lift{Attrs: groupBy}).ApplyTree(tr); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// experiment6 runs one measurement: optimal f-tree, lift of the group-by
// attributes (as the query compiler does at Prepare time), one build, then
// both aggregation strategies over the same representation.
func experiment6(q *core.Query, workload string, cfg Exp6Config, groupBy []relation.Attribute, specs []frep.AggSpec) (Exp6Row, error) {
	row := Exp6Row{Workload: workload, Scale: cfg.Scale}
	fr, err := BuildRep(q, groupBy)
	if err != nil {
		return row, err
	}
	row.FRepSize = int64(fr.Size())
	row.Tuples = fr.Count()

	start := time.Now()
	fact, err := fr.Aggregate(groupBy, specs)
	if err != nil {
		return row, err
	}
	row.FactMS = float64(time.Since(start).Microseconds()) / 1000
	row.Groups = len(fact)

	if cfg.MaxFold > 0 && row.Tuples > cfg.MaxFold {
		row.FoldSkipped = true
		return row, nil
	}
	start = time.Now()
	fold := FoldAggregate(fr, groupBy, specs)
	row.FoldMS = float64(time.Since(start).Microseconds()) / 1000
	if row.FactMS > 0 {
		row.Speedup = row.FoldMS / row.FactMS
	}
	// Sanity: both strategies must agree exactly.
	if len(fact) != len(fold) {
		return row, fmt.Errorf("bench: aggregation mismatch: %d vs %d groups", len(fact), len(fold))
	}
	for i := range fact {
		for j := range fact[i].Key {
			if fact[i].Key[j] != fold[i].Key[j] {
				return row, fmt.Errorf("bench: aggregation key mismatch at row %d: %v vs %v",
					i, fact[i].Key, fold[i].Key)
			}
		}
		for j := range fact[i].Vals {
			if fact[i].Vals[j] != fold[i].Vals[j] {
				return row, fmt.Errorf("bench: aggregation mismatch in group %v: %v vs %v",
					fact[i].Key, fact[i].Vals, fold[i].Vals)
			}
		}
	}
	return row, nil
}
