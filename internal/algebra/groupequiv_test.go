package algebra

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/tag"
	"repro/internal/value"
)

// literalGroupedAggregate is the literal-keyed grouped aggregate that
// NewBatchGroupedAggregate replaced, kept as its oracle: every row's key is
// its joined Literal() string, and every row's provenance folds through
// tag.Intersect and Sources.Union unconditionally.
func literalGroupedAggregate(in BatchIterator, groupBy []Expr, aggs []AggSpec, ctx *EvalContext, size int) (BatchIterator, error) {
	inS := in.Schema()
	for _, g := range groupBy {
		if err := g.Bind(inS); err != nil {
			return nil, err
		}
	}
	if err := bindAggSpecs(inS, aggs); err != nil {
		return nil, err
	}
	outS, err := aggOutputSchema(inS, groupBy, aggs)
	if err != nil {
		return nil, err
	}
	var unionRefs []int
	seen := map[int]bool{}
	addRefs := func(refs []int) {
		for _, r := range refs {
			if !seen[r] {
				seen[r] = true
				unionRefs = append(unionRefs, r)
			}
		}
	}
	keyIdx := make([]int, len(groupBy))
	keyEvals := make([]Compiled, len(groupBy))
	keyRefs := make([][]int, len(groupBy))
	for i, g := range groupBy {
		keyIdx[i] = -1
		if cr, ok := g.(*ColRef); ok {
			keyIdx[i] = cr.idx
			continue
		}
		keyRefs[i] = ReferencedCols(g)
		addRefs(keyRefs[i])
		keyEvals[i] = Compile(g)
	}
	argRefs := make([][]int, len(aggs))
	evals := make([]Compiled, len(aggs))
	for i := range aggs {
		if aggs[i].Arg == nil {
			continue
		}
		argRefs[i] = ReferencedCols(aggs[i].Arg)
		addRefs(argRefs[i])
		evals[i] = Compile(aggs[i].Arg)
	}
	type group struct {
		keyCells []relation.Cell
		states   []aggState
	}
	groups := make(map[string]*group)
	var order []string
	b := new(Batch)
	keyVals := make([]value.Value, len(groupBy))
	var kb strings.Builder
	for {
		ok, err := in.NextBatch(b)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		for r := 0; r < b.Len(); r++ {
			p := b.phys(r)
			var t relation.Tuple
			if len(unionRefs) > 0 {
				t = b.scratchRowAt(p, unionRefs)
			}
			kb.Reset()
			for i := range groupBy {
				var v value.Value
				if keyIdx[i] >= 0 {
					v = b.cols[keyIdx[i]].Vals[p]
				} else if v, err = keyEvals[i](t, ctx); err != nil {
					return nil, err
				}
				keyVals[i] = v
				if i > 0 {
					kb.WriteByte(0)
				}
				kb.WriteString(v.Literal())
			}
			k := kb.String()
			gr, ok := groups[k]
			if !ok {
				keyCells := make([]relation.Cell, len(groupBy))
				for i := range groupBy {
					if keyIdx[i] >= 0 {
						keyCells[i] = b.cols[keyIdx[i]].Cell(int(p))
					} else {
						keyCells[i] = deriveCell(keyVals[i], t, keyRefs[i])
					}
				}
				gr = &group{keyCells: keyCells, states: appendAggStates(nil, len(aggs))}
				groups[k] = gr
				order = append(order, k)
			}
			for i := range aggs {
				var v value.Value
				if aggs[i].Arg != nil {
					if v, err = evals[i](t, ctx); err != nil {
						return nil, err
					}
				}
				st := &gr.states[i]
				if len(argRefs[i]) > 0 {
					dc := deriveCell(value.Null, t, argRefs[i])
					if !st.seenCell {
						st.cell, st.seenCell = dc, true
					} else {
						st.cell.Tags = tag.Intersect(st.cell.Tags, dc.Tags)
						st.cell.Sources = st.cell.Sources.Union(dc.Sources)
					}
				}
				if aggs[i].Arg == nil {
					st.count++
				} else {
					st.foldValue(v)
				}
			}
		}
	}
	if len(groupBy) == 0 && len(order) == 0 {
		groups[""] = &group{states: appendAggStates(nil, len(aggs))}
		order = append(order, "")
	}
	sort.Strings(order)
	rows := make([]relation.Tuple, 0, len(order))
	for _, k := range order {
		gr := groups[k]
		cells := append([]relation.Cell(nil), gr.keyCells...)
		for i, a := range aggs {
			c := gr.states[i].cell
			c.V = gr.states[i].finish(a.Fn)
			cells = append(cells, c)
		}
		rows = append(rows, relation.Tuple{Cells: cells})
	}
	return NewRelationScan(&relation.Relation{Schema: outS, Tuples: rows}, size), nil
}

// Value pools whose literals are hard to tell apart: kinds that compare
// Equal but print differently (Int(1), Float(1), Bool(true); 0 and -0;
// Int(1e6) and Float(1e6)), NaNs with different payloads, times a
// nanosecond apart, and strings holding quotes and 0 bytes.
var (
	equivT0   = time.Date(1991, 10, 3, 12, 0, 0, 0, time.UTC)
	equivVals = []value.Value{
		value.Null, value.Int(0), value.Int(1), value.Int(-1), value.Int(1_000_000),
		value.Float(0), value.Float(math.Copysign(0, -1)), value.Float(1), value.Float(1e6), value.Float(0.5),
		value.Float(math.Float64frombits(0x7ff8000000000001)), value.Float(math.Float64frombits(0x7ff8000000000002)),
		value.Float(math.Float64frombits(0xfff8000000000000)), value.Float(math.Inf(1)),
		value.Bool(true), value.Bool(false), value.Duration(time.Second),
		value.Time(equivT0), value.Time(equivT0.Add(time.Nanosecond)), value.Time(equivT0.Add(time.Second)),
		value.Str(""), value.Str("a"), value.Str("'"), value.Str("a'b"), value.Str("a\x00b"), value.Str("a'\x00'b"),
		value.Str("1"), value.Str("null"),
	}
	equivNums = []value.Value{
		value.Null, value.Int(0), value.Int(1), value.Int(1_000_000), value.Float(0), value.Float(math.Copysign(0, -1)),
		value.Float(1), value.Float(1e6), value.Float(math.NaN()), value.Duration(time.Second),
	}
	equivTagVals = []value.Value{value.Int(1), value.Float(1), value.Str("sales"), value.Str("estimate"), value.Float(math.Copysign(0, -1)), value.Float(0)}
	equivSrcs    = []string{"s1", "s2", "s3"}
)

// equivRel draws n rows over columns a, b, c (any kind) and d (numeric).
// Each cell may carry source and creation_time tags and polygen sources;
// with runsBare, whole runs of rows carry no tags at all, so batches lack
// the tag vector entirely.
func equivRel(r *rand.Rand, n int, runsBare bool) *relation.Relation {
	rel := relation.New(schema.MustNew("g", []schema.Attr{{Name: "a"}, {Name: "b"}, {Name: "c"}, {Name: "d"}}))
	bare := false
	for i := 0; i < n; i++ {
		if runsBare && i%7 == 0 {
			bare = r.Intn(2) == 0
		}
		cells := make([]relation.Cell, 4)
		for c := range cells {
			pool := equivVals
			if c == 3 {
				pool = equivNums
			}
			cell := relation.Cell{V: pool[r.Intn(len(pool))]}
			if !bare {
				var tags []tag.Tag
				if r.Intn(4) > 0 {
					tags = append(tags, tag.Tag{Indicator: "source", Value: equivTagVals[r.Intn(len(equivTagVals))]})
				}
				if r.Intn(2) == 0 {
					tags = append(tags, tag.Tag{Indicator: "creation_time", Value: value.Time(equivT0.Add(time.Duration(r.Intn(3)) * time.Nanosecond))})
				}
				cell.Tags = tag.NewSet(tags...)
				var srcs []string
				for _, s := range equivSrcs {
					if r.Intn(3) == 0 {
						srcs = append(srcs, s)
					}
				}
				cell.Sources = tag.NewSources(srcs...)
			}
			cells[c] = cell
		}
		rel.Tuples = append(rel.Tuples, relation.Tuple{Cells: cells})
	}
	return rel
}

// TestGroupedAggregateMatchesLiteralOracle holds the value-hashed grouped
// aggregate byte-identical, tags and sources included, to the
// literal-keyed oracle over random batches: one to three keys, indicator
// keys missing on some rows or whole runs, computed keys, and SUM, MIN,
// MAX, AVG and COUNT over plain and computed arguments of mixed
// provenance.
func TestGroupedAggregateMatchesLiteralOracle(t *testing.T) {
	col := func(n string) Expr { return &ColRef{Name: n} }
	keySets := []func() []Expr{
		func() []Expr { return []Expr{col("a")} },
		func() []Expr { return []Expr{col("a"), col("b")} },
		func() []Expr { return []Expr{col("a"), col("b"), col("c")} },
		func() []Expr { return []Expr{&IndRef{Col: "a", Indicator: "source"}} },
		func() []Expr { return []Expr{&IndRef{Col: "b", Indicator: "creation_time"}, col("d")} },
		func() []Expr { return []Expr{&Neg{E: col("d")}} },
		func() []Expr {
			return []Expr{&IsNull{E: col("a")}, &Neg{E: col("d")}, &IndRef{Col: "c", Indicator: "source"}}
		},
		func() []Expr { return []Expr{&SrcContains{Col: "c", Source: "s2"}, col("d")} },
		func() []Expr { return nil },
	}
	mkAggs := func() []AggSpec {
		return []AggSpec{
			{Fn: AggCount, As: "n"},
			{Fn: AggCount, Arg: col("b"), As: "nb"},
			{Fn: AggSum, Arg: col("d"), As: "s"},
			{Fn: AggMin, Arg: col("c"), As: "lo"},
			{Fn: AggMax, Arg: col("a"), As: "hi"},
			{Fn: AggAvg, Arg: &Neg{E: col("d")}, As: "avg"},
			{Fn: AggMax, Arg: &Cmp{Op: OpEq, L: col("a"), R: col("b")}, As: "eq"},
		}
	}
	r := rand.New(rand.NewSource(34))
	for trial := 0; trial < 24; trial++ {
		rel := equivRel(r, r.Intn(200), trial%2 == 1)
		for ki, keys := range keySets {
			for _, size := range batchSizes {
				want, err := literalGroupedAggregate(NewRelationScan(rel, size), keys(), mkAggs(), ctx(), size)
				if err != nil {
					t.Fatal(err)
				}
				got, err := NewBatchGroupedAggregate(NewRelationScan(rel, size), keys(), mkAggs(), ctx(), size)
				if err != nil {
					t.Fatal(err)
				}
				sameRelation(t, drain(t, want), drain(t, got), fmt.Sprintf("trial %d, key set %d, batch size %d", trial, ki, size))
			}
		}
	}
}

// TestSameLiteral holds sameLiteral to its definition, a.Literal() ==
// b.Literal(), over every pair of the equivalence pools.
func TestSameLiteral(t *testing.T) {
	pool := append(append(append([]value.Value(nil), equivVals...), equivNums...), equivTagVals...)
	pool = append(pool, value.Int(123456), value.Float(123456), value.Int(-7), value.Float(-7), value.Float(1e21), value.Int(1e18))
	for _, a := range pool {
		for _, b := range pool {
			if got, want := sameLiteral(&a, &b), a.Literal() == b.Literal(); got != want {
				t.Errorf("sameLiteral(%s %s, %s %s) = %v, want %v", a.Kind(), a.Literal(), b.Kind(), b.Literal(), got, want)
			}
		}
	}
}
