package algebra

import (
	"sort"
	"strings"

	"repro/internal/relation"
	"repro/internal/value"
)

// NewBatchGroupedAggregate groups a batch stream by the groupBy
// expressions and computes the aggregates per group. Output columns are
// the group keys (named by their expression strings unless the key is a
// plain column, see aggOutputSchema) followed by the aggregates. Groups
// come out in sorted key-literal order; each keeps its first-seen key
// cells, and aggregate cells carry tags intersected and sources unioned
// across their inputs. Plain-column group keys and aggregate arguments
// read straight off the column vectors; computed expressions evaluate over
// a scratch row holding only their referenced columns. The input is
// drained eagerly in the constructor.
func NewBatchGroupedAggregate(in BatchIterator, groupBy []Expr, aggs []AggSpec, ctx *EvalContext, size int) (Iterator, error) {
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

	if size < 1 {
		size = DefaultBatchSize
	}
	b := getBatch(size)
	defer func() {
		putBatch(b)
		stopIfStopper(in)
	}()
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
		n := b.Len()
		for r := 0; r < n; r++ {
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
				} else {
					var err error
					v, err = keyEvals[i](t, ctx)
					if err != nil {
						return nil, err
					}
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
				gr = &group{keyCells: keyCells, states: newAggStates(len(aggs))}
				groups[k] = gr
				order = append(order, k)
			}
			for i := range aggs {
				var v value.Value
				if aggs[i].Arg != nil {
					var err error
					v, err = evals[i](t, ctx)
					if err != nil {
						return nil, err
					}
				}
				gr.states[i].foldRow(&aggs[i], v, argRefs[i], t)
			}
		}
	}
	if len(groupBy) == 0 && len(order) == 0 {
		// Global aggregate over an empty input still yields one row.
		groups[""] = &group{states: newAggStates(len(aggs))}
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
	return NewRelationScan(&relation.Relation{Schema: outS, Tuples: rows}), nil
}
