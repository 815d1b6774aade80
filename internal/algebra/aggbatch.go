package algebra

import (
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/relation"
	"repro/internal/value"
)

// NewBatchGroupedAggregate groups a batch stream by the groupBy
// expressions and computes the aggregates per group. Output columns are
// the group keys (named by their expression strings unless the key is a
// plain column, see aggOutputSchema) followed by the aggregates. Two rows
// share a group exactly when their keys' QQL literals match (so Int(1) and
// Float(1) share one, Int(1) and Bool(true) or +0 and -0 do not), and
// groups come out in sorted order of their joined key literals; each keeps
// its first-seen key cells, and aggregate cells carry tags intersected and
// sources unioned across their inputs. Groups are found by a hash of the
// key values and confirmed by sameLiteral, so no key string is built per
// row: each group's literal is built once, for the final sort. Plain-column
// and indicator (col@ind) group keys and plain-column aggregate arguments
// read straight off the column vectors; computed expressions evaluate over
// a scratch row holding only their referenced columns. The input is
// drained on the first pull, and the groups stream out as batches of up to
// size rows.
func NewBatchGroupedAggregate(in BatchIterator, groupBy []Expr, aggs []AggSpec, ctx *EvalContext, size int) (BatchIterator, error) {
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

	var rowRefs refSet
	keys := make([]groupKey, len(groupBy))
	for i, g := range groupBy {
		keys[i] = groupKey{col: -1}
		switch e := g.(type) {
		case *ColRef:
			keys[i].col = e.idx
		case *IndRef:
			keys[i].col, keys[i].ind = e.idx, e.Indicator
		default:
			keys[i].refs = ReferencedCols(g)
			rowRefs.add(keys[i].refs)
			keys[i].eval = Compile(g)
		}
	}
	args := newAggInputs(aggs, &rowRefs)

	return newSink(in, outS, size, func(b *Batch) ([]relation.Tuple, error) {
		// Groups live in flat slices, nk key values and na states apiece, and
		// are found through byHash: a key hash's first group, chained through
		// next.
		nk, na := len(keys), len(aggs)
		var (
			keyVals  []value.Value
			keyCells []relation.Cell
			states   []aggState
			next     []int32
			byHash   = make(map[uint64]int32)
		)

		row := make([]value.Value, nk)
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
				if len(rowRefs.cols) > 0 {
					t = b.scratchRowAt(p, rowRefs.cols)
				}
				h := uint64(len(keys))
				for i := range keys {
					v, err := keys[i].at(b, p, t, ctx)
					if err != nil {
						return nil, err
					}
					row[i] = v
					h = (h ^ v.Hash()) * 1099511628211
				}
				first, ok := byHash[h]
				if !ok {
					first = -1
				}
				g := first
				for g >= 0 && !sameLiterals(row, keyVals[int(g)*nk:int(g)*nk+nk]) {
					g = next[g]
				}
				if g < 0 {
					g = int32(len(next))
					next = append(next, first)
					byHash[h] = g
					keyVals = append(keyVals, row...)
					for i := range keys {
						keyCells = append(keyCells, keys[i].cell(b, p, t, row[i]))
					}
					states = appendAggStates(states, na)
				}
				st := states[int(g)*na : int(g)*na+na]
				for i := range aggs {
					if err := args[i].fold(&st[i], &aggs[i], b, p, t, ctx); err != nil {
						return nil, err
					}
				}
			}
		}
		ng := len(next)
		if nk == 0 && ng == 0 {
			// Global aggregate over an empty input still yields one row.
			states = appendAggStates(states, na)
			ng = 1
		}
		// Order the groups by their joined key literals, built once per group.
		lits := make([]string, ng)
		var kb strings.Builder
		for g := range lits {
			kb.Reset()
			for i, v := range keyVals[g*nk : g*nk+nk] {
				if i > 0 {
					kb.WriteByte(0)
				}
				kb.WriteString(v.Literal())
			}
			lits[g] = kb.String()
		}
		order := make([]int, ng)
		for g := range order {
			order[g] = g
		}
		sort.Slice(order, func(x, y int) bool { return lits[order[x]] < lits[order[y]] })
		rows := make([]relation.Tuple, 0, ng)
		for _, g := range order {
			cells := make([]relation.Cell, 0, nk+na)
			cells = append(cells, keyCells[g*nk:g*nk+nk]...)
			for i, a := range aggs {
				st := &states[g*na+i]
				c := st.cell
				c.V = st.finish(a.Fn)
				cells = append(cells, c)
			}
			rows = append(rows, relation.Tuple{Cells: cells})
		}
		return rows, nil
	}), nil
}

// groupKey reads one group-by key per row: a plain column's value or one of
// its indicators straight off the column vector, anything else through
// its compiled evaluator over the scratch row.
type groupKey struct {
	col  int    // bound column of a ColRef or IndRef key; -1 when computed
	ind  string // the indicator of an IndRef key
	eval Compiled
	refs []int
}

// at returns the key's value at physical slot p; t is the row's scratch
// row (only a computed key reads it). A missing indicator reads as null.
func (k *groupKey) at(b *Batch, p int32, t relation.Tuple, ctx *EvalContext) (value.Value, error) {
	switch {
	case k.col < 0:
		return k.eval(t, ctx)
	case k.ind == "":
		return b.cols[k.col].Vals[p], nil
	}
	c := &b.cols[k.col]
	if int(p) >= len(c.Tags) {
		return value.Null, nil
	}
	v, _ := c.Tags[p].Get(k.ind)
	return v, nil
}

// cell builds a new group's key cell from the row that founds it: a plain
// column keeps its whole cell, anything else is derived from the columns it
// reads.
func (k *groupKey) cell(b *Batch, p int32, t relation.Tuple, v value.Value) relation.Cell {
	switch {
	case k.col < 0:
		return deriveCell(v, t, k.refs)
	case k.ind == "":
		return b.cols[k.col].Cell(int(p))
	}
	c := b.cols[k.col].Cell(int(p))
	return relation.Cell{V: v, Tags: c.Tags, Sources: c.Sources}
}

// sameLiterals reports whether two key rows' joined literals match: no
// literal contains the 0 byte outside a quoted string and a quoted string
// delimits itself, so joined literals match exactly when each pair does.
func sameLiterals(a, b []value.Value) bool {
	for i := range a {
		if !sameLiteral(&a[i], &b[i]) {
			return false
		}
	}
	return true
}

// sameLiteral reports whether a.Literal() == b.Literal() without building
// either string. Within a kind that is Equal, except that a float's sign
// of zero prints (-0 is not 0) and every NaN prints alike. Across kinds
// only an int and a float can print alike — Float(1) prints as 1 but
// Float(1e6) as 1e+06 — so that rare pair compares the two formats in
// stack buffers.
func sameLiteral(a, b *value.Value) bool {
	ka, kb := a.Kind(), b.Kind()
	if ka != kb {
		switch {
		case ka == value.KindInt && kb == value.KindFloat:
			return intPrintsAsFloat(a.AsInt(), b.AsFloat())
		case ka == value.KindFloat && kb == value.KindInt:
			return intPrintsAsFloat(b.AsInt(), a.AsFloat())
		}
		return false
	}
	if ka == value.KindFloat {
		fa, fb := a.AsFloat(), b.AsFloat()
		if math.IsNaN(fa) || math.IsNaN(fb) {
			return math.IsNaN(fa) && math.IsNaN(fb)
		}
		return fa == fb && math.Signbit(fa) == math.Signbit(fb)
	}
	return value.EqualPtr(a, b)
}

// intPrintsAsFloat reports whether Int(i) and Float(f) have the same
// literal.
func intPrintsAsFloat(i int64, f float64) bool {
	var ib, fb [32]byte
	return string(strconv.AppendInt(ib[:0], i, 10)) == string(strconv.AppendFloat(fb[:0], f, 'g', -1, 64))
}

// refSet collects the distinct columns a sink's computed expressions read,
// in first-seen order: the columns its scratch rows fill.
type refSet struct{ cols []int }

func (s *refSet) add(refs []int) {
	for _, r := range refs {
		if !slices.Contains(s.cols, r) {
			s.cols = append(s.cols, r)
		}
	}
}
