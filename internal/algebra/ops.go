package algebra

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/tag"
	"repro/internal/value"
)

// Sizer is implemented by iterators that can bound their cardinality up
// front: SizeHint returns an upper bound on the rows the stream will yield,
// or -1 when unknown. Consumers use it to pre-size result buffers; it is a
// hint, never a contract.
type Sizer interface{ SizeHint() int }

// sizeHint reports it's SizeHint when it implements Sizer, else -1.
func sizeHint(it any) int {
	if s, ok := it.(Sizer); ok {
		return s.SizeHint()
	}
	return -1
}

// Collect drains a batch stream into a relation and stops the stream
// however the drain ends. The rows of one batch share one fresh cell slab,
// so a query allocates per batch rather than per row; each row is a
// capacity-capped window of the slab, so appending to one never writes
// into the next. The tuple slice is pre-sized when the stream can bound its
// cardinality (Sizer).
func Collect(it BatchIterator) (*relation.Relation, error) {
	defer stopIfStopper(it)
	out := relation.New(it.Schema())
	if hint := sizeHint(it); hint > 0 {
		out.Tuples = make([]relation.Tuple, 0, hint)
	}
	b := getBatch(DefaultBatchSize)
	defer putBatch(b)
	for {
		ok, err := it.NextBatch(b)
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		n, w := b.Len(), len(b.cols)
		slab := make([]relation.Cell, n*w)
		for i := 0; i < n; i++ {
			p := int(b.phys(i))
			cells := slab[i*w : (i+1)*w : (i+1)*w]
			for c := range cells {
				cells[c] = b.cols[c].Cell(p)
			}
			out.Tuples = append(out.Tuples, relation.Tuple{Cells: cells})
		}
	}
}

// ---- Relation source ----

type relScan struct {
	rel  *relation.Relation
	size int
	pos  int
}

// NewRelationScan streams an in-memory relation as batches of up to size
// rows (DefaultBatchSize when size < 1), transposed into the consumer's own
// column buffers. The planner runs it over no rows in place of an access
// path whose filter can never be true, and the aggregates emit their result
// rows through it.
func NewRelationScan(r *relation.Relation, size int) BatchIterator {
	if size < 1 {
		size = DefaultBatchSize
	}
	return &relScan{rel: r, size: size}
}

func (s *relScan) Schema() *schema.Schema { return s.rel.Schema }

func (s *relScan) SizeHint() int { return len(s.rel.Tuples) }

func (s *relScan) NextBatch(b *Batch) (bool, error) {
	n := min(s.size, len(s.rel.Tuples)-s.pos)
	if n <= 0 {
		return false, nil
	}
	cols := b.ownedCols(len(s.rel.Schema.Attrs))
	for _, t := range s.rel.Tuples[s.pos : s.pos+n] {
		for j := range cols {
			cols[j].appendCell(t.Cells[j])
		}
	}
	s.pos += n
	b.setOwned(cols, n)
	return true, nil
}

// ---- Project ----

// ProjectItem is one output column of a projection: an expression and its
// output name. Plain column references keep their cell tags and sources;
// computed expressions produce derived cells per the package rules.
type ProjectItem struct {
	Expr Expr
	As   string
}

// projection is the bound core of BatchProject: per item either a plain
// column copy (col >= 0) or a compiled evaluator with its contributing
// columns precomputed (walking the expression per row to find them would
// dominate the per-row cost).
type projection struct {
	items []ProjectItem
	cols  []int // bound ColRef index for plain copies, -1 for computed
	evals []Compiled
	refs  [][]int // ReferencedCols per computed item
	out   *schema.Schema
}

// bindProjection binds the items against the input schema, fills default
// output names, and derives the output schema. Output attribute kinds are
// inferred from the input schema for plain column references and left as
// KindNull (wildcard) for computed expressions.
func bindProjection(inSchema *schema.Schema, items []ProjectItem) (*projection, error) {
	p := &projection{
		items: items,
		cols:  make([]int, len(items)),
		evals: make([]Compiled, len(items)),
		refs:  make([][]int, len(items)),
	}
	attrs := make([]schema.Attr, len(items))
	for i, it := range items {
		if err := it.Expr.Bind(inSchema); err != nil {
			return nil, err
		}
		name := it.As
		if name == "" {
			if cr, ok := it.Expr.(*ColRef); ok {
				name = cr.Name
			} else {
				name = "col" + strconv.Itoa(i+1)
			}
			items[i].As = name
		}
		if cr, ok := it.Expr.(*ColRef); ok {
			src, _ := inSchema.Attr(cr.Name)
			attrs[i] = schema.Attr{Name: name, Kind: src.Kind, Indicators: src.Indicators, Doc: src.Doc}
			p.cols[i] = cr.idx
			continue
		}
		attrs[i] = schema.Attr{Name: name, Kind: value.KindNull}
		p.cols[i] = -1
		p.evals[i] = Compile(it.Expr)
		p.refs[i] = ReferencedCols(it.Expr)
	}
	out, err := schema.New(inSchema.Name, attrs)
	if err != nil {
		return nil, err
	}
	p.out = out
	return p, nil
}

// deriveCell builds a derived cell from the contributing input cells: tags
// are folded with Intersect (only tags unanimous across every contributing
// cell survive) and source sets are unioned (the polygen rule).
func deriveCell(v value.Value, t relation.Tuple, cols []int) relation.Cell {
	out := relation.Cell{V: v}
	for i, c := range cols {
		cell := t.Cells[c]
		if i == 0 {
			out.Tags = cell.Tags
			out.Sources = cell.Sources
		} else {
			out.Tags = tag.Intersect(out.Tags, cell.Tags)
			out.Sources = out.Sources.Union(cell.Sources)
		}
	}
	return out
}

// ---- Joins ----

// JoinSchema concatenates two schemas the way the join operator does,
// qualifying colliding column names with the source relation name
// ("rel_col"). Planners use it to compute a join's output schema without
// instantiating the join: NewBatchHashJoin produces exactly this schema for
// the same inputs.
func JoinSchema(l, r *schema.Schema) (*schema.Schema, error) {
	seen := map[string]bool{}
	for _, a := range l.Attrs {
		seen[a.Name] = true
	}
	attrs := append([]schema.Attr(nil), l.Attrs...)
	for _, a := range r.Attrs {
		name := a.Name
		if seen[name] {
			name = r.Name + "_" + a.Name
			if seen[name] {
				return nil, fmt.Errorf("algebra: cannot disambiguate column %q in join", a.Name)
			}
		}
		seen[name] = true
		na := a
		na.Name = name
		attrs = append(attrs, na)
	}
	return schema.New(l.Name+"_"+r.Name, attrs)
}

// ---- Distinct ----

type distinct struct {
	in BatchIterator
	// The kept rows' values, back to back, found through byHash — a
	// value hash's first kept row, chained through next.
	vals   []value.Value
	next   []int32
	byHash map[uint64]int32
	row    []value.Value
}

// NewDistinct drops every row whose application values repeat an earlier
// row's, refining each batch's selection vector as BatchSelect does: the
// first occurrence survives with its own tags and sources. Provenance does
// not take part — two rows with the same data but different provenance are
// duplicates under set semantics. Rows match when their values' QQL
// literals do, found through a value hash as the grouped aggregate finds
// its groups.
func NewDistinct(in BatchIterator) BatchIterator {
	return &distinct{in: in, byHash: make(map[uint64]int32), row: make([]value.Value, len(in.Schema().Attrs))}
}

func (d *distinct) Schema() *schema.Schema { return d.in.Schema() }

func (d *distinct) Stop() { stopIfStopper(d.in) }

func (d *distinct) NextBatch(b *Batch) (bool, error) {
	for {
		ok, err := d.in.NextBatch(b)
		if err != nil || !ok {
			return false, err
		}
		// Refine in place: the write index never passes the read index.
		sel := b.selBuf[:0]
		w := len(d.row)
		for i := 0; i < b.Len(); i++ {
			p := b.phys(i)
			h := uint64(w)
			for c := range d.row {
				d.row[c] = b.cols[c].Vals[p]
				h = (h ^ d.row[c].Hash()) * 1099511628211
			}
			first, ok := d.byHash[h]
			if !ok {
				first = -1
			}
			k := first
			for k >= 0 && !value.SameLiterals(d.row, d.vals[int(k)*w:int(k)*w+w]) {
				k = d.next[k]
			}
			if k >= 0 {
				continue
			}
			d.byHash[h] = int32(len(d.next))
			d.next = append(d.next, first)
			d.vals = append(d.vals, d.row...)
			sel = append(sel, p)
		}
		b.selBuf = sel
		if len(sel) > 0 {
			b.sel = sel
			return true, nil
		}
	}
}

// ---- Aggregation ----

// AggFunc enumerates the aggregate functions.
type AggFunc uint8

// Aggregate functions.
const (
	AggCount AggFunc = iota
	AggSum
	AggAvg
	AggMin
	AggMax
)

var aggNames = [...]string{"COUNT", "SUM", "AVG", "MIN", "MAX"}

// AggSpec is one aggregate output: Fn over Arg (nil Arg means COUNT(*)).
type AggSpec struct {
	Fn  AggFunc
	Arg Expr
	As  string
}

type aggState struct {
	count    int64
	sum      float64
	sumI     int64
	isInt    bool
	min      value.Value
	max      value.Value
	cell     relation.Cell
	seenCell bool
}

// appendAggStates appends n zeroed accumulator states to dst.
func appendAggStates(dst []aggState, n int) []aggState {
	for range n {
		dst = append(dst, aggState{isInt: true, min: value.Null, max: value.Null})
	}
	return dst
}

// aggInput reads one aggregate's argument and its provenance per row: a
// plain column straight off its vector, anything else through the compiled
// argument over the sink's scratch row.
type aggInput struct {
	col  int // bound column of a ColRef argument; -1 otherwise
	eval Compiled
	refs []int // the argument's contributing columns
}

// newAggInputs prepares the inputs of bound aggregates, adding the columns
// computed arguments read to rowRefs.
func newAggInputs(aggs []AggSpec, rowRefs *refSet) []aggInput {
	ins := make([]aggInput, len(aggs))
	for i := range aggs {
		ins[i].col = -1
		switch arg := aggs[i].Arg.(type) {
		case nil:
		case *ColRef:
			ins[i].col = arg.idx
		default:
			ins[i].refs = ReferencedCols(arg)
			rowRefs.add(ins[i].refs)
			ins[i].eval = Compile(arg)
		}
	}
	return ins
}

// fold folds physical slot p of b into st, the state of aggregate a. t is
// the slot's scratch row, which only a computed argument reads. Provenance
// folds across every row — null arguments included — exactly like derived
// cells elsewhere: tags intersect, sources union.
func (in *aggInput) fold(st *aggState, a *AggSpec, b *Batch, p int32, t relation.Tuple, ctx *EvalContext) error {
	if a.Arg == nil {
		st.count++
		return nil
	}
	if in.col >= 0 {
		c := &b.cols[in.col]
		var tags tag.Set
		var srcs tag.Sources
		if int(p) < len(c.Tags) {
			tags = c.Tags[p]
		}
		if int(p) < len(c.Srcs) {
			srcs = c.Srcs[p]
		}
		st.foldProv(tags, srcs)
		st.foldValue(c.Vals[p])
		return nil
	}
	v, err := in.eval(t, ctx)
	if err != nil {
		return err
	}
	if len(in.refs) > 0 {
		dc := deriveCell(value.Null, t, in.refs)
		st.foldProv(dc.Tags, dc.Sources)
	}
	st.foldValue(v)
	return nil
}

// foldProv folds one row's argument provenance into the state. A fold that
// would change nothing — the accumulated tags already a subset of the
// row's, its sources already covering the row's — is skipped: sets are
// immutable, so keeping the accumulator is the same result without the
// allocation.
func (st *aggState) foldProv(tags tag.Set, srcs tag.Sources) {
	if !st.seenCell {
		st.cell.Tags, st.cell.Sources, st.seenCell = tags, srcs, true
		return
	}
	if !st.cell.Tags.SubsetOf(tags) {
		st.cell.Tags = tag.Intersect(st.cell.Tags, tags)
	}
	if !st.cell.Sources.Covers(srcs) {
		st.cell.Sources = st.cell.Sources.Union(srcs)
	}
}

// foldValue folds one row's non-COUNT(*) argument value into the state.
func (st *aggState) foldValue(v value.Value) {
	if v.IsNull() {
		return
	}
	st.count++
	if v.Kind() != value.KindInt {
		st.isInt = false
	}
	if v.Numeric() {
		st.sum += v.AsFloat()
		st.sumI += v.AsInt()
	}
	if st.min.IsNull() || value.LessPtr(&v, &st.min) {
		st.min = v
	}
	if st.max.IsNull() || value.LessPtr(&st.max, &v) {
		st.max = v
	}
}

// finish computes the aggregate's output value from the folded state.
func (st *aggState) finish(fn AggFunc) value.Value {
	switch fn {
	case AggCount:
		return value.Int(st.count)
	case AggSum:
		if st.count == 0 {
			return value.Null
		}
		if st.isInt {
			return value.Int(st.sumI)
		}
		return value.Float(st.sum)
	case AggAvg:
		if st.count == 0 {
			return value.Null
		}
		return value.Float(st.sum / float64(st.count))
	case AggMin:
		return st.min
	case AggMax:
		return st.max
	default:
		panic(fmt.Sprintf("algebra: unknown aggregate %v", fn))
	}
}

// bindAggSpecs binds aggregate arguments against the input schema and fills
// default output names; shared by the global and grouped aggregates so both
// produce identical output columns.
func bindAggSpecs(inS *schema.Schema, aggs []AggSpec) error {
	for i := range aggs {
		if aggs[i].Arg != nil {
			if err := aggs[i].Arg.Bind(inS); err != nil {
				return err
			}
		}
		if aggs[i].As == "" {
			if aggs[i].Arg != nil {
				aggs[i].As = strings.ToLower(aggNames[aggs[i].Fn]) + "_" + aggs[i].Arg.String()
			} else {
				aggs[i].As = "count"
			}
		}
	}
	return nil
}

// aggOutputSchema derives an aggregation's output schema — group key
// columns (named by their expression strings unless the key is a plain
// column) followed by the aggregate columns — shared by the global and
// grouped aggregates so both produce identical output relations. groupBy
// and aggs must already be bound.
func aggOutputSchema(inS *schema.Schema, groupBy []Expr, aggs []AggSpec) (*schema.Schema, error) {
	attrs := make([]schema.Attr, 0, len(groupBy)+len(aggs))
	for i, g := range groupBy {
		name := g.String()
		kind := value.KindNull
		if cr, ok := g.(*ColRef); ok {
			name = cr.Name
			if a, ok := inS.Attr(cr.Name); ok {
				kind = a.Kind
			}
		} else if strings.ContainsAny(name, " @.()'") {
			name = fmt.Sprintf("group%d", i+1)
		}
		attrs = append(attrs, schema.Attr{Name: name, Kind: kind})
	}
	for _, a := range aggs {
		attrs = append(attrs, schema.Attr{Name: a.As, Kind: value.KindNull})
	}
	return schema.New(inS.Name+"_agg", attrs)
}

// ---- Sort ----

// SortKey orders by an expression, descending when Desc.
type SortKey struct {
	Expr Expr
	Desc bool
}

type sortOp struct {
	in    BatchIterator
	keys  []SortKey
	evals []Compiled
	refs  []int // the columns the keys read
	ctx   *EvalContext
	size  int

	// Set by the first NextBatch: the drained input in vectors the sort
	// owns (n slots), the stable permutation ordering them, and the next
	// window's start in it.
	filled bool
	cols   []ColVec
	n      int
	perm   []int32
	pos    int
}

// NewSort orders a batch stream by the keys, stably. The first NextBatch
// drains the input, copying the viewed columns of every live slot into
// vectors the sort owns, and computes each row's keys with the compiled
// evaluators; every call then emits a window of up to size rows (the
// default when size < 1) whose selection vector is a slice of the sorted
// permutation over those vectors. Nothing the windows alias is pooled, so
// a window stays valid after the sort is stopped.
func NewSort(in BatchIterator, keys []SortKey, ctx *EvalContext, size int) (BatchIterator, error) {
	if size < 1 {
		size = DefaultBatchSize
	}
	s := &sortOp{in: in, keys: keys, ctx: ctx, size: size, evals: make([]Compiled, len(keys))}
	var refs refSet
	for i, k := range keys {
		if err := k.Expr.Bind(in.Schema()); err != nil {
			return nil, err
		}
		s.evals[i] = Compile(k.Expr)
		refs.add(ReferencedCols(k.Expr))
	}
	s.refs = refs.cols
	return s, nil
}

func (s *sortOp) Schema() *schema.Schema { return s.in.Schema() }

func (s *sortOp) SizeHint() int { return sizeHint(s.in) }

// Stop drops the sorted vectors and stops the input; a window already
// delivered keeps what it aliases alive.
func (s *sortOp) Stop() {
	s.filled = true
	s.cols, s.perm = nil, nil
	stopIfStopper(s.in)
}

func (s *sortOp) NextBatch(b *Batch) (bool, error) {
	if !s.filled {
		if err := s.fill(); err != nil {
			s.Stop()
			return false, err
		}
	}
	if s.pos >= len(s.perm) {
		s.Stop()
		return false, nil
	}
	hi := min(s.pos+s.size, len(s.perm))
	b.cols, b.n, b.sel = s.cols, s.n, s.perm[s.pos:hi:hi]
	s.pos = hi
	return true, nil
}

// fill drains the input, then computes the keys row by row — so an input
// error surfaces before any key error — and orders the rows.
func (s *sortOp) fill() error {
	s.filled = true
	s.cols = make([]ColVec, len(s.in.Schema().Attrs))
	in := getBatch(s.size)
	defer putBatch(in)
	for {
		ok, err := s.in.NextBatch(in)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		for i := 0; i < in.Len(); i++ {
			p := int(in.phys(i))
			for c := range s.cols {
				if len(in.cols[c].Vals) > 0 { // an unviewed column stays empty
					s.cols[c].appendFrom(&in.cols[c], p)
				}
			}
		}
		s.n += in.Len()
	}
	nk := len(s.keys)
	keys := make([]value.Value, s.n*nk)
	all := &Batch{n: s.n, cols: s.cols}
	for r := range s.n {
		var t relation.Tuple
		if len(s.refs) > 0 {
			t = all.scratchRowAt(int32(r), s.refs)
		}
		for j, eval := range s.evals {
			v, err := eval(t, s.ctx)
			if err != nil {
				return err
			}
			keys[r*nk+j] = v
		}
	}
	s.perm = make([]int32, s.n)
	for i := range s.perm {
		s.perm[i] = int32(i)
	}
	sort.SliceStable(s.perm, func(x, y int) bool {
		kx, ky := keys[int(s.perm[x])*nk:], keys[int(s.perm[y])*nk:]
		for j, k := range s.keys {
			c := value.ComparePtr(&kx[j], &ky[j])
			if k.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	return nil
}
