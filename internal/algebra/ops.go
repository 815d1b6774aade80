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

// Iterator is the pull-based tuple stream of the row operators: the empty
// scan, the sort/project/distinct/limit tail above the batch pipeline,
// and the row side of the batch adapters.
type Iterator interface {
	// Schema describes the stream's tuples.
	Schema() *schema.Schema
	// Next returns the next tuple, or ok=false at end of stream.
	Next() (relation.Tuple, bool, error)
}

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

// Collect drains an iterator into a relation, pre-sizing the tuple slice
// when the iterator can bound its cardinality (Sizer).
func Collect(it Iterator) (*relation.Relation, error) {
	out := relation.New(it.Schema())
	if hint := sizeHint(it); hint > 0 {
		out.Tuples = make([]relation.Tuple, 0, hint)
	}
	for {
		t, ok, err := it.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out.Tuples = append(out.Tuples, t)
	}
}

// ---- Scans ----

type relScan struct {
	rel *relation.Relation
	pos int
}

// NewRelationScan streams an in-memory relation.
func NewRelationScan(r *relation.Relation) Iterator { return &relScan{rel: r} }

func (s *relScan) Schema() *schema.Schema { return s.rel.Schema }

func (s *relScan) SizeHint() int { return len(s.rel.Tuples) }

func (s *relScan) Next() (relation.Tuple, bool, error) {
	if s.pos >= len(s.rel.Tuples) {
		return relation.Tuple{}, false, nil
	}
	t := s.rel.Tuples[s.pos]
	s.pos++
	return t, true, nil
}

type emptyScan struct{ s *schema.Schema }

// NewEmptyScan is a scan of zero tuples over the given schema. The planner
// substitutes it for any access path whose simplified predicate can never
// be true, so the rest of the pipeline (projection, aggregation — a global
// COUNT over it still yields one row of 0) runs unchanged over no input.
func NewEmptyScan(s *schema.Schema) Iterator { return &emptyScan{s: s} }

func (e *emptyScan) Schema() *schema.Schema              { return e.s }
func (e *emptyScan) SizeHint() int                       { return 0 }
func (e *emptyScan) Next() (relation.Tuple, bool, error) { return relation.Tuple{}, false, nil }

// ---- Project ----

// ProjectItem is one output column of a projection: an expression and its
// output name. Plain column references keep their cell tags and sources;
// computed expressions produce derived cells per the package rules.
type ProjectItem struct {
	Expr Expr
	As   string
}

type projectOp struct {
	in   Iterator
	proj *projection
	ctx  *EvalContext
}

// projection is the bound core of a projection, shared by the row and
// batch operators: per-item either a plain column copy (col >= 0) or a
// compiled evaluator with its contributing columns precomputed (walking the
// expression per row to find them would dominate the per-row cost).
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

// row projects one input tuple into a fresh cell slice.
func (p *projection) row(t relation.Tuple, ctx *EvalContext) (relation.Tuple, error) {
	cells := make([]relation.Cell, len(p.items))
	for i := range p.items {
		if col := p.cols[i]; col >= 0 {
			cells[i] = t.Cells[col]
			continue
		}
		v, err := p.evals[i](t, ctx)
		if err != nil {
			return relation.Tuple{}, err
		}
		cells[i] = deriveCell(v, t, p.refs[i])
	}
	return relation.Tuple{Cells: cells}, nil
}

// NewProject builds a projection. Output attribute kinds are inferred from
// the input schema for plain column references and left as KindNull
// (wildcard) for computed expressions.
func NewProject(in Iterator, items []ProjectItem, ctx *EvalContext) (Iterator, error) {
	proj, err := bindProjection(in.Schema(), items)
	if err != nil {
		return nil, err
	}
	return &projectOp{in: in, proj: proj, ctx: ctx}, nil
}

func (p *projectOp) Schema() *schema.Schema { return p.proj.out }

func (p *projectOp) SizeHint() int { return sizeHint(p.in) }

func (p *projectOp) Next() (relation.Tuple, bool, error) {
	t, ok, err := p.in.Next()
	if err != nil || !ok {
		return relation.Tuple{}, false, err
	}
	out, err := p.proj.row(t, p.ctx)
	if err != nil {
		return relation.Tuple{}, false, err
	}
	return out, true, nil
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

// encodeValues produces a comparable key of the tuple's application values.
// Tags and sources deliberately do not participate: two tuples with the same
// data but different provenance are duplicates under set semantics (the
// attribute-based model resolves which provenance wins via merge policy).
func encodeValues(t relation.Tuple) string {
	var b strings.Builder
	for i, c := range t.Cells {
		if i > 0 {
			b.WriteByte(0)
		}
		b.WriteString(c.V.Literal())
	}
	return b.String()
}

type distinctOp struct {
	in   Iterator
	seen map[string]bool
}

// NewDistinct removes duplicate tuples by application values; the first
// occurrence's tags and sources are kept.
func NewDistinct(in Iterator) Iterator {
	return &distinctOp{in: in, seen: make(map[string]bool)}
}

func (d *distinctOp) Schema() *schema.Schema { return d.in.Schema() }

func (d *distinctOp) Next() (relation.Tuple, bool, error) {
	for {
		t, ok, err := d.in.Next()
		if err != nil || !ok {
			return relation.Tuple{}, false, err
		}
		k := encodeValues(t)
		if d.seen[k] {
			continue
		}
		d.seen[k] = true
		return t, true, nil
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

// ---- Sort / Limit ----

// SortKey orders by an expression, descending when Desc.
type SortKey struct {
	Expr Expr
	Desc bool
}

type sortOp struct {
	in   Iterator
	keys []SortKey
	ctx  *EvalContext
	rows []relation.Tuple
	init bool
	pos  int
	err  error
}

// NewSort materializes and orders the input (stable).
func NewSort(in Iterator, keys []SortKey, ctx *EvalContext) (Iterator, error) {
	for _, k := range keys {
		if err := k.Expr.Bind(in.Schema()); err != nil {
			return nil, err
		}
	}
	return &sortOp{in: in, keys: keys, ctx: ctx}, nil
}

func (s *sortOp) Schema() *schema.Schema { return s.in.Schema() }

func (s *sortOp) SizeHint() int { return sizeHint(s.in) }

func (s *sortOp) Next() (relation.Tuple, bool, error) {
	if !s.init {
		s.init = true
		rel, err := Collect(s.in)
		if err != nil {
			return relation.Tuple{}, false, err
		}
		s.rows = rel.Tuples
		keyVals := make([][]value.Value, len(s.rows))
		for i, t := range s.rows {
			keyVals[i] = make([]value.Value, len(s.keys))
			for j, k := range s.keys {
				v, err := k.Expr.Eval(t, s.ctx)
				if err != nil {
					return relation.Tuple{}, false, err
				}
				keyVals[i][j] = v
			}
		}
		idx := make([]int, len(s.rows))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			for j, k := range s.keys {
				c := value.ComparePtr(&keyVals[idx[a]][j], &keyVals[idx[b]][j])
				if k.Desc {
					c = -c
				}
				if c != 0 {
					return c < 0
				}
			}
			return false
		})
		sorted := make([]relation.Tuple, len(s.rows))
		for i, j := range idx {
			sorted[i] = s.rows[j]
		}
		s.rows = sorted
	}
	if s.pos >= len(s.rows) {
		return relation.Tuple{}, false, nil
	}
	t := s.rows[s.pos]
	s.pos++
	return t, true, nil
}

type limitOp struct {
	in            Iterator
	limit, offset int
	emitted       int
	skipped       int
}

// NewLimit emits at most limit tuples after skipping offset. A negative
// limit means unlimited.
func NewLimit(in Iterator, limit, offset int) Iterator {
	return &limitOp{in: in, limit: limit, offset: offset}
}

func (l *limitOp) Schema() *schema.Schema { return l.in.Schema() }

func (l *limitOp) SizeHint() int {
	hint := sizeHint(l.in)
	if l.limit >= 0 && (hint < 0 || l.limit < hint) {
		return l.limit
	}
	return hint
}

func (l *limitOp) Next() (relation.Tuple, bool, error) {
	for l.skipped < l.offset {
		_, ok, err := l.in.Next()
		if err != nil || !ok {
			return relation.Tuple{}, false, err
		}
		l.skipped++
	}
	if l.limit >= 0 && l.emitted >= l.limit {
		return relation.Tuple{}, false, nil
	}
	t, ok, err := l.in.Next()
	if err != nil || !ok {
		return relation.Tuple{}, false, err
	}
	l.emitted++
	return t, true, nil
}
