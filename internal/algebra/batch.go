package algebra

import (
	"slices"
	"sync"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/tag"
	"repro/internal/value"
)

// This file is the execution engine: batch-at-a-time iterators that move
// column vectors instead of rows. A batch is a window of column runs — for
// table scans the runs alias the heap's immutable per-segment column
// storage, so a scan→select→project pipeline touches only the columns the
// query names and never materializes a row. BatchIterator is the engine's
// one stream interface, from the scans to the sort, distinct and limit at
// the top of a plan; Collect turns the final stream into rows.

// DefaultBatchSize is the rows-per-batch the engine uses unless a caller
// asks otherwise: large enough to amortize per-batch dispatch to
// noise, small enough that a batch's column windows stay cache-resident.
const DefaultBatchSize = 1024

// ColVec is one column of a batch: a window of values plus the optional
// quality-metadata runs riding alongside. Tags/Srcs/Meta are either empty
// (no cell in the window carries that metadata) or value-aligned. Vectors
// may alias producer-owned storage — segment column runs, an upstream
// buffer — and are read-only for consumers.
type ColVec struct {
	Vals []value.Value
	Tags []tag.Set
	Srcs []tag.Sources
	Meta []map[string]tag.Set
}

// Cell materializes slot off as a relation.Cell.
func (v *ColVec) Cell(off int) relation.Cell {
	c := relation.Cell{V: v.Vals[off]}
	if off < len(v.Tags) {
		c.Tags = v.Tags[off]
	}
	if off < len(v.Srcs) {
		c.Sources = v.Srcs[off]
	}
	if off < len(v.Meta) {
		c.Meta = v.Meta[off]
	}
	return c
}

// appendCell appends one cell to the vector. Metadata runs stay absent
// until the first cell that carries them, then are zero-backfilled so they
// remain value-aligned — mirroring the heap's column-run layout.
func (v *ColVec) appendCell(c relation.Cell) {
	off := len(v.Vals)
	v.Vals = append(v.Vals, c.V)
	if len(v.Tags) > 0 || !c.Tags.IsEmpty() {
		v.Tags = append(padTo(v.Tags, off), c.Tags)
	}
	if len(v.Srcs) > 0 || len(c.Sources) > 0 {
		v.Srcs = append(padTo(v.Srcs, off), c.Sources)
	}
	if len(v.Meta) > 0 || len(c.Meta) > 0 {
		v.Meta = append(padTo(v.Meta, off), c.Meta)
	}
}

// appendFrom appends slot i of src, as appendCell(src.Cell(i)) would,
// without assembling the cell.
func (v *ColVec) appendFrom(src *ColVec, i int) {
	off := len(v.Vals)
	v.Vals = append(v.Vals, src.Vals[i])
	if len(v.Tags) > 0 || i < len(src.Tags) && !src.Tags[i].IsEmpty() {
		var t tag.Set
		if i < len(src.Tags) {
			t = src.Tags[i]
		}
		v.Tags = append(padTo(v.Tags, off), t)
	}
	if len(v.Srcs) > 0 || i < len(src.Srcs) && len(src.Srcs[i]) > 0 {
		var s tag.Sources
		if i < len(src.Srcs) {
			s = src.Srcs[i]
		}
		v.Srcs = append(padTo(v.Srcs, off), s)
	}
	if len(v.Meta) > 0 || i < len(src.Meta) && len(src.Meta[i]) > 0 {
		var m map[string]tag.Set
		if i < len(src.Meta) {
			m = src.Meta[i]
		}
		v.Meta = append(padTo(v.Meta, off), m)
	}
}

// padTo extends s with zero values to length n.
func padTo[T any](s []T, n int) []T {
	var zero T
	for len(s) < n {
		s = append(s, zero)
	}
	return s
}

// reset empties the vector for refilling, keeping backing capacity.
func (v *ColVec) reset() {
	v.Vals = v.Vals[:0]
	v.Tags = v.Tags[:0]
	v.Srcs = v.Srcs[:0]
	v.Meta = v.Meta[:0]
}

// release drops the vector's references so pooled buffers never pin heap
// segments or result values.
func (v *ColVec) release() {
	clear(v.Vals[:cap(v.Vals)])
	clear(v.Tags[:cap(v.Tags)])
	clear(v.Srcs[:cap(v.Srcs)])
	clear(v.Meta[:cap(v.Meta)])
	v.reset()
}

// Batch is one unit of batch data flow: n row slots of column
// vectors plus an optional selection vector listing the live slots in
// order. Vectors may alias producer-owned storage (segment column runs, an
// upstream buffer) and are valid only until the next NextBatch call on the
// producer. Consumers must treat them as read-only — batch pipelines run
// over shared, zero-clone segment reads.
//
// Producers must never deliver vectors (or a selection) aliasing a
// *pooled* batch's storage: batchLimit stops its producer eagerly once the
// quota fills, which returns the producer's pooled buffers to the global
// pool while the consumer is still reading the final batch — a buffer
// another goroutine may immediately pick up and overwrite. Delivered data
// may alias only immutable heap runs, the consumer's own batch, or
// producer-owned unpooled arrays.
type Batch struct {
	n    int
	cols []ColVec
	sel  []int32
	// base is the row ID of slot 0 when the batch comes straight from a
	// table scan (RowID).
	base storage.RowID

	// colBuf and selBuf are the batch's owned backing storage, reused
	// across refills; producers that materialize columns (the relation
	// source, computed projections, the join) fill colBuf, filters fill
	// selBuf.
	// scratch is the reusable row for scalar expression evaluation over
	// column slots (scratchRowAt).
	colBuf  []ColVec
	selBuf  []int32
	scratch []relation.Cell
}

// Len reports the number of live rows in the batch.
func (b *Batch) Len() int {
	if b.sel != nil {
		return len(b.sel)
	}
	return b.n
}

// phys maps the i-th live row to its physical slot offset.
func (b *Batch) phys(i int) int32 {
	if b.sel != nil {
		return b.sel[i]
	}
	return int32(i)
}

// RowID returns the row ID of the i-th live row of a batch that a table or
// index scan delivered (through renames only); it means nothing for any
// other batch.
func (b *Batch) RowID(i int) storage.RowID { return b.base + storage.RowID(b.phys(i)) }

// FillRow copies columns cols of the i-th live row (selection applied) into
// cells, indexed by column; the cells stay valid past the batch's
// lifetime. Every column in cols must be one the producer filled.
func (b *Batch) FillRow(i int, cols []int, cells []relation.Cell) {
	p := int(b.phys(i))
	for _, c := range cols {
		cells[c] = b.cols[c].Cell(p)
	}
}

// scratchRowAt assembles physical slot p as a row in the batch's scratch
// buffer, filling only the referenced columns — sufficient for any bound
// evaluator, since evaluators read exactly their ReferencedCols. The tuple
// aliases the scratch buffer and is valid until the next call.
func (b *Batch) scratchRowAt(p int32, refs []int) relation.Tuple {
	w := len(b.cols)
	if cap(b.scratch) < w {
		b.scratch = make([]relation.Cell, w)
	}
	cells := b.scratch[:w]
	for _, c := range refs {
		cells[c] = b.cols[c].Cell(int(p))
	}
	return relation.Tuple{Cells: cells}
}

// reset detaches the batch from any producer storage.
func (b *Batch) reset() { b.n, b.cols, b.sel, b.base = 0, nil, nil, 0 }

// truncate narrows the batch to its live rows [lo, hi). A dense batch
// gains an identity selection — the column windows themselves may alias
// producer storage and are never re-sliced.
func (b *Batch) truncate(lo, hi int) {
	if b.sel != nil {
		b.sel = b.sel[lo:hi]
		return
	}
	sel := b.selBuf[:0]
	for i := lo; i < hi; i++ {
		sel = append(sel, int32(i))
	}
	b.selBuf = sel
	b.sel = sel
}

// ownedCols returns the batch's owned column buffer resized to width w,
// each vector emptied for appending.
func (b *Batch) ownedCols(w int) []ColVec {
	for len(b.colBuf) < w {
		b.colBuf = append(b.colBuf, ColVec{})
	}
	cols := b.colBuf[:w]
	for i := range cols {
		cols[i].reset()
	}
	return cols
}

// setOwned publishes n dense rows from the batch's own column buffer.
func (b *Batch) setOwned(cols []ColVec, n int) {
	b.cols, b.n, b.sel = cols, n, nil
}

// batchPool recycles batch buffers across plans. Batches hold column
// buffers a kilorow long; recycling them keeps the engine's hot path
// allocation-free once warm.
var batchPool = sync.Pool{New: func() any { return &Batch{} }}

// getBatch fetches a pooled batch with selection capacity for size rows.
func getBatch(size int) *Batch {
	if size < 1 {
		size = 1
	}
	b := batchPool.Get().(*Batch)
	if cap(b.selBuf) < size {
		b.selBuf = make([]int32, 0, size)
	}
	b.reset()
	return b
}

// putBatch returns a batch to the pool, dropping its column references so
// a pooled buffer never pins heap segments or result values.
func putBatch(b *Batch) {
	if b == nil {
		return
	}
	for i := range b.colBuf {
		b.colBuf[i].release()
	}
	clear(b.scratch)
	b.reset()
	batchPool.Put(b)
}

// BatchIterator is the pull-based batch stream the batch operators
// implement. NextBatch refills b — columns, selection, possibly aliasing
// storage owned by the producer and valid until the next call — and
// reports false at end of stream. A delivered batch always has at least
// one live row. Iterators holding buffers or background resources also
// implement Stopper; an exhausted or errored iterator has released its own
// resources already, and Stop is idempotent.
type BatchIterator interface {
	Schema() *schema.Schema
	NextBatch(b *Batch) (bool, error)
}

// stopIfStopper releases x's resources when it is a Stopper.
func stopIfStopper(x any) {
	if s, ok := x.(Stopper); ok {
		s.Stop()
	}
}

// ---- Batch rename ----

type batchRename struct {
	in  BatchIterator
	out *schema.Schema
}

// NewBatchRename renames the stream's relation.
func NewBatchRename(in BatchIterator, relName string) BatchIterator {
	s := in.Schema().Clone()
	s.Name = relName
	return &batchRename{in: in, out: s}
}

func (r *batchRename) Schema() *schema.Schema           { return r.out }
func (r *batchRename) SizeHint() int                    { return sizeHint(r.in) }
func (r *batchRename) NextBatch(b *Batch) (bool, error) { return r.in.NextBatch(b) }
func (r *batchRename) Stop()                            { stopIfStopper(r.in) }

// ---- Batch select ----

type batchSelect struct {
	in      BatchIterator
	filters []filter
}

// NewBatchSelect keeps the rows whose predicate is definitely true,
// refining each batch's selection vector in place (Batch.refine) — columns
// are not copied or compacted, the vector just skips the losers. The
// planner runs it only above a join: a table's filters run inside its scan.
func NewBatchSelect(in BatchIterator, pred Expr, ctx *EvalContext) (BatchIterator, error) {
	fs, err := compileFilters([]Expr{pred}, in.Schema(), ctx)
	if err != nil {
		return nil, err
	}
	return &batchSelect{in: in, filters: fs}, nil
}

func (s *batchSelect) Schema() *schema.Schema { return s.in.Schema() }

func (s *batchSelect) Stop() { stopIfStopper(s.in) }

func (s *batchSelect) NextBatch(b *Batch) (bool, error) {
	for {
		ok, err := s.in.NextBatch(b)
		if err != nil || !ok {
			return false, err
		}
		if err := b.refine(s.filters); err != nil {
			return false, err
		}
		if len(b.sel) > 0 {
			return true, nil
		}
	}
}

// ---- Batch project ----

type batchProject struct {
	in        BatchIterator
	proj      *projection
	ctx       *EvalContext
	size      int
	allPlain  bool
	unionRefs []int
	hdrs      []ColVec
	buf       *Batch // pooled input batch, released on exhaustion/Stop
	stopped   bool
}

// NewBatchProject projects batches. Output attribute kinds are inferred
// from the input schema for plain column references and left as KindNull
// (wildcard) for computed expressions. A projection of plain column
// references is free: the output batch just re-points at the input's
// column vectors in output order, keeping the input's selection.
// Projections with computed items materialize dense output columns whose
// cells are derived from the columns each item reads (deriveCell).
func NewBatchProject(in BatchIterator, items []ProjectItem, ctx *EvalContext, size int) (BatchIterator, error) {
	proj, err := bindProjection(in.Schema(), items)
	if err != nil {
		return nil, err
	}
	if size < 1 {
		size = DefaultBatchSize
	}
	p := &batchProject{in: in, proj: proj, ctx: ctx, size: size, allPlain: !slices.Contains(proj.cols, -1)}
	if !p.allPlain {
		var refs refSet
		for i, c := range proj.cols {
			if c >= 0 {
				refs.add([]int{c})
			} else {
				refs.add(proj.refs[i])
			}
		}
		p.unionRefs = refs.cols
	}
	return p, nil
}

func (p *batchProject) Schema() *schema.Schema { return p.proj.out }

func (p *batchProject) SizeHint() int { return sizeHint(p.in) }

// Stop releases the input batch back to the pool and stops the producer.
func (p *batchProject) Stop() {
	p.stopped = true
	if p.buf != nil {
		putBatch(p.buf)
		p.buf = nil
	}
	stopIfStopper(p.in)
}

func (p *batchProject) NextBatch(b *Batch) (bool, error) {
	if p.stopped {
		return false, nil
	}
	if p.allPlain {
		// A plain-reference projection is free: drive the consumer's own
		// batch through the input and re-point the headers in output order.
		// No pooled project buffer is involved, so the delivered vectors
		// alias only what the producer put in b (heap runs, b's own
		// buffers) — a downstream Stop may release this operator while the
		// consumer is still reading the batch.
		ok, err := p.in.NextBatch(b)
		if err != nil || !ok {
			p.Stop()
			return false, err
		}
		if p.hdrs == nil {
			p.hdrs = make([]ColVec, len(p.proj.cols))
		}
		for i, c := range p.proj.cols {
			p.hdrs[i] = b.cols[c]
		}
		b.cols = p.hdrs
		return true, nil
	}
	if p.buf == nil {
		p.buf = getBatch(p.size)
	}
	ok, err := p.in.NextBatch(p.buf)
	if err != nil || !ok {
		p.Stop()
		return false, err
	}
	n := p.buf.Len()
	out := b.ownedCols(len(p.proj.items))
	for i := 0; i < n; i++ {
		pp := p.buf.phys(i)
		var t relation.Tuple
		if len(p.unionRefs) > 0 {
			t = p.buf.scratchRowAt(pp, p.unionRefs)
		}
		for j := range p.proj.items {
			if col := p.proj.cols[j]; col >= 0 {
				out[j].appendCell(p.buf.cols[col].Cell(int(pp)))
				continue
			}
			v, err := p.proj.evals[j](t, p.ctx)
			if err != nil {
				p.Stop()
				return false, err
			}
			out[j].appendCell(deriveCell(v, t, p.proj.refs[j]))
		}
	}
	b.setOwned(out, n)
	return true, nil
}

// ---- Batch limit ----

type batchLimit struct {
	in      BatchIterator
	limit   int
	offset  int
	emitted int
	skipped int
	done    bool
}

// NewBatchLimit emits at most limit rows after skipping offset (negative
// limit means unlimited), trimming batches at the boundaries. Once the
// limit is reached the producer is stopped immediately, so upstream batch
// buffers are released before the final batch is even consumed; a filled
// quota — LIMIT 0 from the start — pulls nothing more.
func NewBatchLimit(in BatchIterator, limit, offset int) BatchIterator {
	return &batchLimit{in: in, limit: limit, offset: offset}
}

func (l *batchLimit) Schema() *schema.Schema { return l.in.Schema() }

func (l *batchLimit) SizeHint() int {
	hint := sizeHint(l.in)
	if l.limit >= 0 && (hint < 0 || l.limit < hint) {
		return l.limit
	}
	return hint
}

func (l *batchLimit) Stop() {
	l.done = true
	stopIfStopper(l.in)
}

func (l *batchLimit) NextBatch(b *Batch) (bool, error) {
	if l.done || l.limit >= 0 && l.skipped >= l.offset && l.emitted >= l.limit {
		l.Stop()
		return false, nil
	}
	for {
		ok, err := l.in.NextBatch(b)
		if err != nil || !ok {
			l.Stop()
			return false, err
		}
		n := b.Len()
		if l.skipped < l.offset {
			skip := l.offset - l.skipped
			if skip >= n {
				l.skipped += n
				continue
			}
			l.skipped = l.offset
			b.truncate(skip, n)
			n -= skip
		}
		if l.limit >= 0 {
			remain := l.limit - l.emitted
			if remain <= 0 {
				l.Stop()
				return false, nil
			}
			if n > remain {
				b.truncate(0, remain)
				n = remain
			}
		}
		l.emitted += n
		if l.limit >= 0 && l.emitted >= l.limit {
			// Stop eagerly: the delivered batch stays valid (its vectors
			// alias heap column runs or the consumer's own buffer, never the
			// producer's pooled storage).
			l.Stop()
		}
		return true, nil
	}
}

// ---- Aggregate sinks ----

// sink is an aggregate over its input. It drains the input on its first
// NextBatch, never at build — so a plan that is only explained reads
// nothing — and then streams the result rows.
type sink struct {
	in    BatchIterator
	out   *schema.Schema
	size  int
	drain func(b *Batch) ([]relation.Tuple, error)
	rows  BatchIterator // the result, once drained
	done  bool          // stopped, or drained
}

func newSink(in BatchIterator, out *schema.Schema, size int, drain func(b *Batch) ([]relation.Tuple, error)) *sink {
	if size < 1 {
		size = DefaultBatchSize
	}
	return &sink{in: in, out: out, size: size, drain: drain}
}

func (s *sink) Schema() *schema.Schema { return s.out }

// Stop stops the input; the result rows, if drained, stay readable.
func (s *sink) Stop() {
	s.done = true
	stopIfStopper(s.in)
}

func (s *sink) NextBatch(b *Batch) (bool, error) {
	if s.rows == nil {
		if s.done {
			return false, nil
		}
		in := getBatch(s.size)
		rows, err := s.drain(in)
		putBatch(in)
		s.Stop()
		if err != nil {
			return false, err
		}
		s.rows = NewRelationScan(&relation.Relation{Schema: s.out, Tuples: rows}, s.size)
	}
	return s.rows.NextBatch(b)
}

// NewBatchAggregate computes global (ungrouped) aggregates over a batch
// stream, draining it on the first pull and yielding the single result row
// — one row even over an empty input. Result cells carry tags intersected
// and sources unioned across their inputs. COUNT(*)-only aggregations
// never touch the columns at all: each batch contributes its length.
// Grouped aggregation lives in aggbatch.go.
func NewBatchAggregate(in BatchIterator, aggs []AggSpec, ctx *EvalContext, size int) (BatchIterator, error) {
	inS := in.Schema()
	if err := bindAggSpecs(inS, aggs); err != nil {
		return nil, err
	}
	outS, err := aggOutputSchema(inS, nil, aggs)
	if err != nil {
		return nil, err
	}
	var rowRefs refSet
	args := newAggInputs(aggs, &rowRefs)
	countOnly := true
	for i := range aggs {
		if aggs[i].Arg != nil {
			countOnly = false
		}
	}
	return newSink(in, outS, size, func(b *Batch) ([]relation.Tuple, error) {
		states := appendAggStates(nil, len(aggs))
		for {
			ok, err := in.NextBatch(b)
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			n := b.Len()
			if countOnly {
				for i := range states {
					states[i].count += int64(n)
				}
				continue
			}
			for r := 0; r < n; r++ {
				p := b.phys(r)
				var t relation.Tuple
				if len(rowRefs.cols) > 0 {
					t = b.scratchRowAt(p, rowRefs.cols)
				}
				for i := range aggs {
					if err := args[i].fold(&states[i], &aggs[i], b, p, t, ctx); err != nil {
						return nil, err
					}
				}
			}
		}
		cells := make([]relation.Cell, 0, len(aggs))
		for i, a := range aggs {
			c := states[i].cell
			c.V = states[i].finish(a.Fn)
			cells = append(cells, c)
		}
		return []relation.Tuple{{Cells: cells}}, nil
	}), nil
}
