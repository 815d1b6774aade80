package algebra

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

// ---- Column scan: serial or fanned out ----

// SegPrune is one sargable conjunct (column ⊗ constant) a column scan tests
// against per-segment column min/max statistics: a segment whose value
// range cannot satisfy the conjunct is skipped without reading a single
// slot.
type SegPrune struct {
	Col int // bound schema column index
	Op  CmpOp
	K   value.Value
}

// Skips reports whether a segment whose column summarizes to st can be
// skipped: no value in [Min, Max] could make the comparison definitely
// true. A column with no non-null values (!st.OK) is always skippable —
// comparisons against null are never true. Stats are a conservative
// superset of the live values, so Skips errs toward scanning.
func (p *SegPrune) Skips(st storage.ColStats) bool {
	if !st.OK {
		return true
	}
	cmpMin := value.ComparePtr(&p.K, &st.Min)
	cmpMax := value.ComparePtr(&p.K, &st.Max)
	switch p.Op {
	case OpEq:
		return cmpMin < 0 || cmpMax > 0
	case OpNe:
		return cmpMin == 0 && cmpMax == 0
	case OpLt:
		return cmpMin <= 0 // satisfiable only when Min < K
	case OpLe:
		return cmpMin < 0
	case OpGt:
		return cmpMax >= 0 // satisfiable only when Max > K
	case OpGe:
		return cmpMax > 0
	}
	return false
}

// filter is one compiled filter of a table scan or a select: a column
// kernel when the expression has one (CompileColPred), and the compiled row
// predicate over scratch rows of refs when it has not or the kernel may ask.
type filter struct {
	kern ColPred
	pred Predicate
	refs []int
	ctx  *EvalContext
}

// compileFilters binds each expression against sch and compiles it, in
// order.
func compileFilters(exprs []Expr, sch *schema.Schema, ctx *EvalContext) ([]filter, error) {
	if len(exprs) == 0 {
		return nil, nil
	}
	fs := make([]filter, len(exprs))
	for i, e := range exprs {
		if err := e.Bind(sch); err != nil {
			return nil, err
		}
		f := &fs[i]
		f.refs, f.ctx = ReferencedCols(e), ctx
		k, defers, ok := CompileColPred(e, len(sch.Attrs), ctx)
		f.kern = k
		if !ok || defers {
			f.pred = CompilePredicate(e)
		}
	}
	return fs, nil
}

// refine narrows b's selection to the live rows that every filter keeps
// (definitely true), filter by filter: a later filter runs only on the rows
// the earlier ones kept, so it never sees — or fails on — a row an earlier
// one rejected. A kernel runs straight down the column vectors; the row
// predicate runs over a scratch row of its referenced columns, for every
// row without a kernel and for the slots a kernel asks about. Columns are
// neither copied nor compacted, and the selection is refined in place: the
// write index never passes the read index. The result is an empty non-nil
// selection when nothing survives.
func (b *Batch) refine(filters []filter) error {
	for i := range filters {
		f := &filters[i]
		kern, cols, in, n := f.kern, b.cols, b.sel, b.Len()
		sel := b.selBuf[:0]
		if sel == nil {
			sel = make([]int32, 0, n)
		}
		for j := range int32(n) {
			p := j
			if in != nil {
				p = in[j]
			}
			v := Ask
			if kern != nil {
				v = kern(cols, p)
			}
			if v == Ask {
				keep, err := f.pred(b.scratchRowAt(p, f.refs), f.ctx)
				if err != nil {
					return err
				}
				v = keepIf(keep)
			}
			if v == Keep {
				sel = append(sel, p)
			}
		}
		b.selBuf, b.sel = sel, sel
		if len(sel) == 0 {
			break
		}
	}
	return nil
}

// scanSpec is everything one segment load needs: which columns to view,
// which prunes to test and the filters. It is immutable once built and
// shared by the scan's workers, which capture it rather than the scan so an
// abandoned scan stays collectable.
type scanSpec struct {
	t       *storage.Table
	width   int   // full schema width
	cols    []int // schema columns to view: requested ∪ prune ∪ filter refs
	prunes  []SegPrune
	prAt    []int // position in cols of each prune's column
	filters []filter
}

// segLoad is one loaded segment: its view and the slots to emit. The view
// lives in the scan's capture (or, for an index probe, the scan's view
// buffer) and its runs alias the heap's immutable storage; sel and selBuf
// are recycled once the consumer has moved past the segment, so nothing
// delivered may alias them.
type segLoad struct {
	seg     int
	cs      *storage.ColSeg
	sel     []int32 // slot offsets to emit, ascending; nil = all of [0, cs.N)
	selBuf  []int32
	skipped bool // a prune refuted the segment: nothing to emit
	err     error
}

// colIndex returns the position of schema column c in sp.cols, adding it
// when absent.
func (sp *scanSpec) colIndex(c int) int {
	for i, have := range sp.cols {
		if have == c {
			return i
		}
	}
	sp.cols = append(sp.cols, c)
	return len(sp.cols) - 1
}

// viewCols points hdrs (full schema width) at slots [lo, hi) of the view's
// runs; columns the scan does not read stay empty.
func (sp *scanSpec) viewCols(hdrs []ColVec, cs *storage.ColSeg, lo, hi int) {
	clear(hdrs)
	for p, c := range sp.cols {
		r := &cs.Cols[p]
		v := ColVec{Vals: r.Vals[lo:hi]}
		if r.Tags != nil {
			v.Tags = r.Tags[lo:hi]
		}
		if r.Srcs != nil {
			v.Srcs = r.Srcs[lo:hi]
		}
		if r.Meta != nil {
			v.Meta = r.Meta[lo:hi]
		}
		hdrs[c] = v
	}
}

// load fills ls with the view cs: whether a prune refutes it and, when f is
// not nil, the selection of its live slots that the filters keep, f being
// the calling goroutine's scratch. A filter error lands in ls.err.
func (sp *scanSpec) load(cs *storage.ColSeg, ls *segLoad, f *Batch) {
	ls.cs, ls.skipped, ls.err = cs, false, nil
	for i := range sp.prunes {
		if sp.prunes[i].Skips(cs.Cols[sp.prAt[i]].Stats) {
			ls.skipped = true
			return
		}
	}
	ls.sel = cs.Sel
	if f == nil || len(sp.filters) == 0 {
		return
	}
	if len(f.colBuf) < sp.width {
		f.colBuf = make([]ColVec, sp.width)
	}
	if cap(ls.selBuf) < cs.N {
		ls.selBuf = make([]int32, 0, max(cs.N, storage.SegmentSize))
	}
	f.cols, f.n, f.sel, f.selBuf = f.colBuf[:sp.width], cs.N, cs.Sel, ls.selBuf
	sp.viewCols(f.cols, cs, 0, cs.N)
	ls.err = f.refine(sp.filters)
	ls.selBuf, ls.sel = f.selBuf, f.sel
	clear(f.cols) // drop the heap runs until the next load
	f.sel, f.selBuf = nil, nil
}

type batchColScan struct {
	sp     *scanSpec
	size   int
	nSeg   int
	degree int // ≤ 1: segments load inline and filter per window, no goroutines
	// An index scan views the segments holding its probed row IDs, ids
	// those not yet viewed, into view, instead of every segment.
	probe bool
	done  bool
	ids   []storage.RowID
	view  storage.ColSeg

	snap    []storage.ColSeg // the one capture of the table, taken on the first pull
	inline  segLoad          // the inline mode's one segment buffer
	cur     *segLoad
	next    int // next segment to take, in segment order
	pos     int // next slot offset within cur
	selPos  int // next index into cur.sel
	hdrs    []ColVec
	skipped int
	fan     *fanOut // set by start
}

// fanOut is a fanned-out scan's worker state.
type fanOut struct {
	results chan *segLoad
	free    chan *segLoad // segment buffers: a worker holds one to claim a segment
	stop    chan struct{} // closed when the consumer is finished with us
	closed  sync.Once
	pending map[int]*segLoad
	// workerSegs[w] counts segments claimed by worker w — the occupancy
	// actuals EXPLAIN ANALYZE reports. Atomics because workers race with a
	// consumer reading ExtraStats after the stream ends.
	workerSegs []atomic.Int64
	// exited is closed once every worker goroutine has returned.
	exited chan struct{}
}

// NewTableScan streams a table as column-vector batches of up to size
// rows, materializing only the requested columns (bound schema indexes) —
// every other vector in the delivered batch is empty. The vectors alias
// the heap's immutable column runs: zero rows are cloned, zero cells are
// copied, and a batch is valid only until the next NextBatch. Consumers
// must only touch requested columns.
//
// The scan reads one Table.SnapshotCols capture, taken on the first pull,
// so it sees the table at one instant: a row moved between segments while
// the scan runs is seen once. Segments whose min/max statistics refute a
// prune conjunct are skipped whole. The filters run in order — a row is
// kept only when every one is definitely true, and a later filter runs
// only on the rows the earlier ones kept. Filters must be bindable against
// t's schema and read-only after Bind (every compiled closure is); a filter
// error is terminal.
//
// degree is clamped to [1, segments]. At 1 the scan runs inline with no
// goroutines and filters each emitted window, so a consumer that stops
// early evaluates no row past its last batch. Above 1 it fans out: workers
// claim segments, test the prunes and filter whole segments into selection
// vectors, and the consumer takes them back in segment (so row-ID) order,
// emitting the same segment-aligned windows over the heap runs.
func NewTableScan(t *storage.Table, degree, size int, cols []int, prunes []SegPrune, filters []Expr, ctx *EvalContext) (BatchIterator, error) {
	s, err := newColScan(t, size, cols, prunes, filters, ctx)
	if err != nil {
		return nil, err
	}
	s.degree = max(min(degree, s.nSeg), 1)
	return s, nil
}

// NewIndexScan streams the rows of t whose target value lies in [lo, hi]
// as the inline NewTableScan does, filters included, but over the row IDs
// of one Table.Lookup instead of every segment. The target may address an
// attribute or a quality indicator (attr@indicator). Each segment holding
// probed rows is viewed zero-copy (Table.ViewRows) only when the consumer
// reaches it, with a selection of its probed rows that are still live: rows
// arrive in row-ID order, rows deleted since the probe are skipped, no row
// is cloned, and a LIMIT 1 views one segment however many rows match. The
// filters re-check every probed row, since it is read after the probe and
// may have changed.
func NewIndexScan(t *storage.Table, target storage.IndexTarget, lo, hi storage.Bound, size int, cols []int, filters []Expr, ctx *EvalContext) (BatchIterator, error) {
	ids, err := t.Lookup(target, lo, hi)
	if err != nil {
		return nil, err
	}
	s, err := newColScan(t, size, cols, nil, filters, ctx)
	if err != nil {
		return nil, err
	}
	s.probe, s.ids, s.degree = true, ids, 1
	return s, nil
}

func newColScan(t *storage.Table, size int, cols []int, prunes []SegPrune, filters []Expr, ctx *EvalContext) (*batchColScan, error) {
	if size < 1 {
		size = DefaultBatchSize
	}
	fs, err := compileFilters(filters, t.Schema(), ctx)
	if err != nil {
		return nil, err
	}
	// Prune and filter columns must be viewed too, so the scan adds any the
	// caller didn't request — to a clipped list, so that an addition copies
	// it instead of writing into the caller's array.
	sp := &scanSpec{t: t, width: len(t.Schema().Attrs), cols: slices.Clip(cols),
		prunes: prunes, filters: fs}
	if len(prunes) > 0 {
		sp.prAt = make([]int, len(prunes))
		for i, p := range prunes {
			sp.prAt[i] = sp.colIndex(p.Col)
		}
	}
	for i := range fs {
		for _, c := range fs[i].refs {
			sp.colIndex(c)
		}
	}
	return &batchColScan{sp: sp, size: size, nSeg: t.Segments(), degree: 1}, nil
}

// Stopper is implemented by iterators that hold background resources
// (worker goroutines, buffered segments). Executors should call Stop once
// the iterator will no longer be pulled — especially after a mid-stream
// error — to release those resources deterministically; an exhausted or
// errored iterator has already stopped itself, and Stop is idempotent. A
// finalizer covers abandoned iterators, but only at the next GC cycle.
type Stopper interface{ Stop() }

func (s *batchColScan) Schema() *schema.Schema { return s.sp.t.Schema() }

func (s *batchColScan) SizeHint() int {
	if s.probe {
		return len(s.ids)
	}
	if len(s.sp.filters) > 0 {
		return -1 // the filters' selectivity is unknown
	}
	return s.sp.t.Len()
}

// ExtraStats reports, for EXPLAIN ANALYZE, the segments the prunes skipped
// and, for a fanned-out scan, worker occupancy — how many segments each
// worker claimed. An even spread means the claim loop kept every worker
// busy; a skewed one means a filter or the consumer was the bottleneck.
func (s *batchColScan) ExtraStats() string {
	if s.probe {
		return "" // nothing is pruned or fanned out
	}
	if s.degree <= 1 {
		return fmt.Sprintf("segments skipped=%d of %d", s.skipped, s.nSeg)
	}
	if s.fan == nil {
		return fmt.Sprintf("workers=%d segments=unstarted", s.degree)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "workers=%d segments=[", s.degree)
	for w := range s.fan.workerSegs {
		if w > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", s.fan.workerSegs[w].Load())
	}
	fmt.Fprintf(&b, "] skipped=%d", s.skipped)
	return b.String()
}

// SegmentsSkipped reports, for a table scan, how many of the segments it
// read its prunes skipped; ok is false for any other stream, index probes
// included.
func SegmentsSkipped(it BatchIterator) (skipped, of int, ok bool) {
	s, ok := it.(*batchColScan)
	if !ok || s.probe {
		return 0, 0, false
	}
	return s.skipped, s.nSeg, true
}

// Stop ends the stream: it drops the scan's capture and its window over
// the heap, so an early-terminated scan (a filled LIMIT) releases them
// immediately, and releases the workers — one waiting for a segment buffer
// exits instead of scanning further. It also drops the finalizer: an
// object with one survives the first collection after it becomes
// unreachable, and with it everything it references, the table included,
// so a stopped scan must not keep one.
func (s *batchColScan) Stop() {
	s.done = true
	s.cur, s.hdrs, s.snap = nil, nil, nil
	s.inline, s.view = segLoad{}, storage.ColSeg{}
	if s.fan != nil {
		s.fan.pending = nil
		s.stopWorkers()
		runtime.SetFinalizer(s, nil)
	}
}

// stopWorkers is also the finalizer of a fanned-out scan abandoned
// mid-stream, so workers never scan the rest of the table for nobody.
func (s *batchColScan) stopWorkers() {
	if f := s.fan; f != nil {
		f.closed.Do(func() { close(f.stop) })
	}
}

// start launches the workers over the capture. Segments are claimed by
// atomic counter so fast workers steal work from slow ones. A worker must
// hold one of 2×degree+1 segment buffers to claim a segment, and the
// consumer returns a buffer only once it has moved past that segment:
// besides the segment the consumer is reading, at most 2×degree are in
// flight (loading, or loaded and waiting), so a slow consumer holds
// resident selections to O(degree) segments instead of the whole table. No
// deadlock is possible: segments are claimed and consumed in ascending
// order, so the lowest unconsumed segment is always either delivered or
// held by a worker that needs no further buffer. Workers capture locals
// only (not s), so an abandoned scan becomes unreachable and its finalizer
// runs stopWorkers.
func (s *batchColScan) start() {
	sp, snap, nSeg, degree := s.sp, s.snap, s.nSeg, s.degree
	bufs := min(2*degree+1, nSeg)
	f := &fanOut{
		results:    make(chan *segLoad, nSeg), // never blocks a worker
		free:       make(chan *segLoad, bufs),
		stop:       make(chan struct{}),
		pending:    make(map[int]*segLoad, bufs),
		workerSegs: make([]atomic.Int64, degree),
		exited:     make(chan struct{}),
	}
	s.fan = f
	for range bufs {
		f.free <- new(segLoad)
	}
	results, free, stop, exited := f.results, f.free, f.stop, f.exited
	var next, live atomic.Int64
	var failed atomic.Bool
	live.Store(int64(degree))
	for w := range degree {
		mySegs := &f.workerSegs[w] // capture the counter, not s (finalizer)
		go func() {
			defer func() {
				if live.Add(-1) == 0 {
					close(exited)
				}
			}()
			var scratch Batch // worker-local filter scratch
			for {
				var ls *segLoad
				select {
				case ls = <-free:
				case <-stop:
					return
				}
				seg := int(next.Add(1)) - 1
				if seg >= nSeg || failed.Load() {
					return
				}
				mySegs.Add(1)
				ls.seg = seg
				sp.load(&snap[seg], ls, &scratch)
				// Read the error before the hand-off: once sent, the
				// consumer may recycle ls to another worker's load.
				bad := ls.err != nil
				results <- ls
				if bad {
					failed.Store(true)
					return
				}
			}
		}()
	}
	runtime.SetFinalizer(s, (*batchColScan).stopWorkers)
}

// take returns the next segment in segment order — the next one holding
// probed rows for an index scan, loaded inline at degree 1, else received
// from the workers — or nil once the scan is exhausted or stopped.
func (s *batchColScan) take() (*segLoad, error) {
	if s.probe {
		if len(s.ids) == 0 {
			return nil, nil
		}
		s.ids = s.sp.t.ViewRows(s.ids, s.sp.cols, &s.view)
		s.inline.cs, s.inline.sel = &s.view, s.view.Sel
		return &s.inline, nil
	}
	if s.snap == nil {
		s.snap = s.sp.t.SnapshotCols(s.sp.cols)
		s.nSeg = len(s.snap)
	}
	if s.next >= s.nSeg {
		return nil, nil
	}
	if s.degree <= 1 {
		s.sp.load(&s.snap[s.next], &s.inline, nil)
		s.next++
		return &s.inline, nil
	}
	if s.fan == nil {
		s.start()
	}
	for {
		if ls, ok := s.fan.pending[s.next]; ok {
			delete(s.fan.pending, s.next)
			s.next++
			return ls, nil
		}
		select {
		case ls := <-s.fan.results:
			if ls.err != nil {
				return nil, ls.err
			}
			s.fan.pending[ls.seg] = ls
		case <-s.fan.stop:
			return nil, nil
		}
	}
}

// release hands a consumed segment's buffer back to the workers. Never
// blocks: buffers never outnumber the channel's capacity.
func (s *batchColScan) release(ls *segLoad) {
	if s.fan != nil {
		s.fan.free <- ls
	}
}

func (s *batchColScan) NextBatch(b *Batch) (bool, error) {
	for !s.done {
		if s.cur == nil {
			ls, err := s.take()
			if ls == nil || err != nil {
				// Terminal either way: a caller that ignores the error and
				// pulls again gets a clean end of stream instead of waiting
				// for segments the stopped workers will never deliver.
				s.Stop()
				return false, err
			}
			if ls.skipped {
				s.skipped++
				s.release(ls)
				continue
			}
			s.cur, s.pos, s.selPos = ls, 0, 0
		}
		cur := s.cur
		if cur.sel != nil {
			if s.selPos >= len(cur.sel) {
				s.pos = cur.cs.N // nothing left survives
			} else {
				s.pos = max(s.pos, int(cur.sel[s.selPos]))
			}
		}
		if s.pos >= cur.cs.N {
			s.cur = nil
			s.release(cur)
			continue
		}
		lo := s.pos
		n := min(cur.cs.N-lo, s.size)
		s.pos += n
		var sel []int32
		if cur.sel != nil {
			sel = b.selBuf[:0]
			for s.selPos < len(cur.sel) && int(cur.sel[s.selPos]) < lo+n {
				sel = append(sel, cur.sel[s.selPos]-int32(lo))
				s.selPos++
			}
			b.selBuf = sel
		}
		if s.hdrs == nil {
			s.hdrs = make([]ColVec, s.sp.width)
		}
		s.sp.viewCols(s.hdrs, cur.cs, lo, lo+n)
		b.cols, b.n, b.sel = s.hdrs, n, sel
		b.base = cur.cs.Base + storage.RowID(lo)
		if s.degree <= 1 && len(s.sp.filters) > 0 {
			// Inline: filter this window only, so a consumer that stops
			// early evaluates no row past it.
			if err := b.refine(s.sp.filters); err != nil {
				s.Stop()
				return false, err
			}
			if len(b.sel) == 0 {
				continue
			}
		}
		return true, nil
	}
	return false, nil
}

// DefaultParallelism is the fan-out degree used when a caller asks for
// parallel scanning without naming a degree: one worker per schedulable
// core.
func DefaultParallelism() int { return runtime.GOMAXPROCS(0) }
