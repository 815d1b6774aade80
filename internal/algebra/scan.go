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
// slot. PrunableSargs extracts them from a bound predicate.
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

// scanSpec is everything one segment load needs: which columns to view,
// which prunes to test and the fused predicate. It is immutable once built
// and shared by the scan's workers, which capture it rather than the scan so
// an abandoned scan stays collectable.
type scanSpec struct {
	t      *storage.Table
	width  int   // full schema width
	cols   []int // schema columns to view: requested ∪ prune ∪ predicate refs
	prunes []SegPrune
	prAt   []int // position in cols of each prune's column
	// The fused predicate, if any: a column kernel when it has that shape,
	// and the compiled per-row predicate over scratch rows of refs when it
	// has not or the kernel may ask.
	kern ColPred
	pred Predicate
	refs []int
	ctx  *EvalContext
}

// segLoad is one loaded segment: the column view and the slots that are
// live and pass the fused predicate. The view's runs alias the heap's
// immutable storage; sel and the view's own buffers are recycled once the
// consumer has moved past the segment, so nothing delivered may alias them.
type segLoad struct {
	seg     int
	cs      storage.ColSeg
	sel     []int32 // surviving slot offsets, ascending; nil = all of [0, cs.N)
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

// load fills ls with segment seg: its view, whether a prune refutes it and,
// under a fused predicate, the selection of live slots that pass. f is the
// calling goroutine's scratch for predicate evaluation, unused without a
// predicate. A predicate error lands in ls.err.
func (sp *scanSpec) load(seg int, ls *segLoad, f *Batch) {
	ls.seg, ls.skipped, ls.err = seg, false, nil
	cs := &ls.cs
	if !sp.t.ScanSegmentCols(seg, sp.cols, cs) {
		cs.N, ls.sel = 0, nil // segments never shrink; unreachable in practice
		return
	}
	for i := range sp.prunes {
		if sp.prunes[i].Skips(cs.Cols[sp.prAt[i]].Stats) {
			ls.skipped = true
			return
		}
	}
	ls.sel = cs.Sel
	if sp.kern == nil && sp.pred == nil {
		return
	}
	if len(f.colBuf) < sp.width {
		f.colBuf = make([]ColVec, sp.width)
	}
	f.cols = f.colBuf[:sp.width]
	sp.viewCols(f.cols, cs, 0, cs.N)
	// A nil selection means "every slot", so an all-rejecting segment must
	// keep an empty non-nil one.
	out := ls.selBuf[:0]
	if out == nil || cap(out) < cs.N {
		out = make([]int32, 0, max(cs.N, storage.SegmentSize))
	}
	live := cs.Live()
	for k := 0; k < live; k++ {
		off := int32(k)
		if cs.Sel != nil {
			off = cs.Sel[k]
		}
		if sp.kern != nil {
			v := sp.kern(f.cols, off)
			if v == Keep {
				out = append(out, off)
			}
			if v != Ask {
				continue
			}
		}
		keep, err := sp.pred(f.scratchRowAt(off, sp.refs), sp.ctx)
		if err != nil {
			ls.err = err
			break
		}
		if keep {
			out = append(out, off)
		}
	}
	clear(f.cols) // drop the heap runs until the next load
	ls.selBuf, ls.sel = out, out
}

type batchColScan struct {
	sp     *scanSpec
	size   int
	nSeg   int
	degree int // ≤ 1: segments load inline, no goroutines
	// An index scan views the segments holding its probed row IDs, ids
	// those not yet viewed, instead of every segment.
	probe bool
	ids   []storage.RowID

	inline  segLoad // the serial mode's one segment buffer
	filter  *Batch  // the serial mode's predicate scratch; nil without one
	cur     *segLoad
	next    int // next segment to take, in segment order
	pos     int // next slot offset within cur
	selPos  int // next index into cur.sel
	hdrs    []ColVec
	done    bool
	skipped int

	// Fan-out state, set by start.
	started bool
	results chan *segLoad
	free    chan *segLoad // segment buffers: a worker holds one to claim a segment
	stopCh  chan struct{} // closed when the consumer is finished with us
	closed  sync.Once
	pending map[int]*segLoad
	// workerSegs[w] counts segments claimed by worker w — the occupancy
	// actuals EXPLAIN ANALYZE reports. Atomics because workers race with a
	// consumer reading ExtraStats after the stream ends.
	workerSegs []atomic.Int64
	// exited is closed once every worker goroutine has returned.
	exited chan struct{}
}

// NewBatchColScan streams a table's segments as column-vector batches of
// up to size rows, materializing only the requested columns (bound schema
// indexes) — every other vector in the delivered batch is empty. The
// vectors alias the heap's immutable column runs: zero rows are cloned,
// zero cells are copied, and a batch is valid only until the next
// NextBatch. Segments whose min/max statistics refute a prune conjunct are
// skipped whole. Consumers must only touch requested columns. Segments load
// inline, one at a time; NewParallelScan is the same scan fanned out.
func NewBatchColScan(t *storage.Table, size int, cols []int, prunes []SegPrune) BatchIterator {
	return newColScan(t, size, cols, prunes)
}

func newColScan(t *storage.Table, size int, cols []int, prunes []SegPrune) *batchColScan {
	if size < 1 {
		size = DefaultBatchSize
	}
	// Prune columns must be viewed to read their stats, so the scan adds
	// any the caller didn't request — to a clipped list, so that an
	// addition copies it instead of writing into the caller's array.
	sp := &scanSpec{t: t, width: len(t.Schema().Attrs), cols: slices.Clip(cols),
		prunes: prunes, prAt: make([]int, len(prunes))}
	for i, p := range prunes {
		sp.prAt[i] = sp.colIndex(p.Col)
	}
	return &batchColScan{sp: sp, size: size, nSeg: t.Segments(), degree: 1}
}

// NewIndexScan streams the rows of t whose target value lies in [lo, hi]
// as the serial NewBatchColScan does, but over the row IDs of one
// Table.Lookup instead of every segment. The target may address an
// attribute or a quality indicator (attr@indicator). Each segment holding
// probed rows is viewed zero-copy (Table.ViewRows) only when the consumer
// reaches it, with a selection of its probed rows that are still live: rows
// arrive in row-ID order, rows deleted since the probe are skipped, no row
// is cloned, and a LIMIT 1 views one segment however many rows match.
func NewIndexScan(t *storage.Table, target storage.IndexTarget, lo, hi storage.Bound, size int, cols []int) (BatchIterator, error) {
	ids, err := t.Lookup(target, lo, hi)
	if err != nil {
		return nil, err
	}
	s := newColScan(t, size, cols, nil)
	s.probe, s.ids = true, ids
	return s, nil
}

// NewParallelScan is NewBatchColScan fanned out across degree workers, one
// heap segment at a time, with pred (optional) fused into the workers. Each
// worker views only the scan's columns, tests the prunes and runs pred over
// its segment into a selection vector — as a column kernel when pred has
// one (CompileColPred), else per live row over scratch rows. The consumer
// takes segments back in segment (so row-ID) order and emits the same
// segment-aligned windows over the heap runs as the serial scan: no cell is
// copied on either side. pred must be bindable against t's schema;
// evaluation must be read-only after Bind (every compiled closure is). A
// predicate error is terminal. degree is clamped to [1, segments]; at 1
// the scan runs inline with no goroutines.
func NewParallelScan(t *storage.Table, degree, size int, cols []int, prunes []SegPrune, pred Expr, ctx *EvalContext) (BatchIterator, error) {
	s := newColScan(t, size, cols, prunes)
	if pred != nil {
		if err := pred.Bind(t.Schema()); err != nil {
			return nil, err
		}
		sp := s.sp
		sp.ctx, sp.refs = ctx, ReferencedCols(pred)
		for _, c := range sp.refs {
			sp.colIndex(c)
		}
		k, defers, ok := CompileColPred(pred, sp.width, ctx)
		sp.kern = k
		if !ok || defers {
			sp.pred = CompilePredicate(pred)
		}
		s.filter = new(Batch)
	}
	s.degree = max(min(degree, s.nSeg), 1)
	return s, nil
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
	if s.sp.kern != nil || s.sp.pred != nil {
		return -1 // the fused predicate's selectivity is unknown
	}
	return s.sp.t.Len()
}

// ExtraStats reports, for EXPLAIN ANALYZE, the segments the prunes skipped
// and, for a fanned-out scan, worker occupancy — how many segments each
// worker claimed. An even spread means the claim loop kept every worker
// busy; a skewed one means a fused predicate or the consumer was the
// bottleneck.
func (s *batchColScan) ExtraStats() string {
	if s.probe {
		return "" // nothing is pruned or fanned out
	}
	if s.degree <= 1 {
		return fmt.Sprintf("segments skipped=%d of %d", s.skipped, s.nSeg)
	}
	if s.workerSegs == nil {
		return fmt.Sprintf("workers=%d segments=unstarted", s.degree)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "workers=%d segments=[", s.degree)
	for w := range s.workerSegs {
		if w > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d", s.workerSegs[w].Load())
	}
	fmt.Fprintf(&b, "] skipped=%d", s.skipped)
	return b.String()
}

// Stop ends the stream: it drops the scan's window over the heap, so an
// early-terminated scan (a filled LIMIT) releases it immediately, and
// releases the workers — one waiting for a segment buffer exits instead of
// scanning further. It also drops the finalizer: an object with one
// survives the first collection after it becomes unreachable, and with it
// everything it references, the table included, so a stopped scan must not
// keep one.
func (s *batchColScan) Stop() {
	s.done = true
	s.cur, s.hdrs, s.pending = nil, nil, nil
	s.inline = segLoad{}
	s.stopWorkers()
	if s.started {
		runtime.SetFinalizer(s, nil)
	}
}

// stopWorkers is also the finalizer of a fanned-out scan abandoned
// mid-stream, so workers never scan the rest of the table for nobody.
func (s *batchColScan) stopWorkers() {
	if s.started {
		s.closed.Do(func() { close(s.stopCh) })
	}
}

// start launches the workers. Segments are claimed by atomic counter so
// fast workers steal work from slow ones. A worker must hold one of
// 2×degree+1 segment buffers to claim a segment, and the consumer returns a
// buffer only once it has moved past that segment: besides the segment the
// consumer is reading, at most 2×degree are in flight (loading, or loaded
// and waiting), so a slow consumer holds resident memory to O(degree)
// segments instead of the whole table. No deadlock is possible: segments
// are claimed and consumed in ascending order, so the lowest unconsumed
// segment is always either delivered or held by a worker that needs no
// further buffer. Workers capture locals only (not s), so an abandoned scan
// becomes unreachable and its finalizer runs stopWorkers.
func (s *batchColScan) start() {
	s.started, s.stopCh = true, make(chan struct{})
	sp, nSeg, degree, stop := s.sp, s.nSeg, s.degree, s.stopCh
	bufs := min(2*degree+1, nSeg)
	results := make(chan *segLoad, nSeg) // never blocks a worker
	free := make(chan *segLoad, bufs)
	for range bufs {
		free <- new(segLoad)
	}
	s.results, s.free = results, free
	s.pending = make(map[int]*segLoad, bufs)
	s.workerSegs = make([]atomic.Int64, degree)
	exited := make(chan struct{})
	s.exited = exited
	var next, live atomic.Int64
	var failed atomic.Bool
	live.Store(int64(degree))
	for w := range degree {
		mySegs := &s.workerSegs[w] // capture the counter, not s (finalizer)
		go func() {
			defer func() {
				if live.Add(-1) == 0 {
					close(exited)
				}
			}()
			var f Batch // worker-local predicate scratch
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
				sp.load(seg, ls, &f)
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
		ls := &s.inline
		s.ids = s.sp.t.ViewRows(s.ids, s.sp.cols, &ls.cs)
		ls.sel = ls.cs.Sel
		return ls, nil
	}
	if s.next >= s.nSeg {
		return nil, nil
	}
	if s.degree <= 1 {
		s.sp.load(s.next, &s.inline, s.filter)
		s.next++
		return &s.inline, s.inline.err
	}
	if !s.started {
		s.start()
	}
	for {
		if ls, ok := s.pending[s.next]; ok {
			delete(s.pending, s.next)
			s.next++
			return ls, nil
		}
		select {
		case ls := <-s.results:
			if ls.err != nil {
				return nil, ls.err
			}
			s.pending[ls.seg] = ls
		case <-s.stopCh:
			return nil, nil
		}
	}
}

// release hands a consumed segment's buffer back to the workers. Never
// blocks: buffers never outnumber the channel's capacity.
func (s *batchColScan) release(ls *segLoad) {
	if s.free != nil {
		s.free <- ls
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
		s.sp.viewCols(s.hdrs, &cur.cs, lo, lo+n)
		b.cols, b.n, b.sel = s.hdrs, n, sel
		return true, nil
	}
	return false, nil
}

// DefaultParallelism is the fan-out degree used when a caller asks for
// parallel scanning without naming a degree: one worker per schedulable
// core.
func DefaultParallelism() int { return runtime.GOMAXPROCS(0) }
