package algebra

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/storage"
)

// segmentRows materializes the live rows of one segment view into a fresh
// cell arena — one allocation per segment rather than one per row.
func segmentRows(cs *storage.ColSeg) []relation.Tuple {
	n, w := cs.Live(), len(cs.Cols)
	rows := make([]relation.Tuple, 0, n)
	arena := make([]relation.Cell, n*w)
	for k := 0; k < n; k++ {
		cells := arena[k*w : (k+1)*w : (k+1)*w]
		cs.RowInto(k, cells)
		rows = append(rows, relation.Tuple{Cells: cells})
	}
	return rows
}

// ---- Index scan (lazy over the row-ID list) ----

type indexScan struct {
	t   *storage.Table
	ids []storage.RowID
	pos int
}

// NewIndexScan streams the rows of t whose target value lies in [lo, hi],
// using an index when available. The target may address an attribute or a
// quality indicator (attr@indicator). Only the matching row-ID list is
// materialized up front; tuples are fetched (and cloned) one at a time as
// the consumer pulls, so LIMIT 1 over a million matches copies one tuple.
// The row-ID list comes from one Table.Lookup.
func NewIndexScan(t *storage.Table, target storage.IndexTarget, lo, hi storage.Bound) (Iterator, error) {
	ids, err := t.Lookup(target, lo, hi)
	if err != nil {
		return nil, err
	}
	return &indexScan{t: t, ids: ids}, nil
}

func (s *indexScan) Schema() *schema.Schema { return s.t.Schema() }

func (s *indexScan) SizeHint() int { return len(s.ids) }

func (s *indexScan) Next() (relation.Tuple, bool, error) {
	for s.pos < len(s.ids) {
		tup, ok := s.t.Get(s.ids[s.pos])
		s.pos++
		if ok { // rows deleted since the lookup are skipped
			return tup, true, nil
		}
	}
	return relation.Tuple{}, false, nil
}

// ---- Parallel table scan ----

// segResult is one worker's output for one segment: the segment's live rows
// (already filtered when a predicate is fused into the scan).
type segResult struct {
	seg  int
	rows []relation.Tuple
	err  error
}

type parallelScan struct {
	t      *storage.Table
	degree int
	pred   Predicate // optional fused predicate, compiled once, shared by workers
	ctx    *EvalContext

	nSeg    int
	started bool
	results chan segResult
	tokens  chan struct{} // in-flight segment budget (backpressure)
	done    chan struct{} // closed when the consumer is finished with us
	closed  sync.Once
	pending map[int][]relation.Tuple
	nextSeg int
	rows    []relation.Tuple
	pos     int
	// workerSegs[w] counts segments scanned by worker w — the occupancy
	// actuals EXPLAIN ANALYZE reports. Atomics because workers race with a
	// consumer reading ExtraStats after the stream ends.
	workerSegs []atomic.Int64
}

// NewParallelScan fans a table scan out across degree workers, one heap
// segment at a time, and merges the per-segment results back in segment
// (therefore row-ID) order. Each worker takes its segment's column view and
// materializes the rows outside the table lock into one cell arena per
// segment; the rows are never counted as clones, so consumers must treat
// them as read-only and rebuild the cell slice before a row escapes. When
// pred is non-nil it is compiled once and fused into the workers: each
// worker filters its segment's rows before handing them to the merge, so
// predicate evaluation parallelizes along with the materialization. pred
// must be bindable against t's schema; evaluation must be read-only after
// Bind (every Compiled closure is). degree is clamped to [1, segments].
func NewParallelScan(t *storage.Table, degree int, pred Expr, ctx *EvalContext) (Iterator, error) {
	var pf Predicate
	if pred != nil {
		if err := pred.Bind(t.Schema()); err != nil {
			return nil, err
		}
		pf = CompilePredicate(pred)
	}
	nSeg := t.Segments()
	degree = min(degree, nSeg)
	degree = max(degree, 1)
	return &parallelScan{t: t, degree: degree, pred: pf, ctx: ctx, nSeg: nSeg,
		done: make(chan struct{})}, nil
}

// Stopper is implemented by iterators that hold background resources
// (worker goroutines, buffered segments). Executors should call Stop once
// the iterator will no longer be pulled — especially after a mid-stream
// error — to release those resources deterministically; an exhausted or
// errored iterator has already stopped itself, and Stop is idempotent. A
// finalizer covers abandoned iterators, but only at the next GC cycle.
type Stopper interface{ Stop() }

// Stop implements Stopper.
func (s *parallelScan) Stop() { s.stop() }

// ExtraStats reports worker occupancy — how many segments each worker
// claimed — for EXPLAIN ANALYZE. An even spread means the work-stealing
// claim loop kept every worker busy; a skewed one means a fused predicate
// or the consumer was the bottleneck.
func (s *parallelScan) ExtraStats() string {
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
	b.WriteByte(']')
	return b.String()
}

func (s *parallelScan) Schema() *schema.Schema { return s.t.Schema() }

func (s *parallelScan) SizeHint() int {
	if s.pred != nil {
		return -1 // the fused predicate's selectivity is unknown
	}
	return s.t.Len()
}

// stop releases the workers: any worker waiting for an in-flight token
// exits instead of scanning further segments. Called when the stream ends
// (exhaustion or error) and by a finalizer if the consumer abandons the
// iterator mid-stream, so workers never materialize the rest of the table
// for nobody.
func (s *parallelScan) stop() {
	s.closed.Do(func() { close(s.done) })
}

// start launches the workers. Segments are claimed by atomic counter so
// fast workers steal work from slow ones. In-flight segments (scanning, or
// scanned but not yet consumed) are capped at 2×degree by a token
// semaphore: the consumer releases a token as it takes each segment, so a
// slow consumer holds resident memory to O(degree) segments instead of the
// whole table. No deadlock is possible: segments are claimed in ascending
// order and consumed in ascending order, so the lowest unconsumed segment
// is always either already delivered or being scanned by a worker that
// needs no further token. Workers capture locals only (not s), so an
// abandoned iterator becomes unreachable and its finalizer runs stop().
func (s *parallelScan) start() {
	s.started = true
	t, pred, ctx, nSeg, degree := s.t, s.pred, s.ctx, s.nSeg, s.degree
	cols := t.Schema().ColIndexes()
	budget := 2 * degree
	if budget > nSeg {
		budget = nSeg
	}
	results := make(chan segResult, nSeg)
	tokens := make(chan struct{}, budget)
	for i := 0; i < budget; i++ {
		tokens <- struct{}{}
	}
	done := s.done // created in NewParallelScan so Stop works before start
	s.results, s.tokens = results, tokens
	s.pending = make(map[int][]relation.Tuple, budget)
	s.workerSegs = make([]atomic.Int64, degree)
	var next atomic.Int64
	var failed atomic.Bool
	for w := 0; w < degree; w++ {
		mySegs := &s.workerSegs[w] // capture the counter, not s (finalizer)
		go func() {
			var cs storage.ColSeg // worker-local; rows get a fresh arena per segment
			for {
				select {
				case <-tokens:
				case <-done:
					return
				}
				seg := int(next.Add(1)) - 1
				if seg >= nSeg || failed.Load() {
					return
				}
				mySegs.Add(1)
				var rows []relation.Tuple
				if t.ScanSegmentCols(seg, cols, &cs) {
					rows = segmentRows(&cs)
				}
				if pred != nil {
					kept := rows[:0]
					for _, row := range rows {
						ok, err := pred(row, ctx)
						if err != nil {
							failed.Store(true)
							results <- segResult{seg: seg, err: err}
							return
						}
						if ok {
							kept = append(kept, row)
						}
					}
					rows = kept
				}
				// Buffered for every segment, so this never blocks and a
				// worker always finishes its claimed segment.
				results <- segResult{seg: seg, rows: rows}
			}
		}()
	}
	runtime.SetFinalizer(s, (*parallelScan).stop)
}

func (s *parallelScan) Next() (relation.Tuple, bool, error) {
	if !s.started {
		s.start()
	}
	for {
		if s.pos < len(s.rows) {
			t := s.rows[s.pos]
			s.pos++
			return t, true, nil
		}
		if s.nextSeg >= s.nSeg {
			s.stop()
			return relation.Tuple{}, false, nil
		}
		if rows, ok := s.pending[s.nextSeg]; ok {
			delete(s.pending, s.nextSeg)
			s.rows, s.pos = rows, 0
			s.nextSeg++
			// The segment left the in-flight set; let a worker claim the
			// next one. Never blocks: releases never exceed acquisitions.
			s.tokens <- struct{}{}
			continue
		}
		var r segResult
		select {
		case r = <-s.results:
		case <-s.done:
			// Stop() arrived before the remaining segments: the consumer
			// declared it is finished, so end the stream cleanly rather
			// than wait for workers that have been released.
			s.nextSeg = s.nSeg
			return relation.Tuple{}, false, nil
		}
		if r.err != nil {
			// Terminal: mark the stream exhausted so a caller that ignores
			// the error and calls Next again gets a clean end-of-stream
			// instead of blocking on segments the stopped workers will
			// never deliver.
			s.nextSeg = s.nSeg
			s.stop()
			return relation.Tuple{}, false, r.err
		}
		s.pending[r.seg] = r.rows
	}
}

// DefaultParallelism is the fan-out degree used when a caller asks for
// parallel scanning without naming a degree: one worker per schedulable
// core.
func DefaultParallelism() int { return runtime.GOMAXPROCS(0) }
