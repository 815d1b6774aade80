package algebra

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

// batchSizes exercises the degenerate, tiny and default batch shapes.
var batchSizes = []int{1, 3, DefaultBatchSize}

// tableScan streams every column of a storage table in batches of up to
// size rows.
func tableScan(t *storage.Table, size int) BatchIterator {
	bit, err := NewTableScan(t, 1, size, t.Schema().ColIndexes(), nil, nil, nil)
	if err != nil {
		panic(err)
	}
	return bit
}

func batchPred() Expr {
	return &Logic{Op: OpOr,
		L: &Cmp{Op: OpGt, L: &ColRef{Name: "qty"}, R: &Const{V: value.Int(500)}},
		R: &Cmp{Op: OpEq, L: &IndRef{Col: "grp", Indicator: "source"}, R: &Const{V: value.Str("a")}},
	}
}

// TestBatchScanMatchesSerial: the batch scan yields the same rows as storage's serial Scan, for every batch size, without cloning.
func TestBatchScanMatchesSerial(t *testing.T) {
	tbl := bigTable(t, 2*storage.SegmentSize+57)
	want := scanRows(tbl)
	for _, size := range batchSizes {
		before := storage.TupleClones()
		got := drain(t, tableScan(tbl, size))
		if d := storage.TupleClones() - before; d != 0 {
			t.Fatalf("batch=%d: scan cloned %d tuples, want 0", size, d)
		}
		sameRelation(t, want, got, fmt.Sprintf("batch scan size %d", size))
	}
}

// TestBatchPipelineMatchesScalar runs scan → select → select → project →
// limit through the batch operators and, as plain Go, over storage's
// serial Scan through the reference selects, and requires byte-identical
// output.
func TestBatchPipelineMatchesScalar(t *testing.T) {
	tbl := bigTable(t, storage.SegmentSize+700)
	second := &Cmp{Op: OpLt, L: &ColRef{Name: "qty"}, R: &Const{V: value.Int(900)}}
	items := []ProjectItem{
		{Expr: &ColRef{Name: "id"}},
		{Expr: &Arith{Op: OpMul, L: &ColRef{Name: "qty"}, R: &Const{V: value.Int(2)}}, As: "qty2"},
	}

	rows := func() *relation.Relation {
		it, err := newRefSelect(rowsOf(scanRows(tbl)), batchPred(), ctx())
		if err != nil {
			t.Fatal(err)
		}
		it, err = newRefSelect(it, CloneExpr(second), ctx())
		if err != nil {
			t.Fatal(err)
		}
		kept := drainRows(t, it).Tuples[7 : 7+40]
		out := relation.New(schema.MustNew(tbl.Schema().Name, []schema.Attr{{Name: "id", Kind: value.KindInt}, {Name: "qty2"}}))
		for _, tup := range kept {
			qty := tup.Cells[2]
			out.Tuples = append(out.Tuples, relation.Tuple{Cells: []relation.Cell{
				tup.Cells[0], {V: value.Int(2 * qty.V.AsInt()), Tags: qty.Tags, Sources: qty.Sources},
			}})
		}
		return out
	}
	want := rows()

	for _, size := range batchSizes {
		bit, err := NewBatchSelect(tableScan(tbl, size), batchPred(), ctx())
		if err != nil {
			t.Fatal(err)
		}
		bit, err = NewBatchSelect(bit, CloneExpr(second), ctx())
		if err != nil {
			t.Fatal(err)
		}
		bit, err = NewBatchProject(bit, []ProjectItem{
			{Expr: CloneExpr(items[0].Expr), As: items[0].As},
			{Expr: CloneExpr(items[1].Expr), As: items[1].As},
		}, ctx(), size)
		if err != nil {
			t.Fatal(err)
		}
		bit = NewBatchLimit(bit, 40, 7)
		got := drain(t, bit)
		sameRelation(t, want, got, fmt.Sprintf("batch pipeline size %d", size))
		if want.Schema.Name != got.Schema.Name {
			t.Fatalf("schema name %q, want %q", got.Schema.Name, want.Schema.Name)
		}
	}
}

// TestBatchAggregateMatchesScalar: the global batch sink agrees with a
// row-at-a-time fold over storage's serial Scan on every aggregate
// function, over data and over an empty input, and with the grouped sink
// at zero group keys.
func TestBatchAggregateMatchesScalar(t *testing.T) {
	tbl := bigTable(t, storage.SegmentSize+100)
	empty := storage.NewTable(tbl.Schema(), false)
	mkAggs := func() []AggSpec {
		return []AggSpec{
			{Fn: AggCount, As: "n"},
			{Fn: AggCount, Arg: &ColRef{Name: "qty"}, As: "nq"},
			{Fn: AggSum, Arg: &ColRef{Name: "qty"}, As: "s"},
			{Fn: AggAvg, Arg: &ColRef{Name: "qty"}, As: "a"},
			{Fn: AggMin, Arg: &ColRef{Name: "qty"}, As: "lo"},
			{Fn: AggMax, Arg: &Arith{Op: OpAdd, L: &ColRef{Name: "qty"}, R: &Const{V: value.Int(1)}}, As: "hi"},
		}
	}
	for _, src := range []*storage.Table{tbl, empty} {
		// qty is never null and never tagged, so the fold is plain
		// arithmetic with no provenance.
		var n, sum int64
		lo, hi := value.Null, value.Null
		for _, tup := range scanRows(src).Tuples {
			q := tup.Cells[2].V.AsInt()
			n++
			sum += q
			if lo.IsNull() || q < lo.AsInt() {
				lo = value.Int(q)
			}
			if hi.IsNull() || q+1 > hi.AsInt() {
				hi = value.Int(q + 1)
			}
		}
		want := relation.New(schema.MustNew("big_agg", []schema.Attr{
			{Name: "n"}, {Name: "nq"}, {Name: "s"}, {Name: "a"}, {Name: "lo"}, {Name: "hi"},
		}))
		row := relation.NewTuple(value.Int(n), value.Int(n), value.Int(sum), value.Float(float64(sum)/float64(n)), lo, hi)
		if n == 0 {
			row = relation.NewTuple(value.Int(0), value.Int(0), value.Null, value.Null, value.Null, value.Null)
		}
		want.Tuples = append(want.Tuples, row)
		for _, size := range batchSizes {
			bagg, err := NewBatchAggregate(tableScan(src, size), mkAggs(), ctx(), size)
			if err != nil {
				t.Fatal(err)
			}
			got := drain(t, bagg)
			sameRelation(t, want, got, fmt.Sprintf("batch agg rows=%d size %d", src.Len(), size))
			if want.Schema.Name != got.Schema.Name {
				t.Fatalf("agg schema name %q, want %q", got.Schema.Name, want.Schema.Name)
			}
			gagg, err := NewBatchGroupedAggregate(tableScan(src, size), nil, mkAggs(), ctx(), size)
			if err != nil {
				t.Fatal(err)
			}
			sameRelation(t, want, drain(t, gagg), fmt.Sprintf("grouped agg rows=%d size %d", src.Len(), size))
		}
	}
}

// TestBatchCountOnlyNeverClones: the COUNT(*) sink over a batch scan is the
// zero-copy fast path end to end.
func TestBatchCountOnlyNeverClones(t *testing.T) {
	tbl := bigTable(t, 3*storage.SegmentSize)
	before := storage.TupleClones()
	agg, err := NewBatchAggregate(tableScan(tbl, DefaultBatchSize),
		[]AggSpec{{Fn: AggCount, As: "n"}}, ctx(), DefaultBatchSize)
	if err != nil {
		t.Fatal(err)
	}
	out := drain(t, agg)
	if d := storage.TupleClones() - before; d != 0 {
		t.Fatalf("COUNT(*) cloned %d tuples, want 0", d)
	}
	if got := out.Tuples[0].Cells[0].V.AsInt(); got != int64(tbl.Len()) {
		t.Fatalf("COUNT(*) = %d, want %d", got, tbl.Len())
	}
}

// stopRecorder is a BatchIterator stub that records Stop propagation.
type stopRecorder struct {
	in      BatchIterator
	stopped bool
}

func (s *stopRecorder) Schema() *schema.Schema           { return s.in.Schema() }
func (s *stopRecorder) NextBatch(b *Batch) (bool, error) { return s.in.NextBatch(b) }
func (s *stopRecorder) Stop()                            { s.stopped = true; stopIfStopper(s.in) }

// TestBatchLimitStopsProducerEarly: reaching the limit stops the producer
// immediately — before the consumer drains the final batch — so upstream
// buffers and scan workers are released deterministically.
func TestBatchLimitStopsProducerEarly(t *testing.T) {
	tbl := bigTable(t, 2*storage.SegmentSize)
	for _, size := range batchSizes {
		rec := &stopRecorder{in: tableScan(tbl, size)}
		lim := NewBatchLimit(rec, 10, 0)
		b := new(Batch)
		rows := 0
		for rows < 10 {
			if rec.stopped {
				t.Fatalf("size %d: producer stopped after %d rows, before the quota", size, rows)
			}
			ok, err := lim.NextBatch(b)
			if err != nil || !ok {
				t.Fatalf("size %d: NextBatch = %v, %v after %d rows", size, ok, err, rows)
			}
			rows += b.Len()
		}
		if rows != 10 {
			t.Fatalf("size %d: limited stream has %d rows, want 10", size, rows)
		}
		if !rec.stopped {
			t.Fatalf("size %d: limit reached but producer not stopped", size)
		}
		if ok, _ := lim.NextBatch(b); ok {
			t.Fatalf("size %d: limit kept producing after quota", size)
		}
	}
}

// TestStopReleasesChain: Stop on the top of a pipeline reaches every batch
// operator beneath it, the sort, distinct and limit included.
func TestStopReleasesChain(t *testing.T) {
	tbl := bigTable(t, storage.SegmentSize)
	rec := &stopRecorder{in: tableScan(tbl, 32)}
	sel, err := NewBatchSelect(rec, batchPred(), ctx())
	if err != nil {
		t.Fatal(err)
	}
	sorted, err := NewSort(sel, []SortKey{{Expr: &ColRef{Name: "qty"}}}, ctx(), 32)
	if err != nil {
		t.Fatal(err)
	}
	proj, err := NewBatchProject(sorted, []ProjectItem{{Expr: &ColRef{Name: "id"}}}, ctx(), 32)
	if err != nil {
		t.Fatal(err)
	}
	it := NewBatchLimit(NewDistinct(proj), -1, 0)
	b := new(Batch)
	if ok, err := it.NextBatch(b); err != nil || !ok {
		t.Fatalf("NextBatch = %v, %v", ok, err)
	}
	it.(Stopper).Stop()
	if !rec.stopped {
		t.Fatal("Stop did not propagate through the batch chain")
	}
	if ok, _ := it.NextBatch(b); ok {
		t.Fatal("iterator produced rows after Stop")
	}
}

// errBatch fails on the nth NextBatch call.
type errBatch struct {
	in    BatchIterator
	after int
	calls int
}

func (e *errBatch) Schema() *schema.Schema { return e.in.Schema() }
func (e *errBatch) NextBatch(b *Batch) (bool, error) {
	e.calls++
	if e.calls > e.after {
		return false, errors.New("mid-stream failure")
	}
	return e.in.NextBatch(b)
}

// TestBatchErrorPropagates: a mid-stream error surfaces through the
// operators and Collect, and the stream terminates cleanly afterwards.
func TestBatchErrorPropagates(t *testing.T) {
	tbl := bigTable(t, storage.SegmentSize)
	src := &errBatch{in: tableScan(tbl, 16), after: 2}
	proj, err := NewBatchProject(src, []ProjectItem{{Expr: &ColRef{Name: "id"}}}, ctx(), 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(proj); err == nil {
		t.Fatal("mid-stream error was swallowed")
	}
	if ok, err := proj.NextBatch(new(Batch)); ok || err != nil {
		t.Fatalf("NextBatch after error = %v, %v", ok, err)
	}
}

// TestRelationScanRoundTrip: streaming a relation and collecting it again
// is the identity.
func TestRelationScanRoundTrip(t *testing.T) {
	tbl := bigTable(t, 2*storage.SegmentSize+9)
	want := scanRows(tbl)
	for _, size := range batchSizes {
		got := drain(t, NewRelationScan(scanRows(tbl), size))
		sameRelation(t, want, got, fmt.Sprintf("relation scan size %d", size))
	}
}

// TestTableScansSkipClones: the column scan, inline and at three workers,
// returns the rows the cloning storage Scan visits, with a zero clone
// delta.
func TestTableScansSkipClones(t *testing.T) {
	tbl := bigTable(t, 2*storage.SegmentSize+100)
	want := scanRows(tbl)

	for _, degree := range []int{1, 3} {
		before := storage.TupleClones()
		got := drain(t, parScan(t, tbl, degree, nil))
		if d := storage.TupleClones() - before; d != 0 {
			t.Fatalf("degree %d scan cloned %d tuples", degree, d)
		}
		sameRelation(t, want, got, fmt.Sprintf("degree %d scan", degree))
	}

	// A filter makes the cardinality unknown: the scan must not
	// advertise the full table size, or Collect would pre-allocate a
	// table-sized buffer for a selective query.
	for _, degree := range []int{1, 3} {
		filtered := parScan(t, tbl, degree, batchPred())
		if h := sizeHint(filtered); h != -1 {
			t.Fatalf("degree %d filtered scan SizeHint = %d, want -1", degree, h)
		}
		drain(t, filtered) // release the workers
	}
}

// TestCollectPreSizes: Collect over a Sizer-capable pipeline allocates the
// tuple slice once at the hinted capacity.
func TestCollectPreSizes(t *testing.T) {
	tbl := bigTable(t, 1000)
	out, err := Collect(NewBatchLimit(NewRelationScan(scanRows(tbl), 0), 10, 0))
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() != 10 {
		t.Fatalf("limit 10 = %d rows", out.Len())
	}
	if c := cap(out.Tuples); c != 10 {
		t.Fatalf("Collect capacity %d, want exactly the limit hint 10", c)
	}
	it := parScan(t, tbl, 2, nil)
	defer it.(Stopper).Stop()
	if hint := sizeHint(it); hint != tbl.Len() {
		t.Fatalf("scan SizeHint = %d, want %d", hint, tbl.Len())
	}
	rel := relation.New(tbl.Schema())
	if h := sizeHint(NewRelationScan(rel, 0)); h != 0 {
		t.Fatalf("empty relation hint = %d", h)
	}
}
