package algebra

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
	"weak"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/tag"
	"repro/internal/value"
)

// bigTable builds an n-row table spanning multiple segments, with every
// 7th row deleted so liveness filtering is exercised, and ~1/3 of cells
// tagged so indicator predicates hit both tagged and untagged rows.
func bigTable(t *testing.T, n int) *storage.Table {
	t.Helper()
	tbl := storage.NewTable(bigSchema(), false)
	r := rand.New(rand.NewSource(int64(n)))
	var ids []storage.RowID
	for i := 0; i < n; i++ {
		cell := relation.Cell{V: value.Str(fmt.Sprintf("g%d", i%5))}
		if i%3 == 0 {
			cell.Tags = tag.NewSet(tag.Tag{Indicator: "source", Value: value.Str([]string{"a", "b"}[i%2])})
		}
		id, err := tbl.Insert(relation.Tuple{Cells: []relation.Cell{
			{V: value.Int(int64(i))},
			cell,
			{V: value.Int(int64(r.Intn(1000)))},
		}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i := 0; i < n; i += 7 {
		if err := tbl.Delete(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func bigSchema() *schema.Schema {
	return schema.MustNew("big", []schema.Attr{
		{Name: "id", Kind: value.KindInt, Required: true},
		{Name: "grp", Kind: value.KindString,
			Indicators: []tag.Indicator{{Name: "source", Kind: value.KindString}}},
		{Name: "qty", Kind: value.KindInt},
	}, "id")
}

// scanRows reads every live row of tbl through storage's cloning Scan —
// the reference the engine's scans are checked against.
func scanRows(tbl *storage.Table) *relation.Relation {
	out := relation.New(tbl.Schema())
	tbl.Scan(func(_ storage.RowID, tup relation.Tuple) bool {
		out.Tuples = append(out.Tuples, tup)
		return true
	})
	return out
}

// InterpretedPredicate wraps ReferenceTruth as a Predicate: the
// reference CompilePredicate is checked against.
func InterpretedPredicate(e Expr) Predicate {
	return func(row relation.Tuple, ctx *EvalContext) (bool, error) {
		return ReferenceTruth(e, row, ctx)
	}
}

func sameRelation(t *testing.T, want, got *relation.Relation, label string) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("%s: %d rows, want %d", label, got.Len(), want.Len())
	}
	w, g := relation.Format(want, true), relation.Format(got, true)
	if w != g {
		t.Fatalf("%s: output differs from the reference", label)
	}
}

// parScan builds the column scan over every column of tbl at degree, with
// pred as its one filter (nil for none) and no prunes.
func parScan(t *testing.T, tbl *storage.Table, degree int, pred Expr) BatchIterator {
	t.Helper()
	var filters []Expr
	if pred != nil {
		filters = []Expr{pred}
	}
	bit, err := NewTableScan(tbl, degree, 0, tbl.Schema().ColIndexes(), nil, filters, ctx())
	if err != nil {
		t.Fatal(err)
	}
	return bit
}

// filterRows keeps the rows of rel that the interpreted pred accepts.
func filterRows(t *testing.T, rel *relation.Relation, pred Expr) *relation.Relation {
	t.Helper()
	if err := pred.Bind(rel.Schema); err != nil {
		t.Fatal(err)
	}
	keep := InterpretedPredicate(pred)
	out := relation.New(rel.Schema)
	for _, tup := range rel.Tuples {
		ok, err := keep(tup, ctx())
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			out.Tuples = append(out.Tuples, tup)
		}
	}
	return out
}

// TestTableScanStreamsAllSegments: one scan worker still reads every
// segment, in row-ID order.
func TestTableScanStreamsAllSegments(t *testing.T) {
	const n = storage.SegmentSize + 500
	tbl := bigTable(t, n)
	out := drain(t, parScan(t, tbl, 1, nil))
	if out.Len() != tbl.Len() {
		t.Fatalf("scan = %d rows, table has %d live", out.Len(), tbl.Len())
	}
	// Row-ID order: the id column is the insert order.
	prev := int64(-1)
	for _, tup := range out.Tuples {
		id := tup.Cells[0].V.AsInt()
		if id <= prev {
			t.Fatalf("scan out of row-ID order: %d after %d", id, prev)
		}
		prev = id
	}
}

// holeyTable is bigTable's shape over six segments with the cases a segment
// load must get right: segment 1 is wholly deleted, no cell of segment 2
// carries a tag (its grp run has no tag run at all), segment 4 is tagged on
// every cell, and the rest lose every 7th row and tag every 3rd.
func holeyTable(t *testing.T) *storage.Table {
	t.Helper()
	const n = 5*storage.SegmentSize + 321
	tbl := storage.NewTable(bigSchema(), false)
	r := rand.New(rand.NewSource(n))
	for i := 0; i < n; i++ {
		seg := i / storage.SegmentSize
		cell := relation.Cell{V: value.Str(fmt.Sprintf("g%d", i%5))}
		if seg == 4 || (seg != 2 && i%3 == 0) {
			cell.Tags = tag.NewSet(tag.Tag{Indicator: "source", Value: value.Str([]string{"a", "b"}[i%2])})
		}
		if _, err := tbl.Insert(relation.Tuple{Cells: []relation.Cell{
			{V: value.Int(int64(i))}, cell, {V: value.Int(int64(r.Intn(1000)))},
		}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if i/storage.SegmentSize == 1 || i%7 == 0 {
			if err := tbl.Delete(storage.RowID(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tbl
}

// TestParallelScanMatchesSerial is the ordering property test: for every
// degree, with and without a filter, the scan's output is
// byte-identical (tags and sources included) to storage's serial Scan,
// filtered by the interpreted predicate. The inputs cover a wholly dead
// segment, a segment with no tag run under an indicator predicate, and
// prunes that skip segments on the fanned-out path.
func TestParallelScanMatchesSerial(t *testing.T) {
	idFrom := int64(3*storage.SegmentSize + 17)
	preds := []struct {
		name string
		pred func() Expr
	}{
		{"kernel", batchPred},
		{"indicator only", func() Expr {
			return &Cmp{Op: OpEq, L: &IndRef{Col: "grp", Indicator: "source"}, R: &Const{V: value.Str("b")}}
		}},
		{"scalar", func() Expr { // LIKE has no column kernel: per-row fallback
			return &Logic{Op: OpAnd,
				L: &Like{E: &ColRef{Name: "grp"}, Pattern: "g1%"},
				R: &Cmp{Op: OpLt, L: &ColRef{Name: "qty"}, R: &Const{V: value.Int(700)}},
			}
		}},
		{"pruned", func() Expr {
			return &Cmp{Op: OpGe, L: &ColRef{Name: "id"}, R: &Const{V: value.Int(idFrom)}}
		}},
	}
	for _, tc := range []struct {
		name string
		tbl  *storage.Table
	}{
		{"big", bigTable(t, 3*storage.SegmentSize+123)},
		{"holey", holeyTable(t)},
	} {
		tbl := tc.tbl
		serialAll := scanRows(tbl)
		for _, degree := range []int{1, 2, 3, 4, 8, 64} {
			sameRelation(t, serialAll, drain(t, parScan(t, tbl, degree, nil)), fmt.Sprintf("%s degree %d no pred", tc.name, degree))
		}
		for _, p := range preds {
			want := filterRows(t, serialAll, p.pred())
			if want.Len() == 0 || want.Len() == serialAll.Len() {
				t.Fatalf("%s %s: weak predicate: %d of %d", tc.name, p.name, want.Len(), serialAll.Len())
			}
			for _, degree := range []int{1, 2, 3, 4, 8, 64} {
				sameRelation(t, want, drain(t, parScan(t, tbl, degree, p.pred())), fmt.Sprintf("%s degree %d %s", tc.name, degree, p.name))
			}
		}
	}

	// Prunes on the fanned-out path: segments whose id range refutes the
	// sarg are skipped by the workers and reported.
	tbl := holeyTable(t)
	want := filterRows(t, scanRows(tbl), preds[3].pred())
	prunes := []SegPrune{{Col: 0, Op: OpGe, K: value.Int(idFrom)}} // preds[3]'s sarg
	for _, degree := range []int{1, 2, 4} {
		bit, err := NewTableScan(tbl, degree, 0, tbl.Schema().ColIndexes(), prunes, []Expr{preds[3].pred()}, ctx())
		if err != nil {
			t.Fatal(err)
		}
		sameRelation(t, want, drain(t, bit), fmt.Sprintf("pruned degree %d", degree))
		extra := bit.(ExtraStats).ExtraStats()
		if degree == 1 && extra != "segments skipped=3 of 6" || degree > 1 && !strings.HasSuffix(extra, "skipped=3") {
			t.Errorf("degree %d: extra stats %q, want 3 segments skipped", degree, extra)
		}
	}
}

func TestParallelScanEmptyAndTinyTables(t *testing.T) {
	sc := schema.MustNew("tiny", []schema.Attr{{Name: "a", Kind: value.KindInt}})
	tbl := storage.NewTable(sc, false)
	if out := drain(t, parScan(t, tbl, 8, nil)); out.Len() != 0 {
		t.Fatalf("empty table scan = %d rows", out.Len())
	}
	for i := 0; i < 10; i++ {
		if _, err := tbl.Insert(relation.NewTuple(value.Int(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	if out := drain(t, parScan(t, tbl, 8, nil)); out.Len() != 10 {
		t.Fatalf("tiny table scan = %d rows", out.Len())
	}
}

func TestParallelScanPredicateError(t *testing.T) {
	tbl := bigTable(t, 2*storage.SegmentSize)
	for _, degree := range []int{1, 4} {
		// LIKE over an int errors at eval time in the workers.
		bad := &Like{E: &ColRef{Name: "qty"}, Pattern: "x%"}
		it := parScan(t, tbl, degree, bad)
		if _, err := Collect(it); err == nil {
			t.Fatalf("degree %d: worker predicate error was swallowed", degree)
		}
		// The error is terminal: further NextBatch calls end the stream
		// cleanly instead of blocking on segments the stopped workers won't
		// deliver.
		if ok, err := it.NextBatch(new(Batch)); ok || err != nil {
			t.Fatalf("degree %d: NextBatch after error = %v, %v", degree, ok, err)
		}
	}
}

// TestParallelScanAbandoned checks that dropping the iterator mid-stream
// (the LIMIT shape) leaves no stuck workers: results are buffered for every
// segment so workers always run to completion.
func TestParallelScanAbandoned(t *testing.T) {
	tbl := bigTable(t, 3*storage.SegmentSize)
	it := parScan(t, tbl, 4, nil)
	b := new(Batch)
	for i := 0; i < 5; i++ {
		if ok, err := it.NextBatch(b); err != nil || !ok {
			t.Fatalf("NextBatch %d = %v, %v", i, ok, err)
		}
	}
	// Iterator goes out of scope here; goroutine leak would trip -race
	// builds' leak checks in long runs and block test exit if workers
	// required a consumer.
}

// TestParallelScanBackpressure: a consumer that stops pulling caps the
// workers at the in-flight segment budget (2×degree beside the segment the
// consumer holds), so resident segments stay O(degree), not O(table).
// Scans clone nothing, so the bound is read off the worker-occupancy
// counters EXPLAIN ANALYZE reports.
func TestParallelScanBackpressure(t *testing.T) {
	const nSeg = 12
	tbl := bigTable(t, nSeg*storage.SegmentSize)
	bit := parScan(t, tbl, 2, nil)
	defer bit.(Stopper).Stop()
	if ok, err := bit.NextBatch(new(Batch)); err != nil || !ok {
		t.Fatalf("NextBatch = %v, %v", ok, err)
	}
	// Let the workers run as far as the buffer budget allows, then stall.
	time.Sleep(200 * time.Millisecond)
	var claimed int64
	for w := range bit.(*batchColScan).fan.workerSegs {
		claimed += bit.(*batchColScan).fan.workerSegs[w].Load()
	}
	// 4 in flight + the 1 the consumer holds; far below the 12 segments an
	// unbounded fan-out would have claimed.
	if claimed < 1 || claimed > 5 {
		t.Fatalf("stalled consumer: workers claimed %d segments, want 1..5 (buffer budget)", claimed)
	}
}

// TestParallelScanFreesTableOnDrain: a fanned-out scan that ran to the end
// holds nothing once it is dropped — no finalizer keeps it, and the table
// it references, alive through the next collection. The workers hold the
// table until they return, so the test waits for this scan's own workers
// to exit: a process-wide goroutine count can fall back to its starting
// value while they still run, when an earlier test's goroutine exits.
func TestParallelScanFreesTableOnDrain(t *testing.T) {
	wp, exited := drainedScanTable(t)
	select {
	case <-exited:
	case <-time.After(5 * time.Second):
		t.Fatal("workers still running 5s after their scan drained")
	}
	runtime.GC()
	if wp.Value() != nil {
		t.Fatal("table still reachable one collection after its drained scan was dropped")
	}
}

// drainedScanTable drains a degree-2 scan over a fresh table and returns a
// weak pointer to the table, so that no frame of the caller references it,
// and the channel closed once the scan's workers have exited.
func drainedScanTable(t *testing.T) (weak.Pointer[storage.Table], <-chan struct{}) {
	t.Helper()
	tbl := bigTable(t, 4*storage.SegmentSize)
	bit := parScan(t, tbl, 2, nil)
	b := new(Batch)
	for {
		ok, err := bit.NextBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	return weak.Make(tbl), bit.(*batchColScan).fan.exited
}

// TestParallelScanStop: Stop releases the workers deterministically and a
// (contract-violating but tolerated) NextBatch afterwards terminates
// instead of waiting for segments that will never arrive.
func TestParallelScanStop(t *testing.T) {
	tbl := bigTable(t, 6*storage.SegmentSize)
	it := parScan(t, tbl, 2, nil)
	b := new(Batch)
	if ok, err := it.NextBatch(b); err != nil || !ok {
		t.Fatalf("NextBatch = %v, %v", ok, err)
	}
	it.(Stopper).Stop()
	for i := 0; i < 7*storage.SegmentSize; i++ {
		ok, err := it.NextBatch(b)
		if err != nil {
			t.Fatalf("NextBatch after Stop: %v", err)
		}
		if !ok {
			return
		}
	}
	t.Fatal("stream did not terminate after Stop")
}

// TestIndexScanMatchesReference holds the batch index scan to the
// reference row-at-a-time one (a Table.Get per probed row) at several
// batch sizes, over attribute and indicator indexes, with rows deleted
// between the probe and the first pull: both skip them.
func TestIndexScanMatchesReference(t *testing.T) {
	probes := []struct {
		target storage.IndexTarget
		lo, hi storage.Bound
	}{
		{storage.IndexTarget{Attr: "qty"}, storage.Incl(value.Int(100)), storage.Excl(value.Int(400))},
		{storage.IndexTarget{Attr: "qty"}, storage.Incl(value.Int(7)), storage.Incl(value.Int(7))},
		{storage.IndexTarget{Attr: "qty"}, storage.Incl(value.Int(5000)), storage.Unbounded},
		{storage.IndexTarget{Attr: "grp", Indicator: "source"}, storage.Incl(value.Str("b")), storage.Incl(value.Str("b"))},
	}
	for _, size := range []int{1, 3, 1024} {
		for i, pr := range probes {
			tbl := bigTable(t, 2*storage.SegmentSize+300)
			if err := tbl.CreateIndex(storage.IndexTarget{Attr: "qty"}, storage.IndexBTree); err != nil {
				t.Fatal(err)
			}
			if err := tbl.CreateIndex(storage.IndexTarget{Attr: "grp", Indicator: "source"}, storage.IndexHash); err != nil {
				t.Fatal(err)
			}
			ref, err := newRefIndexScan(tbl, pr.target, pr.lo, pr.hi)
			if err != nil {
				t.Fatal(err)
			}
			got, err := NewIndexScan(tbl, pr.target, pr.lo, pr.hi, size, tbl.Schema().ColIndexes(), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			ids, _ := tbl.Lookup(pr.target, pr.lo, pr.hi)
			for k := 0; k < len(ids); k += 5 {
				if err := tbl.Delete(ids[k]); err != nil {
					t.Fatal(err)
				}
			}
			sameRelation(t, drainRows(t, ref), drain(t, got), fmt.Sprintf("probe %d, size %d", i, size))
		}
	}
}

// TestIndexScanLazyClones: an index scan clones no row, and a LIMIT 1
// over a probe matching rows in every segment views only the first of
// them.
func TestIndexScanLazyClones(t *testing.T) {
	tbl := bigTable(t, 3*storage.SegmentSize+100)
	target := storage.IndexTarget{Attr: "qty"}
	if err := tbl.CreateIndex(target, storage.IndexBTree); err != nil {
		t.Fatal(err)
	}
	// A range matching most of the table.
	lo, hi := storage.Incl(value.Int(0)), storage.Incl(value.Int(1000))
	ids, err := tbl.Lookup(target, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	later := 0
	for _, id := range ids {
		if id >= storage.SegmentSize {
			later++
		}
	}
	before := storage.TupleClones()
	ix, err := NewIndexScan(tbl, target, lo, hi, 0, tbl.Schema().ColIndexes(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ix.(Sizer).SizeHint() != len(ids) {
		t.Errorf("SizeHint = %d, want %d", ix.(Sizer).SizeHint(), len(ids))
	}
	out := drain(t, NewBatchLimit(ix, 1, 0))
	if out.Len() != 1 || out.Tuples[0].Cells[0].V.AsInt() != int64(ids[0]) {
		t.Fatalf("LIMIT 1 over the index scan = %v, want row %d", out.Tuples, ids[0])
	}
	if cloned := storage.TupleClones() - before; cloned != 0 {
		t.Errorf("index scan cloned %d tuples, want 0", cloned)
	}
	if left := len(ix.(*batchColScan).ids); later == 0 || left != later {
		t.Errorf("LIMIT 1 left %d probed rows unviewed, want the %d past segment 0", left, later)
	}
}
