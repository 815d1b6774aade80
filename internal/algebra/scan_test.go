package algebra

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

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
	sc := schema.MustNew("big", []schema.Attr{
		{Name: "id", Kind: value.KindInt, Required: true},
		{Name: "grp", Kind: value.KindString,
			Indicators: []tag.Indicator{{Name: "source", Kind: value.KindString}}},
		{Name: "qty", Kind: value.KindInt},
	}, "id")
	tbl := storage.NewTable(sc, false)
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

// InterpretedPredicate wraps the tree-walking Truth as a Predicate: the
// reference CompilePredicate is checked against.
func InterpretedPredicate(e Expr) Predicate {
	return func(row relation.Tuple, ctx *EvalContext) (bool, error) {
		return Truth(e, row, ctx)
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

// TestTableScanStreamsAllSegments: one scan worker still reads every
// segment, in row-ID order.
func TestTableScanStreamsAllSegments(t *testing.T) {
	const n = storage.SegmentSize + 500
	tbl := bigTable(t, n)
	it, err := NewParallelScan(tbl, 1, nil, ctx())
	if err != nil {
		t.Fatal(err)
	}
	out := drain(t, it)
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

// TestParallelScanMatchesSerial is the ordering property test: for every
// degree, with and without a fused predicate, the parallel scan's output is
// byte-identical (tags and sources included) to storage's serial Scan,
// filtered by the interpreted predicate.
func TestParallelScanMatchesSerial(t *testing.T) {
	const n = 3*storage.SegmentSize + 123
	tbl := bigTable(t, n)

	serialAll := scanRows(tbl)
	pred := func() Expr {
		return &Logic{Op: OpOr,
			L: &Cmp{Op: OpGt, L: &ColRef{Name: "qty"}, R: &Const{V: value.Int(500)}},
			R: &Cmp{Op: OpEq, L: &IndRef{Col: "grp", Indicator: "source"}, R: &Const{V: value.Str("a")}},
		}
	}
	ref := pred()
	if err := ref.Bind(tbl.Schema()); err != nil {
		t.Fatal(err)
	}
	keep := InterpretedPredicate(ref)
	serialPred := relation.New(tbl.Schema())
	for _, tup := range serialAll.Tuples {
		ok, err := keep(tup, ctx())
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			serialPred.Tuples = append(serialPred.Tuples, tup)
		}
	}
	if serialPred.Len() == 0 || serialPred.Len() == serialAll.Len() {
		t.Fatalf("weak predicate: %d of %d", serialPred.Len(), serialAll.Len())
	}

	for _, degree := range []int{1, 2, 3, 4, 8, 64} {
		it, err := NewParallelScan(tbl, degree, nil, ctx())
		if err != nil {
			t.Fatal(err)
		}
		sameRelation(t, serialAll, drain(t, it), fmt.Sprintf("degree %d no pred", degree))

		it, err = NewParallelScan(tbl, degree, pred(), ctx())
		if err != nil {
			t.Fatal(err)
		}
		sameRelation(t, serialPred, drain(t, it), fmt.Sprintf("degree %d fused pred", degree))
	}
}

func TestParallelScanEmptyAndTinyTables(t *testing.T) {
	sc := schema.MustNew("tiny", []schema.Attr{{Name: "a", Kind: value.KindInt}})
	tbl := storage.NewTable(sc, false)
	it, err := NewParallelScan(tbl, 8, nil, ctx())
	if err != nil {
		t.Fatal(err)
	}
	if out := drain(t, it); out.Len() != 0 {
		t.Fatalf("empty table scan = %d rows", out.Len())
	}
	for i := 0; i < 10; i++ {
		if _, err := tbl.Insert(relation.NewTuple(value.Int(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	it, err = NewParallelScan(tbl, 8, nil, ctx())
	if err != nil {
		t.Fatal(err)
	}
	if out := drain(t, it); out.Len() != 10 {
		t.Fatalf("tiny table scan = %d rows", out.Len())
	}
}

func TestParallelScanPredicateError(t *testing.T) {
	tbl := bigTable(t, 2*storage.SegmentSize)
	// LIKE over an int errors at eval time in the workers.
	bad := &Like{E: &ColRef{Name: "qty"}, Pattern: "x%"}
	it, err := NewParallelScan(tbl, 4, bad, ctx())
	if err != nil {
		t.Fatal(err)
	}
	_, err = Collect(it)
	if err == nil {
		t.Fatal("worker predicate error was swallowed")
	}
	// The error is terminal: further Next calls end the stream cleanly
	// instead of blocking on segments the stopped workers won't deliver.
	if _, ok, err := it.Next(); ok || err != nil {
		t.Fatalf("Next after error = %v, %v", ok, err)
	}
}

// TestParallelScanAbandoned checks that dropping the iterator mid-stream
// (the LIMIT shape) leaves no stuck workers: results are buffered for every
// segment so workers always run to completion.
func TestParallelScanAbandoned(t *testing.T) {
	tbl := bigTable(t, 3*storage.SegmentSize)
	it, err := NewParallelScan(tbl, 4, nil, ctx())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, ok, err := it.Next(); err != nil || !ok {
			t.Fatalf("Next %d = %v, %v", i, ok, err)
		}
	}
	// Iterator goes out of scope here; goroutine leak would trip -race
	// builds' leak checks in long runs and block test exit if workers
	// required a consumer.
}

// TestParallelScanBackpressure: a consumer that stops pulling caps the
// workers at the in-flight segment budget (2×degree), so resident segments
// stay O(degree), not O(table). Scans clone nothing, so the bound is read
// off the worker-occupancy counters EXPLAIN ANALYZE reports.
func TestParallelScanBackpressure(t *testing.T) {
	const nSeg = 12
	tbl := bigTable(t, nSeg*storage.SegmentSize)
	it, err := NewParallelScan(tbl, 2, nil, ctx())
	if err != nil {
		t.Fatal(err)
	}
	defer it.(Stopper).Stop()
	if _, ok, err := it.Next(); err != nil || !ok {
		t.Fatalf("Next = %v, %v", ok, err)
	}
	// Let the workers run as far as the token budget allows, then stall.
	time.Sleep(200 * time.Millisecond)
	var claimed int64
	for w := range it.(*parallelScan).workerSegs {
		claimed += it.(*parallelScan).workerSegs[w].Load()
	}
	// Budget 4 in flight + the 1 consumed segment's released token; far
	// below the 12 segments an unbounded fan-out would have claimed.
	if claimed < 1 || claimed > 5 {
		t.Fatalf("stalled consumer: workers claimed %d segments, want 1..5 (token budget)", claimed)
	}
}

// TestParallelScanStop: Stop releases the workers deterministically and a
// (contract-violating but tolerated) Next afterwards terminates instead of
// waiting for segments that will never arrive.
func TestParallelScanStop(t *testing.T) {
	tbl := bigTable(t, 6*storage.SegmentSize)
	it, err := NewParallelScan(tbl, 2, nil, ctx())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := it.Next(); err != nil || !ok {
		t.Fatalf("Next = %v, %v", ok, err)
	}
	it.(Stopper).Stop()
	for i := 0; i < 7*storage.SegmentSize; i++ {
		_, ok, err := it.Next()
		if err != nil {
			t.Fatalf("Next after Stop: %v", err)
		}
		if !ok {
			return
		}
	}
	t.Fatal("stream did not terminate after Stop")
}

// TestIndexScanLazyClones is the regression test for the old eager
// NewIndexScan, which cloned every matching row before the first Next().
// A LIMIT-1 consumer must cost O(1) tuple clones, not O(matches).
func TestIndexScanLazyClones(t *testing.T) {
	const n = 5000
	tbl := bigTable(t, n)
	if err := tbl.CreateIndex(storage.IndexTarget{Attr: "qty"}, storage.IndexBTree); err != nil {
		t.Fatal(err)
	}
	// A range matching most of the table.
	it, err := NewIndexScan(tbl, storage.IndexTarget{Attr: "qty"},
		storage.Incl(value.Int(0)), storage.Incl(value.Int(1000)))
	if err != nil {
		t.Fatal(err)
	}
	before := storage.TupleClones()
	lim := NewLimit(it, 1, 0)
	out := drain(t, lim)
	cloned := storage.TupleClones() - before
	if out.Len() != 1 {
		t.Fatalf("limit 1 over index scan = %d rows", out.Len())
	}
	// One clone for the emitted row; allow a little slack for skipped
	// dead rows, but nothing near the thousands of matches.
	if cloned > 8 {
		t.Fatalf("LIMIT 1 over indexed scan cloned %d tuples, want O(1)", cloned)
	}
}
