// Package sharedscantest exercises the sharedscan analyzer: the query
// path reads tables through the zero-clone column views; the cloning
// Table.Scan and Table.Get are flagged wherever they appear, DML-shaped
// code included. It evaluates expressions compiled; the tree-walking
// reference evaluator is flagged.
package sharedscantest

import (
	"repro/internal/algebra"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/value"
)

// countCols is the query-path scan shape: one SnapshotCols capture reads
// the requested column vectors straight off the heap's immutable runs,
// the whole table at one instant — never flagged.
func countCols(t *storage.Table) int {
	n := 0
	for _, cs := range t.SnapshotCols([]int{0}) {
		n += cs.Live()
	}
	return n
}

// countSegmentsBad views one segment per read lock: a row the writer moves
// from segment 0 to the tail between two calls is counted twice.
func countSegmentsBad(t *storage.Table) int {
	n := 0
	var cs storage.ColSeg
	for i := 0; t.ScanSegmentCols(i, []int{0}, &cs); i++ { // want `Table.ScanSegmentCols reads one segment per lock`
		n += cs.Live()
	}
	return n
}

// collectForUpdate is a whole-row shape: one SnapshotCols capture sees the
// whole table at one instant, and a scratch row is refilled per live slot
// — never flagged.
func collectForUpdate(t *storage.Table) []storage.RowID {
	var ids []storage.RowID
	cells := make([]relation.Cell, 1)
	for _, cs := range t.SnapshotCols([]int{0}) {
		for k := 0; k < cs.Live(); k++ {
			ids = append(ids, cs.RowInto(k, cells))
		}
	}
	return ids
}

// visitBad uses the cloning visitor scan on a read-only pass.
func visitBad(t *storage.Table) int {
	n := 0
	t.Scan(func(_ storage.RowID, _ relation.Tuple) bool { // want `Table.Scan clones every row`
		n++
		return true
	})
	return n
}

// deleteBad shows DML gets no escape: a cloning collect is flagged too.
func deleteBad(t *storage.Table) []storage.RowID {
	var ids []storage.RowID
	t.Scan(func(id storage.RowID, _ relation.Tuple) bool { // want `Table.Scan clones every row`
		ids = append(ids, id)
		return true
	})
	return ids
}

// probeRows is the index-probe shape: ViewRows reads the probed rows of one
// segment at a time as a selection over the column views, and Catalog.Get
// is a name lookup, not a row read — never flagged.
func probeRows(c *storage.Catalog, ids []storage.RowID) int {
	t, ok := c.Get("t")
	if !ok {
		return 0
	}
	n := 0
	var cs storage.ColSeg
	for len(ids) > 0 {
		ids = t.ViewRows(ids, []int{0}, &cs)
		n += len(cs.Sel)
	}
	return n
}

// probeBad reads probed rows one cloned tuple at a time.
func probeBad(t *storage.Table, ids []storage.RowID) []relation.Tuple {
	var out []relation.Tuple
	for _, id := range ids {
		if tup, ok := t.Get(id); ok { // want `Table.Get clones every row`
			out = append(out, tup)
		}
	}
	return out
}

// insertValue is the DML shape: the expression compiled once, then run
// over the empty row an INSERT reads — never flagged.
func insertValue(e algebra.Expr, ctx *algebra.EvalContext) (value.Value, error) {
	return algebra.Compile(e)(relation.Tuple{}, ctx)
}

// insertValueBad evaluates an INSERT value through the test oracle.
func insertValueBad(e algebra.Expr, ctx *algebra.EvalContext) (value.Value, error) {
	return algebra.Reference(e, relation.Tuple{}, ctx) // want `algebra.Reference is the test oracle`
}

// keepBad filters a row through the oracle's truth test.
func keepBad(e algebra.Expr, row relation.Tuple, ctx *algebra.EvalContext) bool {
	ok, err := algebra.ReferenceTruth(e, row, ctx) // want `algebra.ReferenceTruth is the test oracle`
	return ok && err == nil
}

// keep is the filter shape: a compiled predicate — never flagged.
func keep(e algebra.Expr, row relation.Tuple, ctx *algebra.EvalContext) bool {
	ok, err := algebra.CompilePredicate(e)(row, ctx)
	return ok && err == nil
}
