// Package sharedscantest exercises the sharedscan analyzer: the query
// path reads tables through the zero-clone column views; the cloning
// Table.Scan is flagged wherever it appears, DML-shaped code included.
package sharedscantest

import (
	"repro/internal/relation"
	"repro/internal/storage"
)

// countCols is the streaming query-path shape: ScanSegmentCols reads the
// requested column vectors straight off the heap's immutable runs, one
// segment at a time — never flagged.
func countCols(t *storage.Table) int {
	n := 0
	var cs storage.ColSeg
	for i := 0; t.ScanSegmentCols(i, []int{0}, &cs); i++ {
		n += cs.Live()
	}
	return n
}

// collectForUpdate is the DML shape: one SnapshotCols capture sees the
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
