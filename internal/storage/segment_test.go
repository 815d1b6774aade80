package storage

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/value"
)

// fillRows inserts n distinct rows and returns their IDs.
func fillRows(t *testing.T, tbl *Table, n int) []RowID {
	t.Helper()
	ids := make([]RowID, n)
	for i := 0; i < n; i++ {
		id, err := tbl.Insert(custTuple(fmt.Sprintf("co-%06d", i), "addr", int64(i), t0, "s"))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return ids
}

func TestSegmentedHeapLayout(t *testing.T) {
	tbl := NewTable(custSchema(), true)
	if tbl.Segments() != 0 {
		t.Errorf("empty table Segments = %d", tbl.Segments())
	}
	const n = SegmentSize + 100
	ids := fillRows(t, tbl, n)
	if got := tbl.Segments(); got != 2 {
		t.Fatalf("Segments = %d, want 2", got)
	}
	// Row IDs are dense and map to (segment, offset).
	for i, id := range ids {
		if int(id) != i {
			t.Fatalf("id[%d] = %d", i, id)
		}
	}
	var cs ColSeg
	if !tbl.ScanSegmentCols(0, []int{2}, &cs) || cs.Live() != SegmentSize || cs.Base != 0 {
		t.Fatalf("segment 0 has %d rows at base %d, want %d at 0", cs.Live(), cs.Base, SegmentSize)
	}
	if !tbl.ScanSegmentCols(1, []int{2}, &cs) || cs.Live() != 100 {
		t.Fatalf("segment 1 has %d rows, want 100", cs.Live())
	}
	if cs.Base != RowID(SegmentSize) || cs.Cols[0].Vals[0].AsInt() != SegmentSize {
		t.Errorf("segment 1 starts at id %d row %v", cs.Base, cs.Cols[0].Vals[0])
	}
	// Out-of-range segments report absent, not a panic.
	if tbl.ScanSegmentCols(2, []int{2}, &cs) || tbl.ScanSegmentCols(-1, []int{2}, &cs) {
		t.Error("out-of-range segment reported present")
	}
	// Deletions disappear from their segment; others keep row-ID order.
	if err := tbl.Delete(ids[1]); err != nil {
		t.Fatal(err)
	}
	views := tbl.SnapshotCols([]int{0})
	if len(views) != 2 || views[0].Live() != SegmentSize-1 || views[1].Live() != 100 {
		t.Fatalf("after delete: %d views", len(views))
	}
	cells := make([]relation.Cell, 1)
	if id := views[0].RowInto(0, cells); id != ids[0] {
		t.Errorf("live row 0 is id %d, want %d", id, ids[0])
	}
	if id := views[0].RowInto(1, cells); id != ids[2] || cells[0].V.AsString() != "co-000002" {
		t.Errorf("live row 1 is id %d %v, want %d", id, cells[0].V, ids[2])
	}
	// RowInto fills caller-owned cells: mutating them leaves the table intact.
	cells[0] = relation.Cell{V: value.Str("clobbered")}
	if got, _ := tbl.Get(ids[2]); got.Cells[0].V.AsString() == "clobbered" {
		t.Error("RowInto aliased table storage")
	}
	// Cross-segment Get/Update/Delete still address the right slots.
	last := ids[len(ids)-1]
	if got, ok := tbl.Get(last); !ok || got.Cells[2].V.AsInt() != int64(n-1) {
		t.Errorf("Get(%d) = %v, %v", last, got, ok)
	}
	if err := tbl.Update(last, custTuple("co-updated", "addr", 999999, t0, "s")); err != nil {
		t.Fatal(err)
	}
	if got, _ := tbl.Get(last); got.Cells[0].V.AsString() != "co-updated" {
		t.Error("cross-segment update lost")
	}
	if tbl.Len() != n-1 {
		t.Errorf("Len = %d, want %d", tbl.Len(), n-1)
	}
	// A fully dead segment reads as empty, not as all-live, even through a
	// fresh view whose selection buffer has never been allocated.
	for _, id := range ids[SegmentSize:] {
		if err := tbl.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	var fresh ColSeg
	if !tbl.ScanSegmentCols(1, []int{0}, &fresh) || fresh.Live() != 0 {
		t.Errorf("dead segment view has %d live rows", fresh.Live())
	}
	if views := tbl.SnapshotCols(nil); views[1].Live() != 0 || len(views[1].Cols) != 0 {
		t.Errorf("dead segment snapshot has %d live rows", views[1].Live())
	}
}

// TestScanVisitorReentrancy is the regression test for the old
// lock-across-callback bug: Table.Scan used to hold t.mu.RLock() while
// invoking the visitor, so a visitor calling any other RLock-taking method
// while a writer was queued deadlocked (sync.RWMutex blocks new readers
// once a writer waits). The segment-wise scan runs the visitor lockless;
// this test deadlocks (and times out) on the old implementation. Run with
// -race.
func TestScanVisitorReentrancy(t *testing.T) {
	tbl := NewTable(custSchema(), true)
	fillRows(t, tbl, 64)

	done := make(chan struct{})
	go func() {
		defer close(done)
		writerStarted := make(chan struct{})
		writerDone := make(chan error, 1)
		first := true
		tbl.Scan(func(id RowID, tup relation.Tuple) bool {
			if first {
				first = false
				go func() {
					close(writerStarted)
					_, err := tbl.Insert(custTuple("queued-writer", "addr", 1, t0, "s"))
					writerDone <- err
				}()
				<-writerStarted
				// Give the writer time to queue on t.mu. With the old
				// whole-scan RLock the Get below would then deadlock.
				time.Sleep(20 * time.Millisecond)
				if _, ok := tbl.Get(id); !ok {
					t.Errorf("visitor Get(%d) failed", id)
				}
				if _, err := tbl.LookupEq(IndexTarget{Attr: "co_name"}, tup.Cells[0].V); err != nil {
					t.Errorf("visitor LookupEq: %v", err)
				}
			}
			return true
		})
		if err := <-writerDone; err != nil {
			t.Errorf("queued writer: %v", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("scan deadlocked: visitor re-entry blocked behind a queued writer")
	}
	if tbl.Len() != 65 {
		t.Errorf("Len = %d, want 65", tbl.Len())
	}
}

func TestScanSeesSegmentConsistentView(t *testing.T) {
	tbl := NewTable(custSchema(), true)
	ids := fillRows(t, tbl, SegmentSize+10)
	// A visitor may mutate rows it has already been handed; the scan keeps
	// going over its segment copies.
	visited := 0
	tbl.Scan(func(id RowID, tup relation.Tuple) bool {
		visited++
		if id == ids[0] {
			if err := tbl.Delete(ids[2]); err != nil {
				t.Errorf("delete during scan: %v", err)
			}
		}
		return true
	})
	// ids[2] was deleted after segment 0 was snapshotted, so it was still
	// visited; the next scan omits it.
	if visited != SegmentSize+10 {
		t.Errorf("first scan visited %d", visited)
	}
	visited = 0
	tbl.Scan(func(RowID, relation.Tuple) bool { visited++; return true })
	if visited != SegmentSize+9 {
		t.Errorf("second scan visited %d", visited)
	}
}

// TestViewRows: each call views the segment of the first probed ID,
// selects the probed rows of that segment still live and returns the rest;
// a segment whose probed rows are all dead gives an empty, non-nil
// selection, and nothing is cloned.
func TestViewRows(t *testing.T) {
	tbl := NewTable(custSchema(), true)
	ids := fillRows(t, tbl, 2*SegmentSize+50)
	dead := []RowID{5, 2*SegmentSize + 40}
	for off := 0; off < SegmentSize; off++ {
		dead = append(dead, SegmentSize+RowID(off)) // all of segment 1
	}
	for _, id := range dead {
		if err := tbl.Delete(ids[id]); err != nil {
			t.Fatal(err)
		}
	}
	probe := []RowID{3, 5, 10, SegmentSize + 1, SegmentSize + 7, 2*SegmentSize + 2, 2*SegmentSize + 40}
	want := []struct {
		base RowID
		sel  []int32
		rest int
	}{
		{0, []int32{3, 10}, 4},
		{SegmentSize, []int32{}, 2},
		{2 * SegmentSize, []int32{2}, 0},
	}
	before := TupleClones()
	var cs ColSeg
	rest := probe
	for i, w := range want {
		rest = tbl.ViewRows(rest, []int{0, 2}, &cs)
		if cs.Base != w.base || len(rest) != w.rest || cs.Sel == nil || fmt.Sprint(cs.Sel) != fmt.Sprint(w.sel) {
			t.Fatalf("call %d: base %d, sel %v (nil %v), %d left; want base %d, sel %v, %d left",
				i, cs.Base, cs.Sel, cs.Sel == nil, len(rest), w.base, w.sel, w.rest)
		}
		cells := make([]relation.Cell, len(cs.Cols))
		for k := 0; k < cs.Live(); k++ {
			id := cs.RowInto(k, cells)
			if name := fmt.Sprintf("co-%06d", id); cells[0].V.AsString() != name || cells[1].V.AsInt() != int64(id) {
				t.Errorf("call %d: row %d = %v, want %s", i, id, cells, name)
			}
		}
	}
	if rest = tbl.ViewRows(rest, []int{0}, &cs); rest != nil || cs.Base != 2*SegmentSize {
		t.Errorf("empty probe: rest %v, view base %d; want nil and the view untouched", rest, cs.Base)
	}
	if d := TupleClones() - before; d != 0 {
		t.Errorf("ViewRows cloned %d tuples", d)
	}
}
