package algebra

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/value"
)

// tailShape builds one of the planner's tails over a scan: the operators
// buildSelect stacks above the access path, with limit < 0 for none and a
// failing ORDER BY key (or computed item, where the shape has no sort)
// when bad.
type tailShape struct {
	name  string
	build func(scan BatchIterator, limit int, bad bool) (BatchIterator, error)
}

// sortedBy orders in by key, failing with integer division by zero when
// bad.
func sortedBy(in BatchIterator, key string, desc, bad bool) (BatchIterator, error) {
	var e Expr = &ColRef{Name: key}
	if bad {
		e = &Arith{OpDiv, e, &Const{value.Int(0)}}
	}
	return NewSort(in, []SortKey{{Expr: e, Desc: desc}}, ctx(), 0)
}

// projectedLimit projects items and applies the limit, as every tail ends.
func projectedLimit(in BatchIterator, items []ProjectItem, distinct bool, limit int) (BatchIterator, error) {
	out, err := NewBatchProject(in, items, ctx(), 0)
	if err != nil {
		return nil, err
	}
	if distinct {
		out = NewDistinct(out)
	}
	if limit >= 0 {
		out = NewBatchLimit(out, limit, 0)
	}
	return out, nil
}

// badItem is a computed item that fails on every row: int + string.
func badItem() ProjectItem {
	return ProjectItem{Expr: &Arith{OpAdd, &ColRef{Name: "id"}, &ColRef{Name: "grp"}}, As: "broken"}
}

var tailShapes = []tailShape{
	{"sort", func(scan BatchIterator, limit int, bad bool) (BatchIterator, error) {
		sorted, err := sortedBy(scan, "qty", false, bad)
		if err != nil {
			return nil, err
		}
		return projectedLimit(sorted, []ProjectItem{{Expr: &ColRef{Name: "id"}}, {Expr: &ColRef{Name: "qty"}}}, false, limit)
	}},
	{"distinct", func(scan BatchIterator, limit int, bad bool) (BatchIterator, error) {
		item := ProjectItem{Expr: &ColRef{Name: "grp"}}
		if bad {
			item = badItem()
		}
		return projectedLimit(scan, []ProjectItem{item}, true, limit)
	}},
	{"limit", func(scan BatchIterator, limit int, bad bool) (BatchIterator, error) {
		item := ProjectItem{Expr: &ColRef{Name: "id"}}
		if bad {
			item = badItem()
		}
		return projectedLimit(scan, []ProjectItem{item}, false, limit)
	}},
	{"aggregate", func(scan BatchIterator, limit int, bad bool) (BatchIterator, error) {
		agg, err := NewBatchGroupedAggregate(scan, []Expr{&ColRef{Name: "grp"}}, []AggSpec{{Fn: AggCount, As: "n"}}, ctx(), 0)
		if err != nil {
			return nil, err
		}
		proj, err := NewBatchProject(agg, []ProjectItem{{Expr: &ColRef{Name: "grp"}}, {Expr: &ColRef{Name: "n"}}}, ctx(), 0)
		if err != nil {
			return nil, err
		}
		sorted, err := sortedBy(proj, "n", true, bad)
		if err != nil {
			return nil, err
		}
		if limit >= 0 {
			sorted = NewBatchLimit(sorted, limit, 0)
		}
		return sorted, nil
	}},
}

// TestTailTeardown: over a scan fanned out to four workers across four
// segments, every tail shape releases the workers however its plan ends —
// drained by Collect, stopped by a filled LIMIT, failed mid-stream by an
// ORDER BY key (or projection) error, or never executed, as an EXPLAIN
// leaves it: built and stopped, with nothing pulled. Each case waits on
// the scan's own workers; an un-executed plan must not have started them
// at all — the aggregate included, which drains its input on the first
// pull, not when it is built.
func TestTailTeardown(t *testing.T) {
	tbl := bigTable(t, 3*storage.SegmentSize+500)
	live := tbl.Len()
	type ending struct {
		name  string
		limit int
		bad   bool
		run   func(BatchIterator) (int, error) // -1 rows: not executed
	}
	collect := func(it BatchIterator) (int, error) {
		out, err := Collect(it)
		if err != nil {
			return 0, err
		}
		return out.Len(), nil
	}
	explain := func(it BatchIterator) (int, error) {
		it.(Stopper).Stop()
		return -1, nil
	}
	endings := []ending{
		{"drained", -1, false, collect},
		{"limit", 5, false, collect},
		{"error", -1, true, collect},
		{"explain", -1, false, explain},
	}
	wantRows := map[string]int{"sort": live, "distinct": 5, "limit": live, "aggregate": 5}
	for _, shape := range tailShapes {
		for _, end := range endings {
			name := fmt.Sprintf("%s/%s", shape.name, end.name)
			scan := parScan(t, tbl, 4, nil)
			it, err := shape.build(scan, end.limit, end.bad)
			if err != nil {
				t.Fatalf("%s: build: %v", name, err)
			}
			rows, err := end.run(it)
			switch {
			case end.bad:
				want := "value: integer division by zero"
				if shape.name == "distinct" || shape.name == "limit" {
					want = "value: cannot add int and string"
				}
				if err == nil || err.Error() != want {
					t.Errorf("%s: err = %v, want %s", name, err, want)
				}
			case err != nil:
				t.Fatalf("%s: %v", name, err)
			case end.limit >= 0 && rows != end.limit, end.limit < 0 && rows >= 0 && rows != wantRows[shape.name]:
				t.Errorf("%s: %d rows", name, rows)
			}
			sc := scan.(*batchColScan)
			if sc.fan == nil {
				if rows >= 0 || end.bad {
					t.Fatalf("%s: the scan never ran", name)
				}
				continue // nothing executed: no worker to wait for
			}
			if rows < 0 {
				t.Fatalf("%s: an un-executed plan started its scan", name)
			}
			select {
			case <-sc.fan.exited:
			case <-time.After(5 * time.Second):
				t.Fatalf("%s: scan workers still running 5s after the plan ended", name)
			}
		}
	}
}
