package qql

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/value"
)

// TestWholeTableReadsSeeEachRowOnce is the cross-segment consistency check
// for the readers that must see one table state: SnapshotCols, Catalog.Save,
// SELECT and DML collection. A writer moves keys out of earlier segments —
// delete, then reinsert, so the key lands in the tail segment — while
// readers take SnapshotCols captures, Save the catalog, SELECT the whole
// table inline and fanned out, and UPDATE the key being moved. A reader
// that released the table lock between segments could see the key in
// segment 0 and again in the tail; no capture, saved file or SELECT may
// hold a key twice, and no UPDATE may match more than one row. Run with
// -race. With no index on co_name the UPDATE collects through a column scan
// of one snapshot.
func TestWholeTableReadsSeeEachRowOnce(t *testing.T) {
	testWholeTableReads(t, false)
}

// TestWholeTableReadsSeeEachRowOnceIndexed is the same check with a hash
// index on co_name, so the UPDATE collects through an index probe against
// the writer that moves keys between segments.
func TestWholeTableReadsSeeEachRowOnceIndexed(t *testing.T) {
	testWholeTableReads(t, true)
}

func testWholeTableReads(t *testing.T, indexed bool) {
	cat := storage.NewCatalog()
	s := NewSession(cat)
	s.MustExec(`CREATE TABLE customer (co_name string REQUIRED, employees int) KEY (co_name)`)
	// Unindexed, the UPDATE collects through a column scan, inline or
	// fanned out as the session's degree decides.
	wantPaths := []string{"BatchTableScan(customer WHERE ", "ParallelScan(customer, "}
	if indexed {
		s.MustExec(`CREATE INDEX ON customer (co_name) USING HASH`)
		wantPaths = []string{"IndexScan("}
	}
	tbl, _ := cat.Get("customer")
	key := func(i int) string { return fmt.Sprintf("k%05d", i) }
	const n = storage.SegmentSize + 100
	for i := 0; i < n; i++ {
		if _, err := tbl.Insert(relation.NewTuple(value.Str(key(i)), value.Int(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}

	var moving atomic.Int64 // index of the key the writer is moving
	stop := make(chan struct{})
	var readers, writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		// Cycle through every key: n exceeds a segment, so by the time a key
		// comes round again the tail has moved on and each move crosses
		// segments. The cap bounds table growth if the readers are slow.
		for i := 0; i < 20*n; i++ {
			select {
			case <-stop:
				return
			default:
			}
			moving.Store(int64(i % n))
			k := value.Str(key(i % n))
			id, ok := tbl.LookupKey(k)
			if !ok {
				t.Errorf("key %s missing", key(i%n))
				return
			}
			if err := tbl.Delete(id); err != nil {
				t.Error(err)
				return
			}
			if _, err := tbl.Insert(relation.NewTuple(k, value.Int(int64(i)))); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// noDuplicates reports the first key seen twice in names, or "". A
	// capture may fall between a move's delete and its reinsert, so it
	// holds n or n-1 rows.
	noDuplicates := func(names []string) string {
		seen := make(map[string]bool, len(names))
		for _, nm := range names {
			if seen[nm] {
				return nm
			}
			seen[nm] = true
		}
		return ""
	}
	readers.Add(5)
	for _, degree := range []int{1, 2} {
		go func() { // whole-table SELECTs, each one column scan
			defer readers.Done()
			rs := NewSession(cat)
			rs.SetParallelism(degree)
			for iter := 0; iter < 100; iter++ {
				rel, err := rs.Query(`SELECT co_name FROM customer`)
				if err != nil {
					t.Error(err)
					return
				}
				names := make([]string, rel.Len())
				for i, tup := range rel.Tuples {
					names[i] = tup.Cells[0].V.AsString()
				}
				if dup := noDuplicates(names); dup != "" || len(names) < n-1 || len(names) > n {
					t.Errorf("SELECT %d at degree %d: %d rows, %q twice", iter, degree, len(names), dup)
					return
				}
			}
		}()
	}
	go func() { // SnapshotCols captures
		defer readers.Done()
		for iter := 0; iter < 100; iter++ {
			var names []string
			for _, cs := range tbl.SnapshotCols([]int{0}) {
				for k := 0; k < cs.Live(); k++ {
					off := k
					if cs.Sel != nil {
						off = int(cs.Sel[k])
					}
					names = append(names, cs.Cols[0].Vals[off].AsString())
				}
			}
			if dup := noDuplicates(names); dup != "" || len(names) < n-1 || len(names) > n {
				t.Errorf("capture %d: %d rows, %q twice", iter, len(names), dup)
				return
			}
		}
	}()
	go func() { // checkpoints
		defer readers.Done()
		for iter := 0; iter < 5; iter++ {
			var buf bytes.Buffer
			if err := cat.Save(&buf); err != nil {
				t.Error(err)
				return
			}
			var doc struct {
				Tables []struct {
					Rows [][]struct {
						V struct {
							V string `json:"v"`
						} `json:"v"`
					} `json:"rows"`
				} `json:"tables"`
			}
			if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
				t.Error(err)
				return
			}
			var names []string
			for _, row := range doc.Tables[0].Rows {
				names = append(names, row[0].V.V)
			}
			if dup := noDuplicates(names); dup != "" || len(names) < n-1 || len(names) > n {
				t.Errorf("save %d: %d rows, %q twice", iter, len(names), dup)
				return
			}
		}
	}()
	go func() { // DML on the key in flight
		defer readers.Done()
		us := NewSession(cat)
		for iter := 0; iter < 200; iter++ {
			k := key(int(moving.Load()))
			res, err := us.Exec(`UPDATE customer SET employees = employees + 1 WHERE co_name = '` + k + `'`)
			if err != nil {
				// The row matched may be deleted before the update applies;
				// that race belongs to collect-then-apply, not to collection.
				if !strings.Contains(err.Error(), "dead row") {
					t.Error(err)
					return
				}
				continue
			}
			var rows int
			if _, err := fmt.Sscanf(res[0].Msg, "updated %d row(s)", &rows); err != nil {
				t.Error(err)
				return
			}
			if rows > 1 {
				t.Errorf("UPDATE of %s matched %d rows", k, rows)
				return
			}
			if path := us.LastExecInfo().PlanShape; !slices.ContainsFunc(wantPaths, func(p string) bool { return strings.HasPrefix(path, p) }) {
				t.Errorf("UPDATE collected via %q, want one of %q", path, wantPaths)
				return
			}
		}
	}()
	readers.Wait()
	close(stop)
	writer.Wait()
}
