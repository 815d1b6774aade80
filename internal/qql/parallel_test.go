package qql

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/value"
)

// bigCatalog returns a session over a table spanning several heap segments
// (no secondary indexes), so unindexed scans are eligible for fan-out.
func bigCatalog(t *testing.T, n int) (*Session, *storage.Table) {
	t.Helper()
	cat := storage.NewCatalog()
	s := NewSession(cat)
	s.MustExec(`CREATE TABLE big (id int REQUIRED, grp string, qty int) KEY (id)`)
	tbl, _ := cat.Get("big")
	for i := 0; i < n; i++ {
		_, err := tbl.Insert(relation.NewTuple(
			value.Int(int64(i)),
			value.Str(fmt.Sprintf("g%d", i%7)),
			value.Int(int64((i*37)%1000)),
		))
		if err != nil {
			t.Fatal(err)
		}
	}
	return s, tbl
}

func TestPlanRoutesLargeScansThroughParallelScan(t *testing.T) {
	const n = 2*storage.SegmentSize + 100 // 3 segments
	s, _ := bigCatalog(t, n)
	s.SetParallelism(8)

	// Unindexed filtered scan: ParallelScan with the predicate fused,
	// degree clamped to the segment count.
	res := s.MustExec(`EXPLAIN SELECT id FROM big WHERE qty >= 500`)
	if !strings.Contains(res[0].Plan, "ParallelScan(big, ×3: ") {
		t.Errorf("plan missing fused ParallelScan:\n%s", res[0].Plan)
	}
	if strings.Contains(res[0].Plan, "Select(") {
		t.Errorf("fused predicate should consume the Select step:\n%s", res[0].Plan)
	}
	// No predicate: still parallel, no fused clause.
	res = s.MustExec(`EXPLAIN SELECT id FROM big`)
	if !strings.Contains(res[0].Plan, "ParallelScan(big, ×3)") {
		t.Errorf("bare scan plan:\n%s", res[0].Plan)
	}
	// A bare LIMIT stops pulling early: the lazy serial scan (one segment
	// materialized at a time) must win over fan-out workers that would eagerly
	// copy the whole table.
	res = s.MustExec(`EXPLAIN SELECT id FROM big WHERE qty >= 500 LIMIT 5`)
	if !strings.Contains(res[0].Plan, "TableScan(big)") {
		t.Errorf("LIMIT plan should stay serial:\n%s", res[0].Plan)
	}
	// ...but LIMIT behind a Sort or an Aggregate drains the scan anyway,
	// so fan-out still applies.
	res = s.MustExec(`EXPLAIN SELECT id FROM big WHERE qty >= 500 ORDER BY qty LIMIT 5`)
	if !strings.Contains(res[0].Plan, "ParallelScan(big, ×3") {
		t.Errorf("ORDER BY + LIMIT plan should fan out:\n%s", res[0].Plan)
	}
	res = s.MustExec(`EXPLAIN SELECT COUNT(*) AS n FROM big WHERE qty >= 500 LIMIT 1`)
	if !strings.Contains(res[0].Plan, "ParallelScan(big, ×3") {
		t.Errorf("aggregate + LIMIT plan should fan out:\n%s", res[0].Plan)
	}
	// Parallelism 1 forces the serial TableScan.
	s.SetParallelism(1)
	res = s.MustExec(`EXPLAIN SELECT id FROM big WHERE qty >= 500`)
	if !strings.Contains(res[0].Plan, "TableScan(big)") {
		t.Errorf("serial plan:\n%s", res[0].Plan)
	}
	// An applicable index wins over fan-out.
	s.SetParallelism(8)
	s.MustExec(`CREATE INDEX ON big (qty) USING BTREE`)
	res = s.MustExec(`EXPLAIN SELECT id FROM big WHERE qty >= 500`)
	if !strings.Contains(res[0].Plan, "IndexScan") {
		t.Errorf("indexed plan should not fan out:\n%s", res[0].Plan)
	}
}

// TestParallelQueryErrorReleasesWorkers: a projection error mid-stream
// over a parallel plan surfaces cleanly; the session releases the scan
// workers deterministically (plan.release) rather than leaking them to GC.
func TestParallelQueryErrorReleasesWorkers(t *testing.T) {
	const n = 2*storage.SegmentSize + 10
	s, _ := bigCatalog(t, n)
	s.SetParallelism(4)
	if _, err := s.Query(`SELECT id + grp AS broken FROM big`); err == nil {
		t.Fatal("int + string projection should error")
	}
	// The session stays usable afterwards.
	out, err := s.Query(`SELECT COUNT(*) AS n FROM big`)
	if err != nil || out.Tuples[0].Cells[0].V.AsInt() != n {
		t.Fatalf("after error: %v, %v", out, err)
	}
}

func TestSmallTablesStaySerial(t *testing.T) {
	s, _ := bigCatalog(t, 100)
	s.SetParallelism(8)
	res := s.MustExec(`EXPLAIN SELECT id FROM big WHERE qty >= 500`)
	if strings.Contains(res[0].Plan, "ParallelScan") {
		t.Errorf("small table should scan serially:\n%s", res[0].Plan)
	}
}

func TestParallelQueryMatchesSerial(t *testing.T) {
	const n = 2*storage.SegmentSize + 57
	s, tbl := bigCatalog(t, n)
	// Delete a scattering of rows so liveness holes cross segments.
	for i := 0; i < n; i += 11 {
		if err := tbl.Delete(storage.RowID(i)); err != nil {
			t.Fatal(err)
		}
	}
	queries := []string{
		`SELECT * FROM big`,
		`SELECT id, qty FROM big WHERE qty >= 250 AND grp != 'g3'`,
		`SELECT grp, COUNT(*) AS n FROM big WHERE qty < 800 GROUP BY grp`,
		`SELECT id FROM big WHERE qty >= 100 ORDER BY qty DESC, id LIMIT 25`,
	}
	for _, q := range queries {
		s.SetParallelism(1)
		serial, err := s.Query(q)
		if err != nil {
			t.Fatalf("%s serial: %v", q, err)
		}
		s.SetParallelism(6)
		par, err := s.Query(q)
		if err != nil {
			t.Fatalf("%s parallel: %v", q, err)
		}
		if sf, pf := relation.Format(serial, true), relation.Format(par, true); sf != pf {
			t.Errorf("%s: parallel result differs from serial", q)
		}
	}
}
