package qql

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/tag"
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

	// Unindexed filtered scan: ParallelScan carrying the filter, degree
	// clamped to the segment count.
	res := s.MustExec(`EXPLAIN SELECT id FROM big WHERE qty >= 500`)
	if !strings.Contains(res[0].Plan, "ParallelScan(big, ×3 WHERE ") {
		t.Errorf("plan missing filtered ParallelScan:\n%s", res[0].Plan)
	}
	if strings.Contains(res[0].Plan, "Select(") {
		t.Errorf("the scan's filter should consume the Select step:\n%s", res[0].Plan)
	}
	// No predicate: still parallel, no filter.
	res = s.MustExec(`EXPLAIN SELECT id FROM big`)
	if !strings.Contains(res[0].Plan, "ParallelScan(big, ×3)") {
		t.Errorf("bare scan plan:\n%s", res[0].Plan)
	}
	// A bare LIMIT stops pulling early: the inline scan (one window at a
	// time) must win over fan-out workers that would eagerly load and
	// filter the whole table.
	res = s.MustExec(`EXPLAIN SELECT id FROM big WHERE qty >= 500 LIMIT 5`)
	if !strings.Contains(res[0].Plan, "BatchTableScan(big WHERE ") {
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
	// Parallelism 1 forces the inline BatchTableScan.
	s.SetParallelism(1)
	res = s.MustExec(`EXPLAIN SELECT id FROM big WHERE qty >= 500`)
	if !strings.Contains(res[0].Plan, "BatchTableScan(big WHERE ") {
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

// TestOrderByKeyError: a failing ORDER BY key over a fanned-out scan
// surfaces the evaluator's own error text, below a projection and above an
// aggregate alike; an EXPLAIN of the same query executes nothing, so it
// succeeds; and the session stays usable.
func TestOrderByKeyError(t *testing.T) {
	const n = 2*storage.SegmentSize + 10
	s, _ := bigCatalog(t, n)
	s.SetParallelism(4)
	for _, q := range []string{
		`SELECT id FROM big ORDER BY qty / 0`,
		`SELECT grp, COUNT(*) AS n FROM big GROUP BY grp ORDER BY n / 0 LIMIT 2`,
	} {
		if _, err := s.Query(q); err == nil || err.Error() != "value: integer division by zero" {
			t.Errorf("%q: err = %v, want value: integer division by zero", q, err)
		}
		if _, err := s.Exec("EXPLAIN " + q); err != nil {
			t.Errorf("EXPLAIN %q: %v", q, err)
		}
	}
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

// holeyCatalog is a session over a tagged table of five-plus segments
// whose segments cover what a parallel segment load must get right: segment
// 1 is wholly deleted, no cell of segment 2 carries a tag (its grp run has
// no tag run, under an indicator predicate too), and the others lose every
// 11th row and tag every 3rd grp cell. id rises with the insert order, so a
// range on it prunes whole segments by their min/max statistics.
func holeyCatalog(t *testing.T) *Session {
	t.Helper()
	const n = 4*storage.SegmentSize + 57
	cat := storage.NewCatalog()
	s := NewSession(cat)
	s.MustExec(`CREATE TABLE big (id int REQUIRED, grp string QUALITY (source string), qty int) KEY (id)`)
	tbl, _ := cat.Get("big")
	for i := 0; i < n; i++ {
		grp := relation.Cell{V: value.Str(fmt.Sprintf("g%d", i%7))}
		if i/storage.SegmentSize != 2 && i%3 == 0 {
			grp.Tags = tag.NewSet(tag.Tag{Indicator: "source", Value: value.Str([]string{"a", "b", "c"}[i%9/3])})
		}
		if _, err := tbl.Insert(relation.Tuple{Cells: []relation.Cell{
			{V: value.Int(int64(i))}, grp, {V: value.Int(int64((i * 37) % 1000))},
		}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if i/storage.SegmentSize == 1 || i%11 == 0 {
			if err := tbl.Delete(storage.RowID(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s
}

func TestParallelQueryMatchesSerial(t *testing.T) {
	s := holeyCatalog(t)
	s.SetPlanCache(NewPlanCache(16))
	pruneFrom := 3*storage.SegmentSize + 5 // refutes segments 0–2 by id range
	queries := []string{
		`SELECT * FROM big`,
		`SELECT id, qty FROM big WHERE qty >= 250 AND grp != 'g3'`,
		`SELECT grp, COUNT(*) AS n FROM big WHERE qty < 800 GROUP BY grp`,
		`SELECT id FROM big WHERE qty >= 100 ORDER BY qty DESC, id LIMIT 25`,
		`SELECT COUNT(*) AS n FROM big WITH QUALITY grp@source = 'a'`,
		`SELECT id, grp FROM big WHERE qty < 500 WITH QUALITY grp@source != 'b'`,
		`SELECT grp@source AS src, COUNT(*) AS n, SUM(qty) AS s FROM big GROUP BY grp@source`,
		`SELECT id FROM big WHERE grp LIKE 'g1%' WITH QUALITY grp@source = 'c'`,
		fmt.Sprintf(`SELECT id, qty FROM big WHERE id >= %d`, pruneFrom),
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
		if serial.Len() == 0 {
			t.Errorf("%s: empty answer proves nothing", q)
		}
		if sf, pf := relation.Format(serial, true), relation.Format(par, true); sf != pf {
			t.Errorf("%s: parallel result differs from serial", q)
		}
	}

	// The prune runs in the parallel scan's workers, and EXPLAIN ANALYZE
	// reports the segments they skipped.
	rep, err := s.AnalyzeQuery(queries[len(queries)-1])
	if err != nil {
		t.Fatal(err)
	}
	scan := stepByPrefix(t, rep, "ParallelScan(big, ×5 WHERE ")
	if !strings.HasSuffix(scan.Extra, "skipped=3") {
		t.Errorf("parallel scan extra = %q, want 3 segments skipped", scan.Extra)
	}
}

// TestParallelScanAllocsPerSegment is the allocation regression test for
// the parallel scan: a quality-filtered COUNT(*) over full segments
// allocates a small, segment-independent amount per segment — workers
// filter into recycled selection vectors over the heap runs instead of
// copying each segment's rows into a fresh cell arena.
func TestParallelScanAllocsPerSegment(t *testing.T) {
	const nSeg, runs = 12, 5
	cat := storage.NewCatalog()
	s := NewSession(cat)
	s.SetPlanCache(NewPlanCache(16))
	s.SetParallelism(4)
	s.MustExec(`CREATE TABLE big (id int REQUIRED, grp string QUALITY (source string), qty int) KEY (id)`)
	tbl, _ := cat.Get("big")
	for i := 0; i < nSeg*storage.SegmentSize; i++ {
		grp := relation.Cell{V: value.Str("g"), Tags: tag.NewSet(tag.Tag{Indicator: "source", Value: value.Str([]string{"a", "b"}[i%2])})}
		if _, err := tbl.Insert(relation.Tuple{Cells: []relation.Cell{{V: value.Int(int64(i))}, grp, {V: value.Int(int64(i % 1000))}}}); err != nil {
			t.Fatal(err)
		}
	}
	const q = `SELECT COUNT(*) AS n FROM big WITH QUALITY grp@source = 'a'`
	if plan := s.MustExec(`EXPLAIN ` + q)[0].Plan; !strings.Contains(plan, "ParallelScan(big, ×4 WITH QUALITY ") {
		t.Fatalf("query does not fan out:\n%s", plan)
	}
	if _, err := s.Query(q); err != nil { // warm the plan cache
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		out, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if n := out.Tuples[0].Cells[0].V.AsInt(); n != nSeg*storage.SegmentSize/2 {
			t.Fatalf("count = %d, want %d", n, nSeg*storage.SegmentSize/2)
		}
	}
	runtime.ReadMemStats(&after)
	perSeg := (after.TotalAlloc - before.TotalAlloc) / (runs * nSeg)
	t.Logf("%d B allocated per segment", perSeg)
	if perSeg > 32<<10 {
		t.Errorf("parallel quality count allocates %d B per segment, want ≤ 32 KiB", perSeg)
	}
}

// TestParallelScansBesideWriterRace runs fanned-out SELECTs — a
// quality-filtered COUNT, a grouped aggregate and a join whose left side
// fans out — while a second session issues keyed INSERTs, UPDATEs and
// DELETEs on the same multi-segment table. The parallel scan hands heap-run
// slices from its workers to the consumer and past the table lock, so CI
// repeats this under -race. Every base row is tagged source 'a' and the
// writer deletes only rows it inserted, so each count stays within
// [base, base + inserts issued].
func TestParallelScansBesideWriterRace(t *testing.T) {
	const base = 3*storage.SegmentSize + 100
	cat := storage.NewCatalog()
	setup := NewSession(cat)
	setup.MustExec(`CREATE TABLE big (id int REQUIRED, grp string QUALITY (source string), qty int) KEY (id)`)
	setup.MustExec(`CREATE TABLE dim (grp string REQUIRED, label string) KEY (grp)`)
	for g := 0; g < 7; g++ {
		setup.MustExec(fmt.Sprintf(`INSERT INTO dim VALUES ('g%d', 'group %d')`, g, g))
	}
	tbl, _ := cat.Get("big")
	for i := 0; i < base; i++ {
		grp := relation.Cell{V: value.Str(fmt.Sprintf("g%d", i%7)), Tags: tag.NewSet(tag.Tag{Indicator: "source", Value: value.Str("a")})}
		if _, err := tbl.Insert(relation.Tuple{Cells: []relation.Cell{{V: value.Int(int64(i))}, grp, {V: value.Int(int64(i % 1000))}}}); err != nil {
			t.Fatal(err)
		}
	}
	queries := []string{
		`SELECT COUNT(*) AS n FROM big WITH QUALITY grp@source = 'a'`,
		`SELECT grp, COUNT(*) AS n FROM big GROUP BY grp`,
		`SELECT COUNT(*) AS n FROM big JOIN dim ON big.grp = dim.grp`,
	}
	setup.SetParallelism(4)
	for _, q := range queries {
		if plan := setup.MustExec(`EXPLAIN ` + q)[0].Plan; !strings.Contains(plan, "ParallelScan(big, ×4") {
			t.Fatalf("%s does not fan out:\n%s", q, plan)
		}
	}

	var inserts atomic.Int64
	stop := make(chan struct{})
	writerDone := make(chan error, 1)
	go func() {
		w := NewSession(cat)
		for i := 0; ; i++ {
			select {
			case <-stop:
				writerDone <- nil
				return
			default:
			}
			id := base + i
			inserts.Add(1)
			for _, stmt := range []string{
				fmt.Sprintf(`INSERT INTO big VALUES (%d, 'g%d' @ {source: 'a'}, 1)`, id, i%7),
				fmt.Sprintf(`UPDATE big SET qty = %d WHERE id = %d`, i, (i*7919)%base),
				fmt.Sprintf(`DELETE FROM big WHERE id = %d`, id),
			} {
				if _, err := w.Exec(stmt); err != nil {
					writerDone <- fmt.Errorf("%s: %w", stmt, err)
					return
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s := NewSession(cat)
			s.SetParallelism(2 + r)
			for i := 0; i < 8; i++ {
				q := queries[(r+i)%len(queries)]
				out, err := s.Query(q)
				if err != nil {
					t.Errorf("%s: %v", q, err)
					return
				}
				var n int64
				for _, tup := range out.Tuples {
					n += tup.Cells[len(tup.Cells)-1].V.AsInt()
				}
				if hi := base + inserts.Load(); n < base || n > hi {
					t.Errorf("%s = %d, want within [%d, %d]", q, n, base, hi)
				}
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	if err := <-writerDone; err != nil {
		t.Fatal(err)
	}
	t.Logf("%d write cycles beside the readers", inserts.Load())
}
