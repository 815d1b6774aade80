package qql

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/storage"
)

// analyzeFixture builds a session over a 50-row table where exactly 40 rows
// have a >= 10, so per-operator row counts are predictable.
func analyzeFixture(t *testing.T) *Session {
	t.Helper()
	cat := storage.NewCatalog()
	s := NewSession(cat)
	s.SetPlanCache(NewPlanCache(16))
	s.MustExec(`CREATE TABLE t (a int REQUIRED, b string) KEY (a)`)
	var ins strings.Builder
	ins.WriteString(`INSERT INTO t VALUES `)
	for i := 0; i < 50; i++ {
		if i > 0 {
			ins.WriteString(", ")
		}
		fmt.Fprintf(&ins, `(%d, 'r%d')`, i, i)
	}
	s.MustExec(ins.String())
	return s
}

// stepByPrefix finds the first instrumented step whose description starts
// with prefix.
func stepByPrefix(t *testing.T, rep *AnalyzeReport, prefix string) AnalyzeStep {
	t.Helper()
	for _, st := range rep.Steps {
		if strings.HasPrefix(st.Desc, prefix) {
			if !st.Instrumented {
				t.Fatalf("step %q not instrumented", st.Desc)
			}
			return st
		}
	}
	t.Fatalf("no step with prefix %q in %+v", prefix, rep.Steps)
	return AnalyzeStep{}
}

// rootRows is the row count of the plan's last step, the operator whose
// output is the statement result.
func rootRows(rep *AnalyzeReport) int64 { return rep.Steps[len(rep.Steps)-1].Rows }

func TestAnalyzeVectorizedCounts(t *testing.T) {
	s := analyzeFixture(t)
	rep, err := s.AnalyzeQuery(`SELECT a, b FROM t WHERE a >= 10 LIMIT 12`)
	if err != nil {
		t.Fatal(err)
	}
	// The scan filters: it emits the 40 rows with a >= 10.
	scan := stepByPrefix(t, rep, "BatchTableScan(t WHERE ")
	lim := stepByPrefix(t, rep, "Limit")
	if scan.Rows != 40 {
		t.Errorf("scan rows = %d, want 40", scan.Rows)
	}
	if scan.Batches == 0 {
		t.Errorf("batch scan reported no batches")
	}
	if lim.Rows != 12 {
		t.Errorf("limit rows = %d, want 12", lim.Rows)
	}
	if rep.Rows != 12 {
		t.Errorf("report rows = %d, want 12", rep.Rows)
	}
	if root := rootRows(rep); root != int64(rep.Rows) {
		t.Errorf("root rows = %d, want %d", root, rep.Rows)
	}
	if rep.CacheTier != "miss" {
		t.Errorf("first run cache tier = %q, want miss", rep.CacheTier)
	}

	// The analyze run warms the bare SELECT's bound-plan entry.
	rep2, err := s.AnalyzeQuery(`SELECT a, b FROM t WHERE a >= 10 LIMIT 12`)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.CacheTier != "hit" {
		t.Errorf("second run cache tier = %q, want hit", rep2.CacheTier)
	}
}

// TestAnalyzeSerialCounts: a serial plan counts rows and batches on every
// operator, the sort at its top included.
func TestAnalyzeSerialCounts(t *testing.T) {
	s := analyzeFixture(t)
	s.SetParallelism(1)
	rep, err := s.AnalyzeQuery(`SELECT a FROM t WHERE a >= 10 ORDER BY a DESC`)
	if err != nil {
		t.Fatal(err)
	}
	scan := stepByPrefix(t, rep, "BatchTableScan")
	sort := stepByPrefix(t, rep, "Sort")
	if scan.Rows != 40 {
		t.Errorf("scan rows = %d, want 40", scan.Rows)
	}
	if sort.Rows != 40 {
		t.Errorf("sort rows = %d, want 40", sort.Rows)
	}
	if scan.Batches == 0 {
		t.Errorf("batch scan reported no batches")
	}
	if sort.Batches != 1 {
		t.Errorf("sort reported %d batches, want 1", sort.Batches)
	}
	if rep.Rows != 40 {
		t.Errorf("report rows = %d, want 40", rep.Rows)
	}
}

func TestAnalyzeParallelScanOccupancy(t *testing.T) {
	const n = 2*storage.SegmentSize + 100 // 3 segments
	s, _ := bigCatalog(t, n)
	s.SetPlanCache(NewPlanCache(16))
	s.SetParallelism(8)

	rep, err := s.AnalyzeQuery(`SELECT id FROM big WHERE qty >= 500`)
	if err != nil {
		t.Fatal(err)
	}
	scan := stepByPrefix(t, rep, "ParallelScan")
	if root := rootRows(rep); root != int64(rep.Rows) {
		t.Errorf("root rows = %d, want %d", root, rep.Rows)
	}
	// The filter runs inside the workers, so the scan's output
	// count equals the result count.
	if scan.Rows != int64(rep.Rows) {
		t.Errorf("parallel scan rows = %d, want %d", scan.Rows, rep.Rows)
	}
	if !strings.Contains(scan.Extra, "workers=3") || !strings.Contains(scan.Extra, "segments=[") {
		t.Errorf("parallel scan extra = %q, want worker occupancy", scan.Extra)
	}
	// Every segment was claimed by some worker: occupancy sums to 3.
	var segs [3]int
	if _, err := fmt.Sscanf(scan.Extra[strings.Index(scan.Extra, "segments=["):],
		"segments=[%d %d %d]", &segs[0], &segs[1], &segs[2]); err != nil {
		t.Fatalf("parsing extra %q: %v", scan.Extra, err)
	}
	if segs[0]+segs[1]+segs[2] != 3 {
		t.Errorf("segment occupancy %v does not sum to 3", segs)
	}
}

func TestAnalyzeVectorizedParallelScan(t *testing.T) {
	const n = 2*storage.SegmentSize + 100
	s, _ := bigCatalog(t, n)
	s.SetPlanCache(NewPlanCache(16))
	s.SetParallelism(4)

	rep, err := s.AnalyzeQuery(`SELECT COUNT(*) AS c FROM big WHERE qty >= 500`)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rows != 1 {
		t.Fatalf("report rows = %d, want 1", rep.Rows)
	}
	// The aggregate drains its input on its first pull; that work must be
	// charged to the aggregate step, not lost.
	agg := stepByPrefix(t, rep, "BatchAggregate")
	if agg.Rows != 1 {
		t.Errorf("aggregate rows = %d, want 1", agg.Rows)
	}
	if agg.Time <= 0 {
		t.Errorf("aggregate time = %v, want > 0 (drain charged)", agg.Time)
	}
}

func TestAnalyzeJoinSetupCharged(t *testing.T) {
	s := analyzeFixture(t)
	s.MustExec(`CREATE TABLE u (a int REQUIRED, note string) KEY (a)`)
	s.MustExec(`INSERT INTO u VALUES (1, 'one'), (2, 'two'), (3, 'three')`)
	// The hash join's build-side transpose happens in the constructor and
	// must be charged to the join step.
	rep, err := s.AnalyzeQuery(`SELECT t.b, u.note FROM t JOIN u ON t.a = u.a`)
	if err != nil {
		t.Fatal(err)
	}
	join := stepByPrefix(t, rep, "BatchHashJoin")
	if join.Rows != 3 {
		t.Errorf("join rows = %d, want 3", join.Rows)
	}
	if join.Time <= 0 {
		t.Errorf("join time = %v, want > 0 (build side charged)", join.Time)
	}
	if rep.Rows != 3 {
		t.Errorf("report rows = %d, want 3", rep.Rows)
	}
}

func TestAnalyzeSegmentSkipping(t *testing.T) {
	const n = 2*storage.SegmentSize + 100 // 3 segments; id is insertion-ordered
	s, _ := bigCatalog(t, n)
	s.SetPlanCache(NewPlanCache(16))
	s.SetParallelism(1)

	// id rises monotonically with the insertion order, so each segment's
	// min/max refutes id < 5 except the first: the columnar scan skips the
	// other two segments whole and reports it.
	rep, err := s.AnalyzeQuery(`SELECT id FROM big WHERE id < 5`)
	if err != nil {
		t.Fatal(err)
	}
	scan := stepByPrefix(t, rep, "BatchTableScan")
	if scan.Extra != "segments skipped=2 of 3" {
		t.Errorf("scan extra = %q, want \"segments skipped=2 of 3\"", scan.Extra)
	}
	if scan.Rows != 5 { // the scan filters what it reads
		t.Errorf("scan rows = %d, want 5", scan.Rows)
	}
	if rep.Rows != 5 {
		t.Errorf("report rows = %d, want 5", rep.Rows)
	}

	// The skip count surfaces in the rendered EXPLAIN ANALYZE output.
	res := s.MustExec(`EXPLAIN ANALYZE SELECT id FROM big WHERE id < 5`)
	if !strings.Contains(res[0].Plan, "segments skipped=2 of 3") {
		t.Errorf("EXPLAIN ANALYZE missing segment-skip actuals:\n%s", res[0].Plan)
	}

	// An unprunable predicate skips nothing but still reports the outcome.
	rep, err = s.AnalyzeQuery(`SELECT COUNT(*) AS c FROM big WHERE qty >= 500`)
	if err != nil {
		t.Fatal(err)
	}
	scan = stepByPrefix(t, rep, "BatchTableScan")
	if scan.Extra != "segments skipped=0 of 3" {
		t.Errorf("scan extra = %q, want \"segments skipped=0 of 3\"", scan.Extra)
	}
}

func TestExplainAnalyzeStatement(t *testing.T) {
	s := analyzeFixture(t)
	res := s.MustExec(`EXPLAIN ANALYZE SELECT a FROM t WHERE a >= 10`)
	plan := res[0].Plan
	for _, want := range []string{"actual rows=", "phases: parse=", "plan cache: miss", "rows: 40"} {
		if !strings.Contains(plan, want) {
			t.Errorf("EXPLAIN ANALYZE output missing %q:\n%s", want, plan)
		}
	}
	// Executing the bare SELECT next hits the plan the analyze run stored.
	s.MustExec(`SELECT a FROM t WHERE a >= 10`)
	res = s.MustExec(`EXPLAIN ANALYZE SELECT a FROM t WHERE a >= 10`)
	if !strings.Contains(res[0].Plan, "plan cache: hit") {
		t.Errorf("second EXPLAIN ANALYZE should hit:\n%s", res[0].Plan)
	}
	// Plain EXPLAIN is unchanged: no actuals.
	res = s.MustExec(`EXPLAIN SELECT a FROM t WHERE a >= 10`)
	if strings.Contains(res[0].Plan, "actual rows=") {
		t.Errorf("plain EXPLAIN must not execute:\n%s", res[0].Plan)
	}
}

func TestShowStats(t *testing.T) {
	s := analyzeFixture(t)
	s.MustExec(`SELECT a FROM t LIMIT 1`)
	res := s.MustExec(`SHOW STATS`)
	rel := res[0].Rel
	if rel == nil {
		t.Fatal("SHOW STATS returned no relation")
	}
	got := map[string]string{}
	for _, tup := range rel.Tuples {
		got[tup.Cells[0].V.AsString()] = tup.Cells[1].V.AsString()
	}
	for _, want := range []string{
		"session_statements", "session_errors", "cache_plan_hits",
		"cache_plan_entries", "storage_tuple_clones",
	} {
		if _, ok := got[want]; !ok {
			t.Errorf("SHOW STATS missing %q (got %v)", want, got)
		}
	}
	if got["session_errors"] != "0" {
		t.Errorf("session_errors = %q, want 0", got["session_errors"])
	}
	// One cache, one family of rows.
	for name := range got {
		if strings.HasPrefix(name, "cache_") && !strings.HasPrefix(name, "cache_plan_") {
			t.Errorf("SHOW STATS row %q outside the plan cache's cache_plan_* family", name)
		}
	}
}
