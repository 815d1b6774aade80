package qql

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/relation"
	"repro/internal/storage"
)

// engineGolden is one query of the engine matrix with the answer it must
// give: the result schema's name, its row count, and the SHA-256 of
// relation.Format(result, true) — values, tags and sources.
type engineGolden struct {
	Query  string `json:"query"`
	Schema string `json:"schema"`
	Rows   int    `json:"rows"`
	SHA256 string `json:"sha256"`
}

// loadEngineGolden reads testdata/engine.golden.json: scans, filters,
// quality filters, projections (plain, computed, star), global and grouped
// aggregates, equi-joins (with residuals, filters and grouped aggregation
// above them), three-table join chains, non-equi joins and cross products,
// never-true filters over scans and joins, indexed scans and aggregates,
// sorts, distinct, limits and offsets, over engineCatalog. The first 37
// answers were recorded from a row-at-a-time reference executor (serial
// scans, interpreted expressions) and are independent of the batch engine;
// the 38th, a join whose ON names a colliding right-side column, was added
// later with the answer TestJoinOnCollidingRightName counts by hand. The
// rest — sorts with ties, offsets, DISTINCT with OFFSET, ORDER BY an
// unselected indicator, over a join, above an aggregate and under a
// never-true filter — were recorded at degree 1 from the row-at-a-time
// Sort, Project, Distinct and Limit that preceded the batch ones.
func loadEngineGolden(t *testing.T) []engineGolden {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "engine.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var out []engineGolden
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// engineCatalog builds a shared catalog with a table spanning several
// segments, tagged cells, liveness holes and a B-tree index on id, plus two
// small tables for join shapes: dim (one group, g6, is deliberately absent
// so probes miss; some labels carry tags so join outputs move provenance)
// and region (keyed by dim's label, label-5 absent; its label column
// collides with dim's in a three-table chain).
func engineCatalog(t *testing.T, n int) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog()
	s := NewSession(cat)
	s.MustExec(`CREATE TABLE big (id int REQUIRED, grp string QUALITY (source string), qty int) KEY (id)`)
	tbl, _ := cat.Get("big")
	for i := 0; i < n; i++ {
		tag := ""
		if i%3 == 0 {
			tag = fmt.Sprintf(" @ {source: '%s'}", []string{"a", "b"}[i%2])
		}
		s.MustExec(fmt.Sprintf(`INSERT INTO big VALUES (%d, 'g%d'%s, %d)`, i, i%7, tag, (i*37)%1000))
	}
	for i := 0; i < n; i += 11 {
		if err := tbl.Delete(storage.RowID(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.MustExec(`CREATE TABLE dim (grp string REQUIRED, label string QUALITY (source string), boost int) KEY (grp)`)
	for i := 0; i < 6; i++ {
		tag := ""
		if i%2 == 0 {
			tag = " @ {source: 'ref'}"
		}
		s.MustExec(fmt.Sprintf(`INSERT INTO dim VALUES ('g%d', 'label-%d'%s, %d)`, i, i, tag, i*150))
	}
	s.MustExec(`CREATE TABLE region (label string REQUIRED, area string QUALITY (source string), cap int) KEY (label)`)
	for i := 0; i < 5; i++ {
		tag := ""
		if i%2 == 1 {
			tag = " @ {source: 'atlas'}"
		}
		s.MustExec(fmt.Sprintf(`INSERT INTO region VALUES ('label-%d', 'area-%d'%s, %d)`, i, i%2, tag, 200+i*100))
	}
	s.MustExec(`CREATE INDEX ON big (id) USING BTREE`)
	return cat
}

// TestEngineMatchesGolden is the engine's answer matrix: for every golden
// query, every parallel degree 1–8 and batch sizes 1, 3 and 1024, the
// result is byte-identical (tags and sources included) to the recorded
// reference answer.
func TestEngineMatchesGolden(t *testing.T) {
	const n = 2*storage.SegmentSize + 157
	cat := engineCatalog(t, n)
	s := NewSession(cat)
	for _, g := range loadEngineGolden(t) {
		for degree := 1; degree <= 8; degree++ {
			for _, bs := range []int{1, 3, 1024} {
				s.SetParallelism(degree)
				s.batchSize = bs
				got, err := s.Query(g.Query)
				if err != nil {
					t.Fatalf("%q (deg %d, batch %d): %v", g.Query, degree, bs, err)
				}
				sum := sha256.Sum256([]byte(relation.Format(got, true)))
				if got.Schema.Name != g.Schema || got.Len() != g.Rows || hex.EncodeToString(sum[:]) != g.SHA256 {
					t.Fatalf("%q (deg %d, batch %d): schema %q, %d rows, sha256 %x; want schema %q, %d rows, sha256 %s\nplan:\n%s",
						g.Query, degree, bs, got.Schema.Name, got.Len(), sum, g.Schema, g.Rows, g.SHA256,
						s.MustExec("EXPLAIN " + g.Query)[0].Plan)
				}
			}
		}
	}
}

// TestJoinOnCollidingRightName: an ON clause naming a right-side column
// whose name an earlier join already took (e.boost beside d.boost) compares
// against that right side's column, in the residual of a nested-loop join
// and in a hash join's key alike. The answers are counted here straight
// from engineCatalog's row formulas, not by the engine.
func TestJoinOnCollidingRightName(t *testing.T) {
	const n = 2*storage.SegmentSize + 157
	s := NewSession(engineCatalog(t, n))
	// big row i (live unless i%11 == 0) has grp g(i%7) and qty (i*37)%1000;
	// dim row k < 6 has grp gk and boost 150k.
	var pairs, boosts, keyed, keyedBoosts int
	for i := 0; i < n; i++ {
		if i%11 == 0 || i%7 == 6 { // deleted, or no dim row for g6
			continue
		}
		keyed++
		keyedBoosts += 150 * (i % 7)
		for k := 0; k < 6; k++ {
			if qty := (i * 37) % 1000; qty > 150*k {
				pairs++
				boosts += 150 * k
			}
		}
	}
	for q, want := range map[string]string{
		"SELECT COUNT(*) AS n, SUM(e.boost) AS s FROM big b JOIN dim d ON b.grp = d.grp JOIN dim e ON b.qty > e.boost": fmt.Sprintf("%d  %d", pairs, boosts),
		"SELECT COUNT(*) AS n, SUM(e.boost) AS s FROM big b JOIN dim d ON b.grp = d.grp JOIN dim e ON d.grp = e.grp":   fmt.Sprintf("%d  %d", keyed, keyedBoosts),
	} {
		got, err := s.Query(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		lines := strings.Split(strings.TrimSpace(relation.Format(got, true)), "\n")
		if last := strings.Join(strings.Fields(lines[len(lines)-1]), "  "); last != want {
			t.Errorf("%q = %s, want %s", q, last, want)
		}
	}
}

// TestEngineGoldenAfterSaveLoad: a catalog with deleted rows, saved and
// loaded back, answers every golden query identically.
func TestEngineGoldenAfterSaveLoad(t *testing.T) {
	var buf bytes.Buffer
	if err := engineCatalog(t, 2*storage.SegmentSize+157).Save(&buf); err != nil {
		t.Fatal(err)
	}
	cat, err := storage.LoadCatalog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(cat)
	for _, g := range loadEngineGolden(t) {
		got, err := s.Query(g.Query)
		if err != nil {
			t.Fatalf("%q: %v", g.Query, err)
		}
		if sum := sha256.Sum256([]byte(relation.Format(got, true))); hex.EncodeToString(sum[:]) != g.SHA256 || got.Len() != g.Rows {
			t.Fatalf("%q after Save/Load: %d rows, sha256 %x; want %d rows, %s", g.Query, got.Len(), sum, g.Rows, g.SHA256)
		}
	}
}

// planSteps returns a SELECT's EXPLAIN steps, source first.
func planSteps(t *testing.T, s *Session, q string) []string {
	t.Helper()
	var steps []string
	for _, line := range strings.Split(s.MustExec("EXPLAIN " + q)[0].Plan, "\n") {
		line = strings.TrimPrefix(strings.TrimSpace(line), "-> ")
		if line != "" && !strings.HasPrefix(line, "plan cache:") {
			steps = append(steps, line)
		}
	}
	return steps
}

// TestEnginePlansStayBatch pins what each golden query runs: a source —
// a table, parallel, index or empty scan — first, and only the engine's
// batch operators after it; the tail's Sort, Distinct and Limit are batch
// operators too.
func TestEnginePlansStayBatch(t *testing.T) {
	cat := engineCatalog(t, 2*storage.SegmentSize+157)
	s := NewSession(cat)
	hasPrefix := func(step string, prefixes ...string) bool {
		for _, p := range prefixes {
			if strings.HasPrefix(step, p) {
				return true
			}
		}
		return false
	}
	sources := []string{"BatchTableScan(", "ParallelScan(", "IndexScan(", "EmptyScan("}
	operators := append([]string{"Batch", "Sort(", "Distinct", "Limit("}, sources...)
	for _, degree := range []int{1, 8} {
		s.SetParallelism(degree)
		for _, g := range loadEngineGolden(t) {
			steps := planSteps(t, s, g.Query)
			for i, st := range steps {
				if (i == 0 && !hasPrefix(st, sources...)) || !hasPrefix(st, operators...) {
					t.Errorf("%q (deg %d): step %q out of place in %v", g.Query, degree, st, steps)
				}
			}
		}
	}
}

// TestVectorizedExplain pins the EXPLAIN surface of the batch engine.
func TestVectorizedExplain(t *testing.T) {
	const n = 2*storage.SegmentSize + 100
	cat := engineCatalog(t, n)
	s := NewSession(cat)
	s.SetParallelism(1)

	// A table's filters run inside its scan: no Select step above it.
	res := s.MustExec(`EXPLAIN SELECT COUNT(*) AS n FROM big WHERE qty >= 500`)
	for _, want := range []string{"BatchTableScan(big WHERE (qty >= 500))", "BatchAggregate(1 aggregate(s))"} {
		if !strings.Contains(res[0].Plan, want) {
			t.Errorf("plan missing %q:\n%s", want, res[0].Plan)
		}
	}
	if strings.Contains(res[0].Plan, "Select(") {
		t.Errorf("single-table plan has a Select step:\n%s", res[0].Plan)
	}

	res = s.MustExec(`EXPLAIN SELECT id FROM big WHERE qty >= 500 WITH QUALITY grp@source = 'a' LIMIT 5`)
	for _, want := range []string{"BatchTableScan(big WHERE (qty >= 500) WITH QUALITY (grp@source = 'a'))", "BatchProject(id)", "Limit(5, offset 0)"} {
		if !strings.Contains(res[0].Plan, want) {
			t.Errorf("plan missing %q:\n%s", want, res[0].Plan)
		}
	}

	// Grouped aggregation reads keys and arguments off the column vectors.
	res = s.MustExec(`EXPLAIN SELECT grp, COUNT(*) AS n FROM big GROUP BY grp`)
	if !strings.Contains(res[0].Plan, "BatchGroupedAggregate(group by 1 key(s), 1 aggregate(s))") {
		t.Errorf("plan missing BatchGroupedAggregate:\n%s", res[0].Plan)
	}

	// Equi-joins: both sides stream as column batches, the filter above
	// the join stays on the batch tier.
	res = s.MustExec(`EXPLAIN SELECT b.id, d.label FROM big b JOIN dim d ON b.grp = d.grp WHERE b.qty > 500`)
	for _, want := range []string{"BatchTableScan(big)", "BatchTableScan(dim)", "BatchHashJoin(d: grp = grp)", "BatchSelect("} {
		if !strings.Contains(res[0].Plan, want) {
			t.Errorf("join plan missing %q:\n%s", want, res[0].Plan)
		}
	}

	// A non-equi join is the same operator with constant keys, labelled
	// as the nested-loop join it is.
	res = s.MustExec(`EXPLAIN SELECT b.id FROM big b JOIN dim d ON b.qty < d.boost`)
	if !strings.Contains(res[0].Plan, "BatchNestedLoopJoin(d ON (qty < boost))") {
		t.Errorf("non-equi join plan:\n%s", res[0].Plan)
	}

	// A three-table chain is left-deep, each step keyed against the schema
	// joined so far; a non-equi step is the nested-loop form.
	got := planSteps(t, s, `SELECT b.id, r.area FROM big b JOIN dim d ON b.grp = d.grp JOIN region r ON b.qty < r.cap`)
	want := []string{
		"BatchTableScan(big)",
		"BatchTableScan(dim)",
		"BatchHashJoin(d: grp = grp)",
		"BatchTableScan(region)",
		"BatchNestedLoopJoin(r ON (qty < cap))",
		"BatchProject(id, area)",
	}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("multi-way join plan:\n got %v\nwant %v", got, want)
	}

	// The parallel scan feeds the batch operators: workers run the
	// filters, the merge stays ordered, batching picks up above it.
	s.SetParallelism(8)
	res = s.MustExec(`EXPLAIN SELECT COUNT(*) AS n FROM big WHERE qty >= 500`)
	if !strings.Contains(res[0].Plan, "ParallelScan(big, ×3 WHERE (qty >= 500))") || !strings.Contains(res[0].Plan, "BatchAggregate(") {
		t.Errorf("parallel plan:\n%s", res[0].Plan)
	}
	res = s.MustExec(`EXPLAIN SELECT b.id FROM big b JOIN dim d ON b.qty < d.boost`)
	if !strings.Contains(res[0].Plan, "ParallelScan(big, ×3)") || !strings.Contains(res[0].Plan, "BatchNestedLoopJoin(") {
		t.Errorf("parallel join plan:\n%s", res[0].Plan)
	}

	// An index probe is a batch source like the table scans, and it
	// rechecks the predicate it probed by on every row it reads.
	s.MustExec(`CREATE INDEX ON big (qty) USING BTREE`)
	got = planSteps(t, s, `SELECT id FROM big WHERE qty >= 990`)
	want = []string{"IndexScan(big on qty: (qty >= 990) WHERE (qty >= 990))", "BatchProject(id)"}
	if strings.Join(got, "|") != strings.Join(want, "|") {
		t.Errorf("indexed plan:\n got %v\nwant %v", got, want)
	}
}

// TestSimplifiedPlans pins the bind-time predicate simplification: a
// tautology drops its filter, an unsatisfiable filter plans an empty scan,
// and EXPLAIN reflects both.
func TestSimplifiedPlans(t *testing.T) {
	cat := engineCatalog(t, 500)
	s := NewSession(cat)

	res := s.MustExec(`EXPLAIN SELECT id FROM big WHERE 1 = 1`)
	if strings.Contains(res[0].Plan, "Select(") || strings.Contains(res[0].Plan, "WHERE") {
		t.Errorf("tautology should drop the filter:\n%s", res[0].Plan)
	}

	res = s.MustExec(`EXPLAIN SELECT id FROM big WHERE 1 = 2`)
	if !strings.Contains(res[0].Plan, "EmptyScan(big)") {
		t.Errorf("unsatisfiable filter should plan an EmptyScan:\n%s", res[0].Plan)
	}
	out, err := s.Query(`SELECT id FROM big WHERE 1 = 2`)
	if err != nil || out.Len() != 0 {
		t.Fatalf("WHERE 1=2 = %d rows, err %v", out.Len(), err)
	}

	// x AND false is false regardless of x — including when x would error.
	res = s.MustExec(`EXPLAIN SELECT id FROM big WHERE qty > 10 AND 1 = 2`)
	if !strings.Contains(res[0].Plan, "EmptyScan(big)") {
		t.Errorf("x AND false should plan an EmptyScan:\n%s", res[0].Plan)
	}

	// A global COUNT over the empty plan still yields its one row.
	out, err = s.Query(`SELECT COUNT(*) AS n FROM big WITH QUALITY 1 = 2`)
	if err != nil || out.Len() != 1 || out.Tuples[0].Cells[0].V.AsInt() != 0 {
		t.Fatalf("COUNT over empty plan = %v, err %v", out, err)
	}

	// A never-true filter over a join skips the join entirely.
	res = s.MustExec(`EXPLAIN SELECT COUNT(*) AS n FROM big b JOIN dim d ON b.grp = d.grp WHERE 1 = 2`)
	if !strings.Contains(res[0].Plan, "EmptyScan(join: filter is never true)") || strings.Contains(res[0].Plan, "Join") {
		t.Errorf("never-true join plan:\n%s", res[0].Plan)
	}

	// Only the live conjunct survives.
	res = s.MustExec(`EXPLAIN SELECT id FROM big WHERE 1 = 1 AND qty > 100`)
	if !strings.Contains(res[0].Plan, "BatchTableScan(big WHERE (qty > 100))") {
		t.Errorf("plan should keep only the live conjunct:\n%s", res[0].Plan)
	}
}

// TestVectorizedScalarPathsSkipClones: COUNT(*), filtered projections,
// grouped aggregates and joins clone nothing — the zero-clone column views
// carry them end to end.
func TestVectorizedScalarPathsSkipClones(t *testing.T) {
	cat := engineCatalog(t, storage.SegmentSize+200)
	s := NewSession(cat)
	s.SetParallelism(1)
	for _, q := range []string{
		`SELECT COUNT(*) AS n FROM big`,
		`SELECT COUNT(*) AS n FROM big WHERE qty >= 500`,
		`SELECT id, qty FROM big WHERE qty >= 900`,
		`SELECT grp, COUNT(*) AS n FROM big GROUP BY grp`,
		`SELECT b.id, d.label FROM big b JOIN dim d ON b.grp = d.grp WHERE b.qty >= 700`,
		`SELECT d.label, COUNT(*) AS n FROM big b JOIN dim d ON b.grp = d.grp GROUP BY d.label`,
		`SELECT b.id, d.label FROM big b JOIN dim d ON b.qty < d.boost WHERE b.id < 100`,
	} {
		before := storage.TupleClones()
		if _, err := s.Query(q); err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if d := storage.TupleClones() - before; d != 0 {
			t.Errorf("%q cloned %d tuples, want 0", q, d)
		}
	}
}

// TestIndexedStatementsSkipClones: an index probe views the probed
// segments' column runs, so indexed SELECTs, UPDATEs and DELETEs clone no
// row either.
func TestIndexedStatementsSkipClones(t *testing.T) {
	cat := engineCatalog(t, storage.SegmentSize+200)
	s := NewSession(cat)
	s.MustExec(`CREATE INDEX ON big (grp@source) USING HASH`)
	for _, q := range []string{
		`SELECT id, grp, grp@source, qty FROM big WHERE id = 42`,
		`SELECT id, qty FROM big WHERE id >= 100 AND id < 4200 AND qty > 300`,
		`SELECT id FROM big WHERE id >= 100 LIMIT 3`,
		`SELECT id, grp FROM big WITH QUALITY grp@source = 'b' ORDER BY qty`,
		`UPDATE big SET qty = 1 WHERE id = 43`,
		`UPDATE big SET grp = 'h' @ {source: 'c'} WHERE grp@source = 'a' AND id < 50`,
		`DELETE FROM big WHERE id >= 60 AND id < 70`,
	} {
		before := storage.TupleClones()
		if _, err := s.Exec(q); err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if d := storage.TupleClones() - before; d != 0 {
			t.Errorf("%q cloned %d tuples, want 0", q, d)
		}
		if shape := s.LastExecInfo().PlanShape; !strings.HasPrefix(shape, "IndexScan(") {
			t.Errorf("%q ran %q, want an index probe", q, shape)
		}
	}
}

// TestVectorizedUnderSharedPlanCacheRace: concurrent sessions with mixed
// batch sizes and degrees share one plan cache over one catalog while DDL
// bumps schema versions — run under -race by CI. Join chains drain their
// build sides in the constructor while the parallel left scan's workers
// run, so this is the engine's concurrency surface.
func TestVectorizedUnderSharedPlanCacheRace(t *testing.T) {
	cat := engineCatalog(t, storage.SegmentSize+300)
	cache := NewPlanCache(64)
	golden := loadEngineGolden(t)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := NewSession(cat)
			s.SetPlanCache(cache)
			s.batchSize = []int{1024, 64, 3, 1024}[w%4]
			s.SetParallelism(1 + w%3)
			for i := 0; i < 30; i++ {
				q := golden[(w+i)%len(golden)].Query
				if _, err := s.Query(q); err != nil {
					t.Errorf("worker %d %q: %v", w, q, err)
					return
				}
			}
		}(w)
	}
	// DDL churn alongside: bump schema versions so cached plans are
	// invalidated and rebuilt concurrently.
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := NewSession(cat)
		s.SetPlanCache(cache)
		for i := 0; i < 10; i++ {
			s.MustExec(`TAG TABLE big {load: 'batch'}`)
		}
	}()
	wg.Wait()
}
