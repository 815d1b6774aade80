package qql

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/relation"
	"repro/internal/storage"
)

// vectorizedWorkload is the query matrix the scalar-vs-vectorized property
// test drives: scans, filters, quality filters, projections (plain,
// computed, star), aggregates (global and grouped), equi-joins (with
// residuals, filters and grouped aggregation above them), sorts, distinct,
// limits and offsets.
func vectorizedWorkload() []string {
	return []string{
		`SELECT * FROM big`,
		`SELECT id, qty FROM big`,
		`SELECT COUNT(*) AS n FROM big`,
		`SELECT COUNT(*) AS n FROM big WHERE qty >= 500`,
		`SELECT COUNT(*) AS n, SUM(qty) AS s, MIN(qty) AS lo, MAX(qty) AS hi, AVG(qty) AS a FROM big`,
		`SELECT id, qty * 2 AS qty2 FROM big WHERE qty >= 250 AND grp != 'g3'`,
		`SELECT id FROM big WHERE qty >= 100 AND qty < 900`,
		`SELECT id FROM big WITH QUALITY grp@source = 'a'`,
		`SELECT id FROM big WHERE qty < 800 WITH QUALITY grp@source != 'b'`,
		`SELECT grp, COUNT(*) AS n FROM big WHERE qty < 800 GROUP BY grp`,
		`SELECT grp, COUNT(*) AS n, SUM(qty) AS s, MAX(qty) AS hi FROM big GROUP BY grp`,
		`SELECT id FROM big LIMIT 10`,
		`SELECT id FROM big WHERE qty >= 500 LIMIT 25 OFFSET 13`,
		`SELECT id, qty FROM big WHERE qty >= 100 ORDER BY qty DESC, id LIMIT 40`,
		`SELECT DISTINCT grp FROM big WHERE qty < 950`,
		`SELECT DISTINCT grp FROM big LIMIT 3`,
		`SELECT id FROM big WHERE qty >= 500 AND 1 = 1`,
		`SELECT COUNT(*) AS n FROM big WHERE 1 = 2`,
		`SELECT id AS i, qty AS q FROM big b WHERE b.qty > 700`,
		`SELECT b.id, d.label FROM big b JOIN dim d ON b.grp = d.grp WHERE b.qty >= 600`,
		`SELECT big.id, dim.boost FROM big JOIN dim ON big.grp = dim.grp ORDER BY big.id LIMIT 30`,
		`SELECT b.id FROM big b JOIN dim d ON b.grp = d.grp AND b.qty > d.boost`,
		`SELECT d.label, COUNT(*) AS n, SUM(b.qty) AS s FROM big b JOIN dim d ON b.grp = d.grp GROUP BY d.label`,
		`SELECT b.id, d.label FROM big b JOIN dim d ON b.qty < d.boost LIMIT 20`,
		`SELECT COUNT(*) AS n FROM big b JOIN dim d ON b.grp = d.grp WHERE 1 = 2`,
	}
}

// vecCatalog builds a shared catalog with a table spanning several
// segments, tagged cells, and liveness holes, plus a small dimension
// table for join shapes (one group, g6, is deliberately absent so probes
// miss; some labels carry tags so join outputs move provenance).
func vecCatalog(t *testing.T, n int) *storage.Catalog {
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
	return cat
}

// TestVectorizedMatchesScalarProperty is the cross-tier property test: for
// every workload query, every parallel degree 1–8, and batch sizes 1, 3
// and 1024, the vectorized plan's output is byte-identical (tags and
// sources included) to the scalar plan's.
func TestVectorizedMatchesScalarProperty(t *testing.T) {
	const n = 2*storage.SegmentSize + 157
	cat := vecCatalog(t, n)

	scalar := NewSession(cat)
	scalar.SetVectorized(false)
	vec := NewSession(cat)

	for _, q := range vectorizedWorkload() {
		for degree := 1; degree <= 8; degree++ {
			scalar.SetParallelism(degree)
			want, err := scalar.Query(q)
			if err != nil {
				t.Fatalf("scalar %q: %v", q, err)
			}
			for _, bs := range []int{1, 3, 1024} {
				for _, compiled := range []bool{true, false} {
					vec.SetParallelism(degree)
					vec.SetBatchSize(bs)
					vec.SetCompiledExprs(compiled)
					got, err := vec.Query(q)
					if err != nil {
						t.Fatalf("vectorized %q (deg %d, batch %d): %v", q, degree, bs, err)
					}
					if want.Schema.Name != got.Schema.Name {
						t.Fatalf("%q: schema %q != scalar %q", q, got.Schema.Name, want.Schema.Name)
					}
					if wf, gf := relation.Format(want, true), relation.Format(got, true); wf != gf {
						t.Fatalf("%q (deg %d, batch %d, compiled %v): vectorized differs from scalar\nscalar:\n%s\nvectorized:\n%s",
							q, degree, bs, compiled, wf, gf)
					}
				}
			}
		}
	}
}

// TestVectorizedExplain pins the EXPLAIN surface of the batch tier.
func TestVectorizedExplain(t *testing.T) {
	const n = 2*storage.SegmentSize + 100
	cat := vecCatalog(t, n)
	s := NewSession(cat)
	s.SetParallelism(1)

	res := s.MustExec(`EXPLAIN SELECT COUNT(*) AS n FROM big WHERE qty >= 500`)
	for _, want := range []string{"Vectorized(batch=1024, compiled)", "BatchTableScan(big)", "BatchSelect(", "BatchAggregate(1 aggregate(s))"} {
		if !strings.Contains(res[0].Plan, want) {
			t.Errorf("plan missing %q:\n%s", want, res[0].Plan)
		}
	}

	res = s.MustExec(`EXPLAIN SELECT id FROM big WITH QUALITY grp@source = 'a' LIMIT 5`)
	for _, want := range []string{"BatchQualitySelect(", "BatchProject(id)", "Limit(5, offset 0)"} {
		if !strings.Contains(res[0].Plan, want) {
			t.Errorf("plan missing %q:\n%s", want, res[0].Plan)
		}
	}

	// Grouped aggregation is batch-native: keys and arguments read off the
	// column vectors.
	res = s.MustExec(`EXPLAIN SELECT grp, COUNT(*) AS n FROM big GROUP BY grp`)
	if !strings.Contains(res[0].Plan, "BatchGroupedAggregate(group by 1 key(s), 1 aggregate(s))") {
		t.Errorf("plan missing BatchGroupedAggregate:\n%s", res[0].Plan)
	}

	// Equi-joins route batch-native: both sides stream as column batches,
	// the filter above the join stays on the batch tier.
	res = s.MustExec(`EXPLAIN SELECT b.id, d.label FROM big b JOIN dim d ON b.grp = d.grp WHERE b.qty > 500`)
	for _, want := range []string{"Vectorized(batch=1024, compiled)", "BatchTableScan(big)", "BatchTableScan(dim)", "BatchHashJoin(d: grp = grp)", "BatchSelect("} {
		if !strings.Contains(res[0].Plan, want) {
			t.Errorf("join plan missing %q:\n%s", want, res[0].Plan)
		}
	}

	// Non-equi joins fall back to the scalar nested-loop join.
	res = s.MustExec(`EXPLAIN SELECT b.id FROM big b JOIN dim d ON b.qty < d.boost`)
	if !strings.Contains(res[0].Plan, "NestedLoopJoin(") || strings.Contains(res[0].Plan, "Vectorized") {
		t.Errorf("non-equi join should stay scalar:\n%s", res[0].Plan)
	}

	// The batch tier composes with the parallel scan: workers fuse the
	// predicate, the merge stays ordered, batching picks up above it.
	s.SetParallelism(8)
	res = s.MustExec(`EXPLAIN SELECT COUNT(*) AS n FROM big WHERE qty >= 500`)
	if !strings.Contains(res[0].Plan, "Vectorized(batch=") || !strings.Contains(res[0].Plan, "ParallelScan(big, ×3: ") {
		t.Errorf("vectorized parallel plan:\n%s", res[0].Plan)
	}

	// Index plans stay on the scalar index path.
	s.MustExec(`CREATE INDEX ON big (qty) USING BTREE`)
	res = s.MustExec(`EXPLAIN SELECT id FROM big WHERE qty >= 990`)
	if !strings.Contains(res[0].Plan, "IndexScan") || strings.Contains(res[0].Plan, "Vectorized") {
		t.Errorf("indexed plan should bypass the batch tier:\n%s", res[0].Plan)
	}

	// Vectorization off: classic Volcano plan.
	s.SetParallelism(1)
	s.SetVectorized(false)
	res = s.MustExec(`EXPLAIN SELECT id FROM big WHERE id < 0 OR qty >= 0`)
	if strings.Contains(res[0].Plan, "Vectorized") || !strings.Contains(res[0].Plan, "Select(") {
		t.Errorf("scalar plan:\n%s", res[0].Plan)
	}
}

// TestSimplifiedPlans pins the bind-time predicate simplification: a
// tautology drops its Select step, an unsatisfiable filter plans an empty
// scan, and EXPLAIN reflects both.
func TestSimplifiedPlans(t *testing.T) {
	cat := vecCatalog(t, 500)
	s := NewSession(cat)

	res := s.MustExec(`EXPLAIN SELECT id FROM big WHERE 1 = 1`)
	if strings.Contains(res[0].Plan, "Select(") {
		t.Errorf("tautology should drop the Select step:\n%s", res[0].Plan)
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

	// Simplification reaches the scalar tier too.
	s.SetVectorized(false)
	res = s.MustExec(`EXPLAIN SELECT id FROM big WHERE 1 = 1 AND qty > 100`)
	if !strings.Contains(res[0].Plan, "Select((qty > 100))") {
		t.Errorf("scalar plan should keep only the live conjunct:\n%s", res[0].Plan)
	}
}

// TestVectorizedScalarPathsSkipClones is the clone-traffic satellite:
// COUNT(*) and projected scans clone nothing in either tier — the
// zero-clone column views carry both.
func TestVectorizedScalarPathsSkipClones(t *testing.T) {
	cat := vecCatalog(t, storage.SegmentSize+200)
	for _, mode := range []struct {
		name string
		vec  bool
	}{{"vectorized", true}, {"scalar", false}} {
		s := NewSession(cat)
		s.SetVectorized(mode.vec)
		s.SetParallelism(1)
		for _, q := range []string{
			`SELECT COUNT(*) AS n FROM big`,
			`SELECT COUNT(*) AS n FROM big WHERE qty >= 500`,
			`SELECT id, qty FROM big WHERE qty >= 900`,
			`SELECT grp, COUNT(*) AS n FROM big GROUP BY grp`,
			`SELECT b.id, d.label FROM big b JOIN dim d ON b.grp = d.grp WHERE b.qty >= 700`,
			`SELECT d.label, COUNT(*) AS n FROM big b JOIN dim d ON b.grp = d.grp GROUP BY d.label`,
		} {
			before := storage.TupleClones()
			if _, err := s.Query(q); err != nil {
				t.Fatalf("%s %q: %v", mode.name, q, err)
			}
			if d := storage.TupleClones() - before; d != 0 {
				t.Errorf("%s %q cloned %d tuples, want 0", mode.name, q, d)
			}
		}
	}
}

// TestVectorizedUnderSharedPlanCacheRace: concurrent sessions with mixed
// batch sizes and tiers share one plan cache over one catalog while DDL
// bumps schema versions — run under -race by CI.
func TestVectorizedUnderSharedPlanCacheRace(t *testing.T) {
	cat := vecCatalog(t, storage.SegmentSize+300)
	cache := NewPlanCache(64)
	queries := vectorizedWorkload()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := NewSession(cat)
			s.SetPlanCache(cache)
			s.SetVectorized(w%4 != 0) // one scalar session in the mix
			s.SetBatchSize([]int{1024, 64, 3, 1024}[w%4])
			s.SetParallelism(1 + w%3)
			for i := 0; i < 30; i++ {
				q := queries[(w+i)%len(queries)]
				if _, err := s.Query(q); err != nil {
					t.Errorf("worker %d %q: %v", w, q, err)
					return
				}
			}
		}(w)
	}
	// DDL churn alongside: bump schema versions so cached vectorized plans
	// are invalidated and rebuilt concurrently.
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
