package qql

import (
	"fmt"
	"testing"

	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/tag"
	"repro/internal/value"
)

// allocCatalog is the quality report's two tables over full heap segments:
// customer.employees carries a source tag from four sources and a polygen
// source set, and emp_dim is a 10k-row join dimension with 20 bands.
func allocCatalog(t *testing.T, segs int) *storage.Catalog {
	t.Helper()
	const dimRows = 10_000
	cat := storage.NewCatalog()
	s := NewSession(cat)
	s.MustExec(`CREATE TABLE customer (co_name string REQUIRED, employees int QUALITY (source string)) KEY (co_name)`)
	s.MustExec(`CREATE TABLE emp_dim (employees int REQUIRED, band string) KEY (employees)`)
	sources := []string{"sales", "accounting", "Nexis", "estimate"}
	cust, _ := cat.Get("customer")
	for i := 0; i < segs*storage.SegmentSize; i++ {
		src := sources[i%len(sources)]
		emp := relation.Cell{V: value.Int(int64(1 + (i*7919)%dimRows)), Sources: tag.NewSources(src),
			Tags: tag.NewSet(tag.Tag{Indicator: "source", Value: value.Str(src)})}
		if _, err := cust.Insert(relation.Tuple{Cells: []relation.Cell{{V: value.Str(fmt.Sprintf("Co %d", i))}, emp}}); err != nil {
			t.Fatal(err)
		}
	}
	dim, _ := cat.Get("emp_dim")
	for e := int64(1); e <= dimRows; e++ {
		if _, err := dim.Insert(relation.NewTuple(value.Int(e), value.Str(fmt.Sprintf("b%02d", e/500)))); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// queryAllocs reports the heap allocations of one plan-cache-hit run of q
// at the given parallel degree, checking it returns wantRows rows.
func queryAllocs(t *testing.T, cat *storage.Catalog, q string, degree, wantRows int) float64 {
	t.Helper()
	s := NewSession(cat)
	s.SetPlanCache(NewPlanCache(4))
	s.SetParallelism(degree)
	run := func() {
		out, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if out.Len() != wantRows {
			t.Fatalf("%q: %d rows, want %d", q, out.Len(), wantRows)
		}
	}
	run() // warm the plan cache and the batch pool
	return testing.AllocsPerRun(5, run)
}

// TestGroupedAggregateAllocsPerGroup is the allocation regression test
// for the grouped aggregate: GROUP BY an indicator with SUM over eight
// full segments allocates per group and per query, not per row. Groups are
// found by value hash, and a provenance fold that changes nothing is
// skipped. The literal-keyed aggregate it replaced built a key string and
// folded tags and sources into fresh sets on every row: over these 32768
// rows it made ≈ 131k allocations per query, four per row.
func TestGroupedAggregateAllocsPerGroup(t *testing.T) {
	cat := allocCatalog(t, 8)
	const q = `SELECT employees@source AS src, COUNT(*) AS n, SUM(employees) AS s FROM customer GROUP BY employees@source`
	for _, degree := range []int{1, 4} {
		n := queryAllocs(t, cat, q, degree, 4)
		t.Logf("degree %d: %.0f allocations per query", degree, n)
		if n > 300 {
			t.Errorf("degree %d: grouped aggregate makes %.0f allocations per query, want ≤ 300 (O(groups), not O(rows))", degree, n)
		}
	}
}

// TestHashJoinAllocsPerBuild is the allocation regression test for the
// hash join: a 10k-row build side costs a few allocations per build — a
// flat chained table and the carried columns' vectors — not one bucket
// slice per build row, and probing eight full segments allocates nothing
// per row. The map-of-slices build table it replaced made one bucket
// slice per build row; with the literal group keys above the join, this
// query made ≈ 76k allocations.
func TestHashJoinAllocsPerBuild(t *testing.T) {
	cat := allocCatalog(t, 8)
	const q = `SELECT band, COUNT(*) AS n FROM customer JOIN emp_dim ON customer.employees = emp_dim.employees GROUP BY band`
	for _, degree := range []int{1, 4} {
		n := queryAllocs(t, cat, q, degree, 21)
		t.Logf("degree %d: %.0f allocations per query", degree, n)
		if n > 600 {
			t.Errorf("degree %d: hash join makes %.0f allocations per query, want ≤ 600 (O(1) per build)", degree, n)
		}
	}
}
