package qql

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/tag"
	"repro/internal/value"
)

// joinPruneCatalog builds the quality report's join inputs small: a
// customer table over two heap segments whose address and employees
// cells carry tags, polygen sources and, on some rows, a meta-quality
// credibility on the source tag; an emp_dim table whose employees column
// collides with customer's (emp_dim_employees in a join) and whose band
// cells are partly tagged and sourced; and a band_info table to chain a
// second join onto band.
func joinPruneCatalog(t testing.TB) *storage.Catalog {
	t.Helper()
	const rows, dimRows = 2*storage.SegmentSize + 100, 300
	epoch := time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC)
	cat := storage.NewCatalog()
	s := NewSession(cat)
	s.MustExec(`CREATE TABLE customer (
  co_name string REQUIRED,
  address string QUALITY (source string),
  employees int QUALITY (creation_time time, source string)
) KEY (co_name)`)
	s.MustExec(`CREATE TABLE emp_dim (employees int REQUIRED, band string QUALITY (source string)) KEY (employees)`)
	s.MustExec(`CREATE TABLE band_info (band string REQUIRED, tier int) KEY (band)`)
	sources := []string{"sales", "accounting", "Nexis", "estimate"}
	cust, _ := cat.Get("customer")
	for i := 0; i < rows; i++ {
		src := sources[i%len(sources)]
		emp := relation.Cell{V: value.Int(int64(1 + (i*7)%(dimRows+20))), Sources: tag.NewSources(src), Tags: tag.NewSet(
			tag.Tag{Indicator: "creation_time", Value: value.Time(epoch.Add(-time.Duration(i%97) * time.Hour))},
			tag.Tag{Indicator: "source", Value: value.Str(src)},
		)}
		if i%5 == 0 {
			emp.Meta = map[string]tag.Set{"source": tag.NewSet(tag.Tag{Indicator: "credibility", Value: value.Str([]string{"high", "low"}[i/5%2])})}
		}
		addr := relation.Cell{V: value.Str(fmt.Sprintf("b%02d", i%13))}
		if i%3 == 0 {
			addr.Tags = tag.NewSet(tag.Tag{Indicator: "source", Value: value.Str(src)})
		}
		if _, err := cust.Insert(relation.Tuple{Cells: []relation.Cell{{V: value.Str(fmt.Sprintf("Co %d", i))}, addr, emp}}); err != nil {
			t.Fatal(err)
		}
	}
	dim, _ := cat.Get("emp_dim")
	for e := 1; e <= dimRows; e++ {
		band := relation.Cell{V: value.Str(fmt.Sprintf("b%02d", e/25))}
		if e%2 == 0 {
			band.Tags = tag.NewSet(tag.Tag{Indicator: "source", Value: value.Str([]string{"ref", "atlas"}[e%4/2])})
			band.Sources = tag.NewSources([]string{"ref", "atlas"}[e%4/2])
		}
		if _, err := dim.Insert(relation.Tuple{Cells: []relation.Cell{{V: value.Int(int64(e))}, band}}); err != nil {
			t.Fatal(err)
		}
	}
	s.MustExec(`INSERT INTO band_info VALUES ('b00', 1), ('b03', 2), ('b07', 3), ('b11', 4), ('zz', 5)`)
	return cat
}

// joinPruneQueries cover every way a join's columns are read: a star, an
// ORDER BY without an aggregate, a residual ON naming a right-side column,
// WHERE and WITH QUALITY on right-side columns, SOURCE() and meta-quality
// refs, aliases, the colliding emp_dim_employees name, grouped aggregates
// over plain and indicator keys, two chained joins, nested-loop joins with
// no equi-key, and a join that matches no rows.
var joinPruneQueries = []string{
	`SELECT * FROM customer JOIN emp_dim ON customer.employees = emp_dim.employees WHERE emp_dim_employees < 40`,
	`SELECT co_name, band FROM customer c JOIN emp_dim e ON c.employees = e.employees ORDER BY band, co_name LIMIT 60`,
	`SELECT c.co_name, e.band FROM customer c JOIN emp_dim e ON c.employees = e.employees AND c.address > e.band`,
	`SELECT c.co_name, e.employees FROM customer c JOIN emp_dim e ON c.employees = e.employees WHERE e.employees >= 100 WITH QUALITY e.band@source = 'ref'`,
	`SELECT COUNT(*) AS n FROM customer c JOIN emp_dim e ON c.employees = e.employees WHERE SOURCE(e.band, 'atlas') WITH QUALITY c.employees@source@credibility = 'low'`,
	`SELECT band, COUNT(*) AS n FROM customer JOIN emp_dim ON customer.employees = emp_dim.employees GROUP BY band`,
	`SELECT band, COUNT(*) AS n, SUM(customer.employees) AS s, MIN(address) AS lo FROM customer JOIN emp_dim ON customer.employees = emp_dim.employees GROUP BY band`,
	`SELECT emp_dim_employees, COUNT(*) AS n FROM customer JOIN emp_dim ON customer.employees = emp_dim.employees GROUP BY emp_dim_employees ORDER BY n DESC LIMIT 5`,
	`SELECT e.band@source AS s, COUNT(*) AS n, MAX(c.employees) AS m FROM customer c JOIN emp_dim e ON c.employees = e.employees GROUP BY e.band@source`,
	`SELECT x.co_name AS who, y.band AS b FROM customer x JOIN emp_dim y ON x.employees = y.employees WHERE y.employees < 20`,
	`SELECT DISTINCT y.band FROM customer x JOIN emp_dim y ON x.employees = y.employees AND x.employees > 150`,
	`SELECT c.co_name, t.tier FROM customer c JOIN emp_dim e ON c.employees = e.employees JOIN band_info t ON e.band = t.band WHERE t.tier > 1`,
	`SELECT t.tier, COUNT(*) AS n FROM customer c JOIN emp_dim e ON c.employees = e.employees JOIN band_info t ON c.address = t.band GROUP BY t.tier`,
	`SELECT COUNT(*) AS n, MAX(t.tier) AS m FROM customer c JOIN band_info t ON c.employees < t.tier`,
	`SELECT c.co_name, t.band FROM customer c JOIN band_info t ON c.address = t.band AND c.employees < 3`,
	`SELECT c.co_name FROM customer c JOIN band_info t ON c.co_name = t.band`,
	`SELECT COUNT(*) AS n FROM customer c JOIN band_info t ON t.tier > 9`,
}

// TestJoinColumnPruningMatchesAllColumns runs every join query twice, once
// carrying only the columns the plan reads and once carrying every column,
// at degrees 1 and 4 and batch sizes 1 and 1024, and demands identical
// answers, tags and sources included, and identical EXPLAIN text.
func TestJoinColumnPruningMatchesAllColumns(t *testing.T) {
	cat := joinPruneCatalog(t)
	s := NewSession(cat)
	for _, q := range joinPruneQueries {
		for _, degree := range []int{1, 4} {
			for _, bs := range []int{1, 1024} {
				s.SetParallelism(degree)
				s.batchSize = bs
				var out, plan [2]string
				for i, all := range []bool{false, true} {
					s.joinAllCols = all
					got, err := s.Query(q)
					if err != nil {
						t.Fatalf("%q (deg %d, batch %d, all columns %v): %v", q, degree, bs, all, err)
					}
					out[i] = relation.Format(got, true)
					plan[i] = s.MustExec("EXPLAIN " + q)[0].Plan
				}
				s.joinAllCols = false
				if out[0] != out[1] {
					t.Fatalf("%q (deg %d, batch %d): pruned join answers\n%s\nall columns answer\n%s", q, degree, bs, out[0], out[1])
				}
				if plan[0] != plan[1] {
					t.Fatalf("%q (deg %d, batch %d): EXPLAIN differs:\n%s\nvs\n%s", q, degree, bs, plan[0], plan[1])
				}
			}
		}
	}
}
