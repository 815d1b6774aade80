package qql

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/tag"
	"repro/internal/value"
)

// The five statements of the benchmark's quality report, verbatim.
var qualityReport = []struct{ name, q string }{
	{"quality", `SELECT COUNT(*) AS n FROM customer WITH QUALITY employees@source != 'estimate'`},
	{"fresh", `SELECT COUNT(*) AS n FROM customer WITH QUALITY AGE(employees@creation_time) <= d'720h'`},
	{"group", `SELECT employees@source AS src, COUNT(*) AS n, SUM(employees) AS s FROM customer GROUP BY employees@source`},
	{"join", `SELECT band, COUNT(*) AS n FROM customer JOIN emp_dim ON customer.employees = emp_dim.employees GROUP BY band`},
	{"project", `SELECT co_name, employees FROM customer WHERE employees >= 9801`},
}

// reportCatalog builds the report's inputs: a 100k-row customer table of
// three columns whose two value columns carry creation_time and source
// tags from four sources, and a 10k-row emp_dim table to join against.
func reportCatalog(b *testing.B) *storage.Catalog {
	b.Helper()
	const rows, dimRows = 100_000, 10_000
	epoch := time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC)
	sources := []string{"sales", "accounting", "Nexis", "estimate"}
	cat := storage.NewCatalog()
	s := NewSession(cat)
	s.MustExec(`CREATE TABLE customer (
  co_name string REQUIRED,
  address string QUALITY (creation_time time, source string),
  employees int QUALITY (creation_time time, source string)
) KEY (co_name)`)
	s.MustExec(`CREATE TABLE emp_dim (employees int REQUIRED, band string) KEY (employees)`)
	r := rand.New(rand.NewSource(1))
	tagged := func(v value.Value) relation.Cell {
		src := sources[r.Intn(len(sources))]
		at := epoch.Add(-time.Duration(r.Int63n(365*24*3600)) * time.Second)
		return relation.Cell{V: v, Sources: tag.NewSources(src), Tags: tag.NewSet(
			tag.Tag{Indicator: "creation_time", Value: value.Time(at)},
			tag.Tag{Indicator: "source", Value: value.Str(src)},
		)}
	}
	cust, _ := cat.Get("customer")
	for i := 0; i < rows; i++ {
		tup := relation.Tuple{Cells: []relation.Cell{
			{V: value.Str(fmt.Sprintf("Co %d", i))},
			tagged(value.Str(fmt.Sprintf("%d Main St", 1+r.Intn(999)))),
			tagged(value.Int(int64(1 + r.Intn(dimRows)))),
		}}
		if _, err := cust.Insert(tup); err != nil {
			b.Fatal(err)
		}
	}
	dim, _ := cat.Get("emp_dim")
	for e := int64(1); e <= dimRows; e++ {
		if _, err := dim.Insert(relation.NewTuple(value.Int(e), value.Str(fmt.Sprintf("b%02d", e/500)))); err != nil {
			b.Fatal(err)
		}
	}
	return cat
}

// BenchmarkQualityReport runs each statement of the quality report over
// the report catalog, serially and fanned out to GOMAXPROCS workers, as
// plan-cache hits: the engine's share of one report, statement by
// statement, in ns/op and B/op.
func BenchmarkQualityReport(b *testing.B) {
	cat := reportCatalog(b)
	for _, degree := range []int{1, runtime.GOMAXPROCS(0)} {
		for _, st := range qualityReport {
			b.Run(fmt.Sprintf("%s/degree=%d", st.name, degree), func(b *testing.B) {
				s := NewSession(cat)
				s.SetNow(time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC))
				s.SetPlanCache(NewPlanCache(16))
				s.SetParallelism(degree)
				b.ReportAllocs()
				for b.Loop() {
					if _, err := s.Query(st.q); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPointLookup runs the benchmark's indexed point SELECT over the
// report catalog, with a hash index on co_name, cycling 128 keys that all
// stay plan-cache hits: the engine's share of one oltp_read operation.
func BenchmarkPointLookup(b *testing.B) {
	cat := reportCatalog(b)
	cust, _ := cat.Get("customer")
	if err := cust.CreateIndex(storage.IndexTarget{Attr: "co_name"}, storage.IndexHash); err != nil {
		b.Fatal(err)
	}
	qs := make([]string, 128)
	for i := range qs {
		qs[i] = fmt.Sprintf("SELECT co_name, employees, employees@source, employees@creation_time FROM customer WHERE co_name = 'Co %d'", i*701)
	}
	s := NewSession(cat)
	s.SetPlanCache(NewPlanCache(256))
	for _, q := range qs {
		out, err := s.Query(q)
		if err != nil {
			b.Fatal(err)
		}
		if out.Len() != 1 {
			b.Fatalf("%q: %d rows, want 1", q, out.Len())
		}
	}
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if _, err := s.Query(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
		i++
	}
}
