package qql

import (
	"fmt"
	"testing"

	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/value"
)

// BenchmarkUpdateByKey measures one keyed UPDATE — the data quality
// administrator re-certifying one cell — against a 100k-row table with a
// hash index on the key: parse, collection, SET evaluation and the
// copy-on-write apply, with no log attached.
func BenchmarkUpdateByKey(b *testing.B) {
	const n = 100_000
	s := NewSession(storage.NewCatalog())
	s.MustExec(`CREATE TABLE customer (
  co_name string REQUIRED,
  employees int QUALITY (creation_time time, source string)
) KEY (co_name)`)
	tbl, _ := s.Catalog().Get("customer")
	for i := 0; i < n; i++ {
		if _, err := tbl.Insert(relation.NewTuple(value.Str(fmt.Sprintf("k%06d", i)), value.Int(int64(i)))); err != nil {
			b.Fatal(err)
		}
	}
	s.MustExec(`CREATE INDEX ON customer (co_name) USING HASH`)
	stmts := make([]string, 1024)
	for i := range stmts {
		stmts[i] = fmt.Sprintf(`UPDATE customer SET employees = %d @ {source: 'recert'} WHERE co_name = 'k%06d'`, i, i*97%n)
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		res, err := s.Exec(stmts[i%len(stmts)])
		if err != nil {
			b.Fatal(err)
		}
		if res[0].Msg != "updated 1 row(s) in customer" {
			b.Fatal(res[0].Msg)
		}
	}
}
