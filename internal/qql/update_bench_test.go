package qql

import (
	"fmt"
	"strconv"
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

// BenchmarkTaggedInsert measures one tagged INSERT of the shape the
// durable_ingest workload sends — a new key plus two cells carrying
// creation_time and source tags — through Session.Exec with a default-size
// plan cache attached, into a keyed customer table with a hash index on
// co_name and no log: the lexing, parsing, cache-key and insert front end
// every ingested row pays. Building each statement's text is one of the
// op's allocations.
func BenchmarkTaggedInsert(b *testing.B) {
	s := NewSession(storage.NewCatalog())
	s.SetPlanCache(NewPlanCache(DefaultCacheSize))
	s.MustExec(`CREATE TABLE customer (
  co_name string REQUIRED,
  address string QUALITY (creation_time time, source string),
  employees int QUALITY (creation_time time, source string)
) KEY (co_name);
CREATE INDEX ON customer (co_name) USING HASH`)
	const tail = `', '12 Orchard Rd' @ {creation_time: t'1991-10-03T07:15:00Z', source: 'Nexis'}, ` +
		`4004 @ {creation_time: t'1991-06-14T22:40:09Z', source: 'estimate'})`
	buf := []byte(`INSERT INTO customer VALUES ('c`)
	head := len(buf)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		buf = append(strconv.AppendInt(buf[:head], int64(i), 10), tail...)
		res, err := s.Exec(string(buf))
		if err != nil {
			b.Fatal(err)
		}
		if res[0].Msg != "inserted 1 row(s) into customer" {
			b.Fatal(res[0].Msg)
		}
	}
}
