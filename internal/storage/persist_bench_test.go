package storage

import (
	"bytes"
	"math/rand"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/tag"
	"repro/internal/value"
)

// benchSaveRows is the catalog size the checkpoint benchmarks encode and
// decode: one durable_ingest round's largest checkpoint is of this order.
const benchSaveRows = 20000

// customerSchema is the benchmark's customer table: a keyed name, then
// an address and an employee count, each tagged with creation_time and
// source.
func customerSchema() *schema.Schema {
	inds := []tag.Indicator{
		{Name: "creation_time", Kind: value.KindTime},
		{Name: "source", Kind: value.KindString},
	}
	return schema.MustNew("customer", []schema.Attr{
		{Name: "co_name", Kind: value.KindString, Required: true},
		{Name: "address", Kind: value.KindString, Indicators: inds},
		{Name: "employees", Kind: value.KindInt, Indicators: inds},
	}, "co_name")
}

// customerRows draws n customer rows: each tagged cell carries its source
// as polygen source too.
func customerRows(n int) []relation.Tuple {
	sources := []string{"sales", "accounting", "Nexis", "estimate"}
	epoch := time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC)
	r := rand.New(rand.NewSource(1))
	tagged := func(v value.Value) relation.Cell {
		src := sources[r.Intn(len(sources))]
		at := epoch.Add(-time.Duration(r.Int63n(365*24*3600)) * time.Second)
		return relation.Cell{
			V: v,
			Tags: tag.NewSet(
				tag.Tag{Indicator: "creation_time", Value: value.Time(at)},
				tag.Tag{Indicator: "source", Value: value.Str(src)},
			),
			Sources: tag.NewSources(src),
		}
	}
	rows := make([]relation.Tuple, n)
	for i := range rows {
		rows[i] = relation.Tuple{Cells: []relation.Cell{
			{V: value.Str("Fruit Co " + strconv.Itoa(i))},
			tagged(value.Str(strconv.Itoa(1+r.Intn(999)) + " Main St")),
			tagged(value.Int(int64(1 + r.Intn(10000)))),
		}}
	}
	return rows
}

// customerCatalog builds n customer rows, plus a hash index on the name.
func customerCatalog(tb testing.TB, n int) *Catalog {
	tb.Helper()
	cat := NewCatalog()
	tbl, err := cat.Create(customerSchema(), false)
	if err != nil {
		tb.Fatal(err)
	}
	for _, row := range customerRows(n) {
		if _, err := tbl.Insert(row); err != nil {
			tb.Fatal(err)
		}
	}
	if err := tbl.CreateIndex(IndexTarget{Attr: "co_name"}, IndexHash); err != nil {
		tb.Fatal(err)
	}
	return cat
}

// BenchmarkCatalogSave measures a checkpoint's encode: WriteCheckpoint of
// 20k customer rows into a buffer, reported per row, with the checkpoint's
// size per row.
func BenchmarkCatalogSave(b *testing.B) {
	cat := customerCatalog(b, benchSaveRows)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := cat.WriteCheckpoint(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchSaveRows), "ns/row")
	b.ReportMetric(float64(buf.Len())/benchSaveRows, "B/row")
}

// BenchmarkLoadCatalog measures recovery's checkpoint decode:
// LoadCheckpoint of the same 20k rows, index rebuild included, reported
// per row.
func BenchmarkLoadCatalog(b *testing.B) {
	var buf bytes.Buffer
	if err := customerCatalog(b, benchSaveRows).WriteCheckpoint(&buf); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadCheckpoint(buf.Bytes()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchSaveRows), "ns/row")
	b.ReportMetric(float64(buf.Len())/benchSaveRows, "B/row")
}

// BenchmarkTableHeap measures what a 100k-row customer table costs: the
// live heap it adds, read after two GCs, and the insert time, per row, for
// each combination of the primary key and the hash index on the name. The
// rows' strings and tag sets are shared with the input, so the heap is the
// table's own: its column runs and its key structures.
func BenchmarkTableHeap(b *testing.B) {
	const n = 100000
	rows := customerRows(n)
	for _, shape := range []struct {
		name       string
		key, index bool
	}{{"bare", false, false}, {"key", true, false}, {"index", false, true}, {"both", true, true}} {
		b.Run(shape.name, func(b *testing.B) {
			sc := customerSchema()
			if !shape.key {
				sc = schema.MustNew(sc.Name, sc.Attrs)
			}
			var heap, elapsed float64
			for i := 0; i < b.N; i++ {
				var before, after runtime.MemStats
				runtime.GC()
				runtime.GC()
				runtime.ReadMemStats(&before)
				start := time.Now()
				tbl := NewTable(sc, false)
				if shape.index {
					if err := tbl.CreateIndex(IndexTarget{Attr: "co_name"}, IndexHash); err != nil {
						b.Fatal(err)
					}
				}
				for _, row := range rows {
					if _, err := tbl.Insert(row); err != nil {
						b.Fatal(err)
					}
				}
				elapsed += float64(time.Since(start).Nanoseconds())
				runtime.GC()
				runtime.GC()
				runtime.ReadMemStats(&after)
				heap += float64(after.HeapAlloc) - float64(before.HeapAlloc)
				runtime.KeepAlive(tbl)
			}
			b.ReportMetric(heap/float64(b.N*n), "heapB/row")
			b.ReportMetric(elapsed/float64(b.N*n), "insert-ns/row")
		})
	}
}
