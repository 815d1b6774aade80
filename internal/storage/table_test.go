package storage

import (
	"sync"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/tag"
	"repro/internal/value"
)

func custSchema() *schema.Schema {
	return schema.MustNew("customer", []schema.Attr{
		{Name: "co_name", Kind: value.KindString, Required: true},
		{Name: "address", Kind: value.KindString,
			Indicators: []tag.Indicator{{Name: "creation_time", Kind: value.KindTime}, {Name: "source", Kind: value.KindString}}},
		{Name: "employees", Kind: value.KindInt,
			Indicators: []tag.Indicator{{Name: "creation_time", Kind: value.KindTime}, {Name: "source", Kind: value.KindString}}},
	}, "co_name")
}

func custTuple(name, addr string, emp int64, when time.Time, src string) relation.Tuple {
	tags := tag.NewSet(
		tag.Tag{Indicator: "creation_time", Value: value.Time(when)},
		tag.Tag{Indicator: "source", Value: value.Str(src)},
	)
	return relation.Tuple{Cells: []relation.Cell{
		{V: value.Str(name)},
		{V: value.Str(addr), Tags: tags},
		{V: value.Int(emp), Tags: tags},
	}}
}

var t0 = time.Date(1991, 1, 2, 0, 0, 0, 0, time.UTC)

func TestTableInsertGetUpdateDelete(t *testing.T) {
	tbl := NewTable(custSchema(), true)
	id, err := tbl.Insert(custTuple("Fruit Co", "12 Jay St", 4004, t0, "sales"))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	got, ok := tbl.Get(id)
	if !ok || got.Cells[0].V.AsString() != "Fruit Co" {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	// Duplicate key rejected.
	if _, err := tbl.Insert(custTuple("Fruit Co", "elsewhere", 1, t0, "x")); err == nil {
		t.Fatal("duplicate key should be rejected")
	}
	// Update.
	upd := custTuple("Fruit Co", "99 New Rd", 4100, t0.AddDate(0, 1, 0), "acct'g")
	if err := tbl.Update(id, upd); err != nil {
		t.Fatal(err)
	}
	got, _ = tbl.Get(id)
	if got.Cells[1].V.AsString() != "99 New Rd" {
		t.Errorf("update not applied: %v", got)
	}
	// Key change via update.
	moved := custTuple("Fruit Corp", "99 New Rd", 4100, t0, "acct'g")
	if err := tbl.Update(id, moved); err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.LookupKey(value.Str("Fruit Co")); ok {
		t.Error("old key should be gone after key-changing update")
	}
	if rid, ok := tbl.LookupKey(value.Str("Fruit Corp")); !ok || rid != id {
		t.Error("new key not found")
	}
	// Delete.
	if err := tbl.Delete(id); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 0 {
		t.Errorf("Len after delete = %d", tbl.Len())
	}
	if _, ok := tbl.Get(id); ok {
		t.Error("Get of deleted row should fail")
	}
	if err := tbl.Delete(id); err == nil {
		t.Error("double delete should fail")
	}
	if err := tbl.Update(id, upd); err == nil {
		t.Error("update of dead row should fail")
	}
}

func TestTableStrictValidation(t *testing.T) {
	tbl := NewTable(custSchema(), true)
	// Missing required indicator tags.
	bare := relation.NewTuple(value.Str("X"), value.Str("addr"), value.Int(1))
	if _, err := tbl.Insert(bare); err == nil {
		t.Fatal("strict table must reject untagged cells")
	}
	// Lenient table accepts.
	lenient := NewTable(custSchema(), false)
	if _, err := lenient.Insert(bare); err != nil {
		t.Fatalf("lenient insert failed: %v", err)
	}
	// Wrong arity and wrong kind.
	if _, err := lenient.Insert(relation.NewTuple(value.Str("X"))); err == nil {
		t.Error("arity mismatch should fail")
	}
	if _, err := lenient.Insert(relation.NewTuple(value.Int(1), value.Str("a"), value.Int(2))); err == nil {
		t.Error("kind mismatch should fail")
	}
}

func TestTableIndexedLookups(t *testing.T) {
	tbl := NewTable(custSchema(), true)
	names := []string{"A", "B", "C", "D", "E", "F"}
	srcs := []string{"sales", "nexis", "sales", "acctg", "nexis", "sales"}
	for i, n := range names {
		_, err := tbl.Insert(custTuple(n, "addr", int64(i*100), t0.AddDate(0, i, 0), srcs[i]))
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.CreateIndex(IndexTarget{Attr: "employees", Indicator: "source"}, IndexHash); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex(IndexTarget{Attr: "employees", Indicator: "creation_time"}, IndexBTree); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex(IndexTarget{Attr: "employees"}, IndexBTree); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex(IndexTarget{Attr: "employees"}, IndexBTree); err == nil {
		t.Error("duplicate index should fail")
	}
	if err := tbl.CreateIndex(IndexTarget{Attr: "nope"}, IndexHash); err == nil {
		t.Error("index on unknown attribute should fail")
	}
	if got := len(tbl.Indexes()); got != 3 {
		t.Errorf("Indexes() len = %d", got)
	}

	// Equality over an indicator, via hash index.
	ids, err := tbl.LookupEq(IndexTarget{Attr: "employees", Indicator: "source"}, value.Str("sales"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Errorf("source=sales ids = %v", ids)
	}
	// Range over indicator creation_time via btree: first three months.
	ids, err = tbl.LookupRange(IndexTarget{Attr: "employees", Indicator: "creation_time"},
		Incl(value.Time(t0)), Excl(value.Time(t0.AddDate(0, 3, 0))))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Errorf("creation_time range ids = %v", ids)
	}
	// Range over application values.
	ids, err = tbl.LookupRange(IndexTarget{Attr: "employees"}, Incl(value.Int(200)), Incl(value.Int(400)))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Errorf("employees range ids = %v", ids)
	}
	// Same lookups must work without indexes (scan fallback).
	plain := NewTable(custSchema(), true)
	for i, n := range names {
		if _, err := plain.Insert(custTuple(n, "addr", int64(i*100), t0.AddDate(0, i, 0), srcs[i])); err != nil {
			t.Fatal(err)
		}
	}
	ids2, err := plain.LookupEq(IndexTarget{Attr: "employees", Indicator: "source"}, value.Str("sales"))
	if err != nil || len(ids2) != 3 {
		t.Fatalf("scan fallback eq = %v, %v", ids2, err)
	}
	ids3, err := plain.LookupRange(IndexTarget{Attr: "employees"}, Incl(value.Int(200)), Incl(value.Int(400)))
	if err != nil || len(ids3) != 3 {
		t.Errorf("scan fallback range = %v, %v", ids3, err)
	}
	// Deleted rows disappear from indexed lookups.
	delID, _ := tbl.LookupKey(value.Str("A"))
	if err := tbl.Delete(delID); err != nil {
		t.Fatal(err)
	}
	ids, _ = tbl.LookupEq(IndexTarget{Attr: "employees", Indicator: "source"}, value.Str("sales"))
	if len(ids) != 2 {
		t.Errorf("after delete source=sales ids = %v", ids)
	}
}

func TestTableScanAndSnapshot(t *testing.T) {
	tbl := NewTable(custSchema(), true)
	for i := 0; i < 10; i++ {
		name := string(rune('a' + i))
		if _, err := tbl.Insert(custTuple(name, "addr", int64(i), t0, "s")); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	tbl.Scan(func(id RowID, tup relation.Tuple) bool {
		n++
		return true
	})
	if n != 10 {
		t.Errorf("scan visited %d", n)
	}
	n = 0
	tbl.Scan(func(RowID, relation.Tuple) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("early-stop scan visited %d", n)
	}
	snap := tbl.SnapshotCols([]int{0, 2})
	if len(snap) != 1 || snap[0].Live() != 10 {
		t.Fatalf("snapshot = %d views", len(snap))
	}
	// Snapshot isolation: neither a delete nor a copy-on-write update
	// reaches a captured view.
	id, _ := tbl.LookupKey(value.Str("a"))
	if err := tbl.Delete(id); err != nil {
		t.Fatal(err)
	}
	id, _ = tbl.LookupKey(value.Str("b"))
	if err := tbl.Update(id, custTuple("b", "addr", 99, t0, "s")); err != nil {
		t.Fatal(err)
	}
	cells := make([]relation.Cell, 2)
	if snap[0].Live() != 10 || snap[0].RowInto(1, cells) != id || cells[1].V.AsInt() != 1 {
		t.Errorf("snapshot aliased live table: live %d, row 1 = %v", snap[0].Live(), cells)
	}
	if now := tbl.SnapshotCols([]int{0, 2}); now[0].Live() != 9 || now[0].RowInto(0, cells) != id || cells[1].V.AsInt() != 99 {
		t.Errorf("fresh snapshot missed the writes: live %d, row 0 = %v", now[0].Live(), cells)
	}
}

func TestTableConcurrentAccess(t *testing.T) {
	tbl := NewTable(custSchema(), true)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				name := string(rune('A'+g)) + "-" + string(rune('0'+i%10)) + string(rune('0'+i/10))
				_, err := tbl.Insert(custTuple(name, "addr", int64(i), t0, "s"))
				if err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				tbl.Scan(func(RowID, relation.Tuple) bool { return false })
			}
		}(g)
	}
	wg.Wait()
	if tbl.Len() != 400 {
		t.Errorf("Len = %d, want 400", tbl.Len())
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	s := custSchema()
	tbl, err := c.Create(s, true)
	if err != nil || tbl == nil {
		t.Fatal(err)
	}
	if _, err := c.Create(s, true); err == nil {
		t.Error("duplicate table should fail")
	}
	got, ok := c.Get("customer")
	if !ok || got != tbl {
		t.Error("Get broken")
	}
	if _, ok := c.Get("nope"); ok {
		t.Error("Get of absent table should fail")
	}
	names := c.Names()
	if len(names) != 1 || names[0] != "customer" {
		t.Errorf("Names = %v", names)
	}
	if !c.Drop("customer") || c.Drop("customer") {
		t.Error("Drop semantics broken")
	}
}

func TestLoadFromRelation(t *testing.T) {
	rel := relation.New(custSchema())
	rel.MustAppend(custTuple("X", "a", 1, t0, "s"))
	rel.MustAppend(custTuple("Y", "b", 2, t0, "s"))
	tbl := NewTable(custSchema(), true)
	if err := tbl.Load(rel); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 2 {
		t.Errorf("Len = %d", tbl.Len())
	}
	// Loading again fails on duplicate keys and reports the row.
	if err := tbl.Load(rel); err == nil {
		t.Error("reload should fail on duplicate key")
	}
}

// TestCatalogResolveAt holds ResolveAt to Resolve plus a version compare: it
// resolves only while every table exists at the version it was resolved at.
func TestCatalogResolveAt(t *testing.T) {
	c := NewCatalog()
	if _, err := c.Create(custSchema(), false); err != nil {
		t.Fatal(err)
	}
	names := []string{"customer"}
	want, versions, missing := c.Resolve(names)
	if missing != "" {
		t.Fatalf("Resolve missed %q", missing)
	}
	got, ok := c.ResolveAt(names, versions)
	if !ok || len(got) != 1 || got[0] != want[0] {
		t.Fatalf("ResolveAt at the current version = %v, %v", got, ok)
	}
	if n := testing.AllocsPerRun(100, func() { c.ResolveAt(names, versions) }); n > 1 {
		t.Errorf("ResolveAt allocates %v times, want at most the tables slice", n)
	}
	c.Bump("customer")
	if _, ok := c.ResolveAt(names, versions); ok {
		t.Error("ResolveAt validated a moved version")
	}
	if _, ok := c.ResolveAt([]string{"nope"}, []uint64{0}); ok {
		t.Error("ResolveAt resolved a missing table")
	}
}
