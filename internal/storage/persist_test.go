package storage

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/tag"
	"repro/internal/value"
)

// buildRichCatalog exercises every persisted feature: schemas with required
// indicators, strict mode, keys, indexes of both kinds, table tags, cell
// tags, polygen sources, meta-quality, nulls, and all value kinds.
func buildRichCatalog(t *testing.T) *Catalog {
	t.Helper()
	cat := NewCatalog()
	sc := schema.MustNew("rich", []schema.Attr{
		{Name: "id", Kind: value.KindInt, Required: true},
		{Name: "name", Kind: value.KindString,
			Indicators: []tag.Indicator{{Name: "source", Kind: value.KindString, Doc: "origin"}}},
		{Name: "score", Kind: value.KindFloat},
		{Name: "seen", Kind: value.KindTime},
		{Name: "ttl", Kind: value.KindDuration},
		{Name: "ok", Kind: value.KindBool},
	}, "id")
	sc.Doc = "persistence fixture"
	tbl, err := cat.Create(sc, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex(IndexTarget{Attr: "score"}, IndexBTree); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex(IndexTarget{Attr: "name", Indicator: "source"}, IndexHash); err != nil {
		t.Fatal(err)
	}
	tbl.SetTableTag("population_method", value.Str("fixture"))
	tbl.SetTableTag("null_rate", value.Float(0.125))

	when := time.Date(1991, 10, 3, 12, 34, 56, 789000000, time.UTC)
	cell := relation.Cell{
		V:       value.Str("Fruit Co"),
		Tags:    tag.NewSet(tag.Tag{Indicator: "source", Value: value.Str("Nexis")}),
		Sources: tag.NewSources("nexis", "wsj"),
	}
	cell = cell.WithMetaTag("source", "credibility", value.Str("high"))
	row := relation.Tuple{Cells: []relation.Cell{
		{V: value.Int(1)},
		cell,
		{V: value.Float(2.5)},
		{V: value.Time(when)},
		{V: value.Duration(90 * time.Minute)},
		{V: value.Bool(true)},
	}}
	if _, err := tbl.Insert(row); err != nil {
		t.Fatal(err)
	}
	// A row with nulls in optional columns.
	row2 := relation.Tuple{Cells: []relation.Cell{
		{V: value.Int(2)},
		{V: value.Str("Nut Co"), Tags: tag.NewSet(tag.Tag{Indicator: "source", Value: value.Str("estimate")})},
		{V: value.Null},
		{V: value.Null},
		{V: value.Null},
		{V: value.Null},
	}}
	if _, err := tbl.Insert(row2); err != nil {
		t.Fatal(err)
	}
	// A second, plain table.
	sc2 := schema.MustNew("plain", []schema.Attr{{Name: "x", Kind: value.KindInt}})
	tbl2, _ := cat.Create(sc2, false)
	for i := 0; i < 5; i++ {
		if _, err := tbl2.Insert(relation.NewTuple(value.Int(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// scanRows collects the table's live rows in row-ID order.
func scanRows(tbl *Table) []relation.Tuple {
	var rows []relation.Tuple
	tbl.Scan(func(_ RowID, tup relation.Tuple) bool {
		rows = append(rows, tup)
		return true
	})
	return rows
}

func TestSaveLoadRoundTrip(t *testing.T) {
	cat := buildRichCatalog(t)
	var buf bytes.Buffer
	if err := cat.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCatalog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loaded.Names(), cat.Names(); len(got) != len(want) {
		t.Fatalf("tables = %v, want %v", got, want)
	}
	a, _ := cat.Get("rich")
	b, _ := loaded.Get("rich")
	if b.Len() != a.Len() {
		t.Fatalf("rows = %d, want %d", b.Len(), a.Len())
	}
	if !b.Strict() {
		t.Error("strict flag lost")
	}
	if b.Schema().Doc != "persistence fixture" {
		t.Error("schema doc lost")
	}
	// Rows identical, including tags, sources, meta, and nanosecond times.
	as, bs := scanRows(a), scanRows(b)
	for i := range as {
		if !as[i].Equal(bs[i]) {
			t.Fatalf("row %d differs:\n  %v\n  %v", i, as[i], bs[i])
		}
	}
	// Table tags survive.
	if v, ok := b.TableTags().Get("null_rate"); !ok || v.AsFloat() != 0.125 {
		t.Errorf("table tags = %v", b.TableTags())
	}
	// Indexes were rebuilt and answer queries.
	specs := b.IndexSpecs()
	if len(specs) != 2 {
		t.Fatalf("index specs = %v", specs)
	}
	ids, err := b.LookupEq(IndexTarget{Attr: "name", Indicator: "source"}, value.Str("Nexis"))
	if err != nil || len(ids) != 1 {
		t.Errorf("indicator index after load: %v, %v", ids, err)
	}
	// Keys enforced after load.
	if _, err := b.Insert(as[0]); err == nil {
		t.Error("duplicate key accepted after load")
	}
	// Save(load(x)) is stable.
	var buf2 bytes.Buffer
	if err := loaded.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	var buf3 bytes.Buffer
	if err := cat.Save(&buf3); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != buf3.String() {
		t.Error("save is not a fixpoint of load∘save")
	}
}

// mutateRichCatalog leaves dead slots and copy-on-write replaced runs in
// both tables of buildRichCatalog, so Save must skip tombstones and read
// the runs an Update published rather than the ones it displaced.
func mutateRichCatalog(t *testing.T, cat *Catalog) {
	t.Helper()
	rich, _ := cat.Get("rich")
	gone := relation.Tuple{Cells: []relation.Cell{
		{V: value.Int(3)},
		{V: value.Str("Pear Co"), Tags: tag.NewSet(tag.Tag{Indicator: "source", Value: value.Str("wsj")}),
			Sources: tag.NewSources("wsj")},
		{V: value.Float(1)}, {V: value.Null}, {V: value.Null}, {V: value.Bool(false)},
	}}
	id, err := rich.Insert(gone)
	if err != nil {
		t.Fatal(err)
	}
	if err := rich.Delete(id); err != nil {
		t.Fatal(err)
	}
	id2, _ := rich.LookupKey(value.Int(2))
	upd := relation.Tuple{Cells: []relation.Cell{
		{V: value.Int(2)},
		relation.Cell{V: value.Str("Nut Co"), Tags: tag.NewSet(tag.Tag{Indicator: "source", Value: value.Str("audit")}),
			Sources: tag.NewSources("audit", "estimate")}.WithMetaTag("source", "credibility", value.Str("low")),
		{V: value.Float(7.25)}, {V: value.Null}, {V: value.Duration(time.Second)}, {V: value.Null},
	}}
	if err := rich.Update(id2, upd); err != nil {
		t.Fatal(err)
	}
	plain, _ := cat.Get("plain")
	for _, id := range []RowID{1, 3} {
		if err := plain.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := plain.Update(4, relation.NewTuple(value.Int(40))); err != nil {
		t.Fatal(err)
	}
}

// TestLoadKeepsRowIDs: every row loads under the ID it was saved with —
// WAL records after a checkpoint address rows by ID — dead slots stay
// dead, new rows continue the saved numbering, and the loaded catalog
// saves byte for byte the same.
func TestLoadKeepsRowIDs(t *testing.T) {
	cat := buildRichCatalog(t)
	mutateRichCatalog(t, cat)
	var buf bytes.Buffer
	if err := cat.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.String()
	loaded, err := LoadCatalog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range cat.Names() {
		a, _ := cat.Get(name)
		b, _ := loaded.Get(name)
		if a.slots() != b.slots() {
			t.Fatalf("%s: %d slots loaded, want %d", name, b.slots(), a.slots())
		}
		for id := RowID(0); int(id) < a.slots(); id++ {
			want, wantLive := a.Get(id)
			got, gotLive := b.Get(id)
			if gotLive != wantLive || (wantLive && !got.Equal(want)) {
				t.Errorf("%s row %d: loaded %v (live %v), want %v (live %v)", name, id, got, gotLive, want, wantLive)
			}
		}
	}
	var again bytes.Buffer
	if err := loaded.Save(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != saved {
		t.Fatal("re-saving the loaded catalog changed its bytes")
	}
	// A dead slot list that does not fit the slot count is refused.
	bad := strings.Replace(saved, `"slots": 5`, `"slots": 9`, 1)
	if _, err := LoadCatalog(strings.NewReader(bad)); err == nil {
		t.Error("inconsistent slot count should fail to load")
	}
}

// TestSaveGolden pins Save's exact bytes for a catalog with deletes,
// copy-on-write updated runs, nulls, tags, polygen sources and meta tags.
// Each table with deletes records its slot count and dead slots; the rows
// themselves are byte for byte what the row-materialising Save wrote
// before the column views replaced it. Any change to how Save reads a
// table must keep it.
func TestSaveGolden(t *testing.T) {
	cat := buildRichCatalog(t)
	mutateRichCatalog(t, cat)
	var buf bytes.Buffer
	if err := cat.Save(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "save.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("Save output drifted from testdata/save.golden.json:\n%s", buf.String())
	}
}

// TestSaveDigestMultiSegment pins Save's bytes, by SHA-256, for a table
// spanning two segments with deletes and copy-on-write updates in both —
// too large to keep as a readable golden file.
func TestSaveDigestMultiSegment(t *testing.T) {
	cat := NewCatalog()
	sc := schema.MustNew("many", []schema.Attr{
		{Name: "id", Kind: value.KindInt, Required: true},
		{Name: "name", Kind: value.KindString,
			Indicators: []tag.Indicator{{Name: "source", Kind: value.KindString}}},
		{Name: "qty", Kind: value.KindInt,
			Indicators: []tag.Indicator{{Name: "creation_time", Kind: value.KindTime}}},
	}, "id")
	tbl, err := cat.Create(sc, false)
	if err != nil {
		t.Fatal(err)
	}
	when := time.Date(1991, 1, 1, 0, 0, 0, 0, time.UTC)
	row := func(i int, tweak int64) relation.Tuple {
		name := relation.Cell{V: value.Str(fmt.Sprintf("n%d", i%17+int(tweak)*100))}
		if i%3 == 0 {
			name.Tags = tag.NewSet(tag.Tag{Indicator: "source", Value: value.Str([]string{"a", "b"}[i%2])})
		}
		if i%7 == 0 {
			name.Sources = tag.NewSources("feed", fmt.Sprintf("s%d", i%4))
		}
		if i%11 == 0 && !name.Tags.IsEmpty() {
			name = name.WithMetaTag("source", "credibility", value.Str("high"))
		}
		qty := relation.Cell{V: value.Int(int64(i)*3 + tweak),
			Tags: tag.NewSet(tag.Tag{Indicator: "creation_time", Value: value.Time(when.Add(time.Duration(i) * time.Hour))})}
		if i%5 == 0 {
			qty.V = value.Null
		}
		return relation.Tuple{Cells: []relation.Cell{{V: value.Int(int64(i))}, name, qty}}
	}
	const n = SegmentSize + 50
	for i := 0; i < n; i++ {
		if _, err := tbl.Insert(row(i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 13 {
		if err := tbl.Delete(RowID(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range []int{1, 2000, SegmentSize + 1, n - 1} {
		if err := tbl.Update(RowID(i), row(i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if tbl.Segments() != 2 {
		t.Fatalf("Segments = %d, want 2", tbl.Segments())
	}
	var buf bytes.Buffer
	if err := cat.Save(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	const want = "c40b0e3159c74daae46a9a10a59f3a1e33cd9506a0a6192570cb629a7480d387"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("Save digest = %s, want %s (%d bytes)", got, want, buf.Len())
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := LoadCatalog(strings.NewReader(`{`)); err == nil {
		t.Error("bad JSON should fail")
	}
	if _, err := LoadCatalog(strings.NewReader(`{"format":"something-else","tables":[]}`)); err == nil {
		t.Error("unknown format should fail")
	}
	if _, err := LoadCatalog(strings.NewReader(
		`{"format":"repro-dq-catalog/1","tables":[{"name":"t","attrs":[{"name":"x","kind":"blob"}],"rows":[]}]}`)); err == nil {
		t.Error("bad kind should fail")
	}
	if _, err := LoadCatalog(strings.NewReader(
		`{"format":"repro-dq-catalog/1","tables":[{"name":"t","attrs":[{"name":"x","kind":"int"}],"rows":[[{"k":"int","v":"1"},{"k":"int","v":"2"}]]}]}`)); err == nil {
		t.Error("arity mismatch should fail")
	}
}
