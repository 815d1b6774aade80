package storage

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
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
func buildRichCatalog(t testing.TB) *Catalog {
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
func mutateRichCatalog(t testing.TB, cat *Catalog) {
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
	requireSameRows(t, loaded, cat)
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

// requireSameRows fails unless got has want's tables with the same slot
// counts, the same row under every live row ID and the same dead slots,
// and unless every index of got answers as want's does: an equality probe
// for each live row's key and, on a B-tree, the whole ordered range.
func requireSameRows(t testing.TB, got, want *Catalog) {
	t.Helper()
	if g, w := got.Names(), want.Names(); !slices.Equal(g, w) {
		t.Fatalf("tables %q, want %q", g, w)
	}
	for _, name := range want.Names() {
		a, _ := want.Get(name)
		b, _ := got.Get(name)
		if a.slots() != b.slots() {
			t.Fatalf("%s: %d slots loaded, want %d", name, b.slots(), a.slots())
		}
		for id := RowID(0); int(id) < a.slots(); id++ {
			wantRow, wantLive := a.Get(id)
			gotRow, gotLive := b.Get(id)
			if gotLive != wantLive || (wantLive && !gotRow.Equal(wantRow)) {
				t.Fatalf("%s row %d: loaded %v (live %v), want %v (live %v)", name, id, gotRow, gotLive, wantRow, wantLive)
			}
		}
		if g, w := b.IndexSpecs(), a.IndexSpecs(); !slices.Equal(g, w) {
			t.Fatalf("%s: indexes %v, want %v", name, g, w)
		}
		for _, ix := range a.IndexSpecs() {
			col := a.Schema().ColIndex(ix.Target.Attr)
			probe := func(lookup func(*Table) ([]RowID, error), what string) {
				w, werr := lookup(a)
				g, gerr := lookup(b)
				if (werr == nil) != (gerr == nil) || !slices.Equal(g, w) {
					t.Fatalf("%s index %v %s: loaded %v (%v), want %v (%v)", name, ix.Target, what, g, gerr, w, werr)
				}
			}
			a.Scan(func(_ RowID, tup relation.Tuple) bool {
				key, ok := tup.Cells[col].V, true
				if ix.Target.Indicator != "" {
					key, ok = tup.Cells[col].Tags.Get(ix.Target.Indicator)
				}
				if ok {
					probe(func(tbl *Table) ([]RowID, error) { return tbl.LookupEq(ix.Target, key) }, "= "+key.String())
				}
				return true
			})
			if ix.Kind == IndexBTree {
				all := Bound{Unbounded: true}
				probe(func(tbl *Table) ([]RowID, error) { return tbl.LookupRange(ix.Target, all, all) }, "range")
			}
		}
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
	// An index kind other than exactly hash or btree is refused, and so
	// is anything but whitespace after the document.
	var buf bytes.Buffer
	if err := buildRichCatalog(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.String()
	load := func(doc string) error { _, err := LoadCatalog(strings.NewReader(doc)); return err }
	for _, kind := range []string{"hsah", "HASH", "Btree", ""} {
		doc := strings.Replace(saved, `"kind": "hash"`, `"kind": "`+kind+`"`, 1)
		if err := load(doc); err == nil || !strings.Contains(err.Error(), "unknown index kind") {
			t.Errorf("index kind %q: error %v, want unknown index kind", kind, err)
		}
	}
	if err := load(saved + "garbage"); err == nil {
		t.Error("trailing garbage accepted")
	}
	if err := load(saved + saved); err == nil {
		t.Error("a second document accepted")
	}
	if err := load(saved + " \r\n\t"); err != nil {
		t.Errorf("trailing whitespace refused: %v", err)
	}
}

// checkpointBytes writes cat's binary checkpoint.
func checkpointBytes(t testing.TB, cat *Catalog) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := cat.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// saveBytes writes cat's JSON document.
func saveBytes(t testing.TB, cat *Catalog) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := cat.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// requireCheckpointMatches fails unless the catalog LoadCheckpoint reads
// from cat's checkpoint saves, as JSON, byte for byte what cat saves, and
// returns that catalog. The JSON document is the oracle: it shows every
// value with its kind, every tag, source and meta tag, the table tags,
// the indexes and the dead slots.
func requireCheckpointMatches(t testing.TB, cat *Catalog) *Catalog {
	t.Helper()
	loaded, err := LoadCheckpoint(checkpointBytes(t, cat))
	if err != nil {
		t.Fatal(err)
	}
	got, want := saveBytes(t, loaded), saveBytes(t, cat)
	if bytes.Equal(got, want) {
		return loaded
	}
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(i-200, 0)
	t.Fatalf("the checkpoint loads a catalog that saves differently at byte %d (%d vs %d bytes)\nloaded: %q\nsource: %q",
		i, len(got), len(want), got[lo:min(i+80, len(got))], want[lo:min(i+80, len(want))])
	return nil
}

// nastyStrings exercise every branch of JSON string escaping: HTML
// characters, quotes and backslashes, short and \u00XX control escapes,
// DEL, invalid and truncated UTF-8, the U+2028/U+2029 separators and
// ordinary multi-byte text.
var nastyStrings = []string{
	"", "plain", "Fruit Co", `<a href="x">&amp;</a>`, `back\slash "quoted"`,
	"ctl\x00\x01\x07\x1f\x7f", "\b\f\n\r\t", "bad\xffutf8\xfe", "trunc\xe2\x80",
	"sep\xe2\x80\xa8and\xe2\x80\xa9", "\xe2\x80\xa7\xe2\x80\xaa", "caf\xc3\xa9 \xc2\xb5s \xe6\x97\xa5\xe6\x9c\xac",
	"\xef\xbf\xbd", "\xf0\x9f\x98\x80", "\xed\xa0\x80", "'single'", "a&b<c>d",
}

// catGen draws random catalogs for the differential tests.
type catGen struct{ r *rand.Rand }

func (g catGen) str() string {
	if g.r.Intn(4) == 0 {
		b := make([]byte, g.r.Intn(12))
		g.r.Read(b)
		return string(b)
	}
	return nastyStrings[g.r.Intn(len(nastyStrings))]
}

func (g catGen) float() float64 {
	edges := []float64{0, math.Copysign(0, -1), 1, -1.5, 0.1, 1e20, 1e21, 1e-7, 123456789.125,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
	if g.r.Intn(2) == 0 {
		return edges[g.r.Intn(len(edges))]
	}
	return math.Float64frombits(g.r.Uint64())
}

// value draws a value storable in a column of kind k: null unless
// nonNull, always null in a null-kinded column.
func (g catGen) value(k value.Kind, nonNull bool) value.Value {
	if k == value.KindNull || (!nonNull && g.r.Intn(6) == 0) {
		return value.Null
	}
	switch k {
	case value.KindBool:
		return value.Bool(g.r.Intn(2) == 0)
	case value.KindInt:
		return value.Int([]int64{0, -1, math.MaxInt64, math.MinInt64, g.r.Int63(), -g.r.Int63n(1000)}[g.r.Intn(6)])
	case value.KindFloat:
		if g.r.Intn(4) == 0 {
			return value.Int(g.r.Int63n(100)) // ints widen into float columns
		}
		return value.Float(g.float())
	case value.KindString:
		return value.Str(g.str())
	case value.KindTime:
		switch g.r.Intn(4) {
		case 0:
			return value.Time(time.Time{})
		case 1:
			return value.Time(time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC))
		case 2:
			return value.Time(time.Unix(g.r.Int63n(4e9), 0))
		}
		return value.Time(time.Unix(g.r.Int63n(4e9)-2e9, g.r.Int63n(1e9)).In(time.FixedZone("x", 3600)))
	default:
		return value.Duration(time.Duration([]int64{0, 1, -1500, math.MinInt64, math.MaxInt64, g.r.Int63()}[g.r.Intn(6)]))
	}
}

// anyValue draws a tag value: any kind, null included.
func (g catGen) anyValue() value.Value { return g.value(value.Kind(g.r.Intn(7)), false) }

func (g catGen) tags(declared []tag.Indicator) tag.Set {
	var ts []tag.Tag
	for _, ind := range declared {
		ts = append(ts, tag.Tag{Indicator: ind.Name, Value: g.value(ind.Kind, false)})
	}
	for n := g.r.Intn(3); n > 0; n-- {
		ts = append(ts, tag.Tag{Indicator: g.str(), Value: g.anyValue()})
	}
	return tag.NewSet(ts...)
}

func (g catGen) cell(a schema.Attr, nonNull bool) relation.Cell {
	c := relation.Cell{V: g.value(a.Kind, nonNull)}
	if len(a.Indicators) > 0 || g.r.Intn(2) == 0 {
		c.Tags = g.tags(a.Indicators)
	}
	if g.r.Intn(3) == 0 {
		var names []string
		for n := 1 + g.r.Intn(3); n > 0; n-- {
			names = append(names, g.str())
		}
		c.Sources = tag.NewSources(names...)
	}
	switch g.r.Intn(6) {
	case 0:
		c = c.WithMetaTag(g.str(), g.str(), g.anyValue())
		c = c.WithMetaTag(g.str(), g.str(), g.anyValue())
	case 1:
		c.Meta = map[string]tag.Set{g.str(): tag.EmptySet} // encodes as null
	}
	return c
}

var attrNames = []string{"id", "name", "<b>&amp;</b>", "caf\xc3\xa9", "x\x01y", "bad\xff", "sep\xe2\x80\xa8"}

// table adds one random table: random kinds, indicators, docs, keys,
// strictness, table tags and indexes, then rows spanning up to three
// segments with updates, scattered deletes, a trailing run of deletes
// and, sometimes, a fully dead segment.
func (g catGen) table(t testing.TB, cat *Catalog, name string, maxRows int) {
	t.Helper()
	keyed := g.r.Intn(2) == 0
	var attrs []schema.Attr
	if keyed {
		attrs = append(attrs, schema.Attr{Name: "id", Kind: value.KindInt, Required: true})
	}
	for i, n := 0, 1+g.r.Intn(3); i < n; i++ {
		a := schema.Attr{Name: fmt.Sprintf("c%d%s", i, attrNames[g.r.Intn(len(attrNames))]),
			Kind: value.Kind(g.r.Intn(7))}
		a.Required = a.Kind != value.KindNull && g.r.Intn(4) == 0 // a null column holds only nulls
		if g.r.Intn(2) == 0 {
			a.Doc = g.str()
		}
		for j, m := 0, g.r.Intn(3); j < m; j++ {
			a.Indicators = append(a.Indicators, tag.Indicator{Name: fmt.Sprintf("ind%d", j),
				Kind: value.Kind(1 + g.r.Intn(6)), Doc: []string{"", g.str()}[g.r.Intn(2)]})
		}
		attrs = append(attrs, a)
	}
	var key []string
	if keyed {
		key = []string{"id"}
	}
	sc, err := schema.New(name, attrs, key...)
	if err != nil {
		t.Fatal(err)
	}
	if g.r.Intn(2) == 0 {
		sc.Doc = g.str()
	}
	tbl, err := cat.Create(sc, g.r.Intn(2) == 0)
	if err != nil {
		t.Fatal(err)
	}
	for n := g.r.Intn(3); n > 0; n-- {
		tbl.SetTableTag(g.str(), g.anyValue())
	}
	for _, a := range attrs {
		if g.r.Intn(3) == 0 {
			target := IndexTarget{Attr: a.Name}
			if len(a.Indicators) > 0 && g.r.Intn(2) == 0 {
				target.Indicator = a.Indicators[0].Name
			}
			if err := tbl.CreateIndex(target, []IndexKind{IndexBTree, IndexHash}[g.r.Intn(2)]); err != nil {
				t.Fatal(err)
			}
		}
	}
	row := func(i int) relation.Tuple {
		cells := make([]relation.Cell, len(attrs))
		for j, a := range attrs {
			cells[j] = g.cell(a, a.Required)
		}
		if keyed {
			cells[0].V = value.Int(int64(i))
		}
		return relation.Tuple{Cells: cells}
	}
	n := []int{0, 1, g.r.Intn(50), SegmentSize + g.r.Intn(100), 2*SegmentSize + g.r.Intn(100)}[g.r.Intn(5)]
	n = min(n, maxRows)
	for i := 0; i < n; i++ {
		if _, err := tbl.Insert(row(i)); err != nil {
			t.Fatal(err)
		}
	}
	if n == 0 {
		return
	}
	for k := g.r.Intn(20); k > 0; k-- {
		id := RowID(g.r.Intn(n))
		if _, live := tbl.Get(id); live {
			if err := tbl.Update(id, row(int(id))); err != nil {
				t.Fatal(err)
			}
		}
	}
	del := func(id RowID) {
		if _, live := tbl.Get(id); live {
			if err := tbl.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	for k := g.r.Intn(n/10 + 2); k > 0; k-- {
		del(RowID(g.r.Intn(n)))
	}
	if g.r.Intn(2) == 0 { // a trailing run of dead slots
		for id := n - 1 - g.r.Intn(min(n, 70)); id < n; id++ {
			del(RowID(id))
		}
	}
	if n > SegmentSize && g.r.Intn(2) == 0 { // a fully dead segment
		for id := 0; id < SegmentSize; id++ {
			del(RowID(id))
		}
	}
}

// randomCatalog draws the seed's catalog for the differential tests: up
// to three random tables.
func randomCatalog(t testing.TB, seed int64) *Catalog {
	g := catGen{rand.New(rand.NewSource(seed))}
	cat := NewCatalog()
	for i, n := 0, g.r.Intn(4); i < n; i++ {
		g.table(t, cat, fmt.Sprintf("t%d%s", i, g.str()), 3*SegmentSize)
	}
	return cat
}

// TestSaveMatchesJSON holds the binary checkpoint to the JSON oracle over
// random catalogs: the catalog LoadCheckpoint reads back saves byte for
// byte what the source catalog saves. The catalogs hold every value kind,
// nulls and float edges, strings of every kind of bytes, tags, sources,
// meta tags (one an empty set), table tags, keys, both index kinds, and
// dead slots mid-segment, trailing and filling a whole segment.
func TestSaveMatchesJSON(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		requireCheckpointMatches(t, randomCatalog(t, seed))
	}
}

// edgeCatalogs calls visit with the shapes the random catalogs may miss:
// no tables at all ("tables": null), a table without rows ("rows": []),
// tables whose only segment, or every segment, is dead, and the mutated
// rich catalog.
func edgeCatalogs(t *testing.T, visit func(*Catalog)) {
	t.Helper()
	cat := NewCatalog()
	visit(cat)

	sc := schema.MustNew("empty<&>", []schema.Attr{{Name: "x", Kind: value.KindString}})
	if _, err := cat.Create(sc, false); err != nil {
		t.Fatal(err)
	}
	visit(cat)

	dead, err := cat.Create(schema.MustNew("dead", []schema.Attr{{Name: "x", Kind: value.KindInt}}), false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < SegmentSize+3; i++ {
		if _, err := dead.Insert(relation.NewTuple(value.Int(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < SegmentSize+3; i++ {
		if err := dead.Delete(RowID(i)); err != nil {
			t.Fatal(err)
		}
		if i == 2 || i == SegmentSize-1 {
			visit(cat)
		}
	}
	visit(cat)

	rich := buildRichCatalog(t)
	mutateRichCatalog(t, rich)
	visit(rich)
}

// TestSaveMatchesJSONEdges holds the checkpoint to the JSON oracle on
// edgeCatalogs.
func TestSaveMatchesJSONEdges(t *testing.T) {
	edgeCatalogs(t, func(cat *Catalog) { requireCheckpointMatches(t, cat) })
}

// TestLoadMatchesJSON: a catalog loaded from a checkpoint keeps every row
// under its ID, and its indexes of both kinds answer every probe as the
// source catalog's do, over the catalogs of TestSaveMatchesJSON and
// TestSaveMatchesJSONEdges.
func TestLoadMatchesJSON(t *testing.T) {
	check := func(cat *Catalog) {
		loaded, err := LoadCheckpoint(checkpointBytes(t, cat))
		if err != nil {
			t.Fatal(err)
		}
		requireSameRows(t, loaded, cat)
	}
	for seed := int64(1); seed <= 40; seed++ {
		check(randomCatalog(t, seed))
	}
	edgeCatalogs(t, check)
}

// TestLoadMatchesJSONHandEdited loads documents Save does not write, each
// a hand edit of the golden file or a small document of its own: those
// LoadCatalog refuses are the listed ones, and every catalog it accepts
// survives a checkpoint round trip unchanged.
func TestLoadMatchesJSONHandEdited(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "save.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	g := string(golden)
	edit := func(old, new string) string {
		t.Helper()
		if !strings.Contains(g, old) {
			t.Fatalf("golden file has no %q", old)
		}
		return strings.Replace(g, old, new, 1)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, golden); err != nil {
		t.Fatal(err)
	}
	const tiny = `{"format": "repro-dq-catalog/1", "tables": [{"name": "t", "attrs": [{"name": "x", "kind": "int"}], "rows": [[{"v": {"k": "int", "v": "1"}}]]}]}`
	cases := map[string]string{
		"golden":              g,
		"reordered value":     edit(`"k": "int",`+"\n"+`       "v": "0"`, `"v": "0", "k": "int"`),
		"reordered document":  `{"tables": null, "format": "repro-dq-catalog/1"}`,
		"reordered table":     edit(`"name": "plain",`+"\n"+`   "attrs": [`+"\n"+`    {`+"\n"+`     "name": "x",`+"\n"+`     "kind": "int"`+"\n"+`    }`+"\n"+`   ],`, `"attrs": [{"name": "x", "kind": "int"}], "name": "plain",`),
		"CRLF":                strings.ReplaceAll(g, "\n", "\r\n"),
		"tabs":                regexp.MustCompile(`(?m)^ +`).ReplaceAllStringFunc(g, func(s string) string { return strings.Repeat("\t", len(s)) }),
		"no indentation":      compact.String(),
		"no trailing newline": strings.TrimSuffix(g, "\n"),
		"trailing whitespace": g + " \t\r\n\n",
		"trailing garbage":    g + "garbage",
		"second document":     g + g,
		"unknown key":         edit(`"name": "plain",`, `"name": "plain", "extra": [1, {"a": null}],`),
		"unknown cell key":    edit(`"v": "Fruit Co"`+"\n"+`      },`, `"v": "Fruit Co"}, "x": true,`),
		"upper-case key":      edit(`"name": "plain"`, `"Name": "plain"`),
		"upper-case kind key": edit(`"k": "int",`+"\n"+`       "v": "0"`, `"K": "int", "v": "0"`),
		"escaped key":         edit(`"name": "plain"`, `"n\u0061me": "plain"`),
		"duplicate key":       edit(`"name": "plain",`, `"name": "plain", "name": "plane",`),
		"duplicate tag":       edit(`"null_rate": {`, `"population_method": {"k": "int", "v": "1"}, "null_rate": {`),
		"duplicate source":    edit(`"nexis",`, `"wsj", "nexis",`),
		"null t s m":          edit(`"v": "0"`+"\n"+`      }`, `"v": "0"}, "t": null, "s": null, "m": null`),
		"empty t s m":         edit(`"v": "0"`+"\n"+`      }`, `"v": "0"}, "t": {}, "s": [], "m": {}`),
		"null meta set":       edit(`"credibility": {`+"\n"+`         "k": "string",`+"\n"+`         "v": "high"`+"\n"+`        }`, `"credibility": null`),
		"null rows":           strings.Replace(tiny, `[[{"v": {"k": "int", "v": "1"}}]]`, `null`, 1),
		"null value":          strings.Replace(tiny, `"v": "1"`, `"v": null`, 1),
		"surrogate pair":      edit(`"Fruit Co"`, `"Fruit \ud83d\ude00 Co"`),
		"lone surrogate":      edit(`"Fruit Co"`, `"Fruit \ud800 Co"`),
		"escaped slash":       edit(`"Fruit Co"`, `"Fruit\/Co \u00e9\u2028\t"`),
		"raw invalid UTF-8":   edit(`"Fruit Co"`, "\"Fruit \xff Co\""),
		"raw control byte":    edit(`"Fruit Co"`, "\"Fruit \x01 Co\""),
		"unsorted cell tags":  strings.Replace(tiny, `"v": "1"}`, `"v": "1"}, "t": {"b": {"k": "int", "v": "2"}, "a": {"k": "null"}}`, 1),
		"unsorted table tags": edit(`"null_rate": {`+"\n"+`     "k": "float",`+"\n"+`     "v": "0.125"`+"\n"+`    },`+"\n"+`    "population_method": {`+"\n"+`     "k": "string",`+"\n"+`     "v": "fixture"`+"\n"+`    }`, `"population_method": {"k": "string", "v": "fixture"}, "null_rate": {"k": "float", "v": "0.125"}`),
		"unsorted sources":    edit(`"nexis",`+"\n"+`       "wsj"`, `"wsj", "nexis"`),
		"unsorted meta":       edit(`"source": {`+"\n"+`        "credibility"`, `"z": {"a": {"k": "int", "v": "1"}}, "source": {`+"\n"+`        "credibility"`),
		"kind alias":          edit(`"kind": "int",`, `"kind": "integer",`),
		"value kind alias":    edit(`"k": "int",`+"\n"+`       "v": "0"`, `"k": "INT", "v": "0"`),
		"time layout":         edit(`"1991-10-03T12:34:56.789Z"`, `"1991-10-03 12:34:56"`),
		"int text":            edit(`"v": "40"`, `"v": "+40"`),
		"bad int":             edit(`"v": "40"`, `"v": "forty"`),
		"strict false":        edit(`"strict": true`, `"strict": false`),
		"slots leading zero":  edit(`"slots": 5`, `"slots": 05`),
		"slots float":         edit(`"slots": 5`, `"slots": 5.0`),
		"bad slot count":      edit(`"slots": 5`, `"slots": 6`),
		"index kind typo":     edit(`"kind": "hash"`, `"kind": "hsah"`),
		"index kind case":     edit(`"kind": "btree"`, `"kind": "BTree"`),
		"arity":               strings.Replace(tiny, `[{"v": {"k": "int", "v": "1"}}]`, `[{"v": {"k": "int", "v": "1"}}, {"v": {"k": "int", "v": "2"}}]`, 1),
		"truncated":           g[:len(g)/2],
		"truncated end":       g[:len(g)-3],
		"empty":               "",
	}
	refused := map[string]bool{
		"trailing garbage": true, "second document": true, "bad int": true, "bad slot count": true,
		"index kind typo": true, "index kind case": true, "arity": true, "truncated": true,
		"truncated end": true, "empty": true, "raw control byte": true, "slots leading zero": true,
		"slots float": true, "null meta set": true, "null value": true,
	}
	for name, doc := range cases {
		t.Run(name, func(t *testing.T) {
			cat, err := LoadCatalog(strings.NewReader(doc))
			if (err != nil) != refused[name] {
				t.Fatalf("LoadCatalog error %v, want refused %v", err, refused[name])
			}
			if err == nil {
				requireCheckpointMatches(t, cat)
			}
		})
	}
}

// failAfter is a writer that fails once more than n bytes were written.
type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n -= len(p); f.n < 0 {
		return 0, fmt.Errorf("disk full")
	}
	return len(p), nil
}

// TestSaveReportsWriteError: a failing destination fails Save and
// WriteCheckpoint, whether the failure hits the first write, one in the
// middle or the last.
func TestSaveReportsWriteError(t *testing.T) {
	cat := NewCatalog()
	tbl, err := cat.Create(schema.MustNew("t", []schema.Attr{{Name: "x", Kind: value.KindInt}}), false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*SegmentSize; i++ {
		if _, err := tbl.Insert(relation.NewTuple(value.Int(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	for name, write := range map[string]func(io.Writer) error{"Save": cat.Save, "WriteCheckpoint": cat.WriteCheckpoint} {
		var full bytes.Buffer
		if err := write(&full); err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, full.Len() / 2, full.Len() - 1} {
			if err := write(&failAfter{n: n}); err == nil {
				t.Errorf("%s into a writer failing after %d of %d bytes reported no error", name, n, full.Len())
			}
		}
	}
}

// fuzzBytes hands out a fuzz input piece by piece, then zeros once it is
// used up.
type fuzzBytes []byte

func (f *fuzzBytes) byte() byte {
	if len(*f) == 0 {
		return 0
	}
	b := (*f)[0]
	*f = (*f)[1:]
	return b
}

func (f *fuzzBytes) str() string {
	n := min(int(f.byte()%24), len(*f))
	s := string((*f)[:n])
	*f = (*f)[n:]
	return s
}

func (f *fuzzBytes) u64() uint64 {
	var u uint64
	for i := 0; i < 8; i++ {
		u = u<<8 | uint64(f.byte())
	}
	return u
}

// value reads a value of kind k, or null; KindNull reads any kind.
func (f *fuzzBytes) value(k value.Kind) value.Value {
	b := f.byte()
	if k == value.KindNull {
		k = value.Kind(b % 7)
	} else if b%5 == 0 {
		k = value.KindNull
	}
	switch k {
	case value.KindBool:
		return value.Bool(f.byte()%2 == 0)
	case value.KindInt:
		return value.Int(int64(f.u64()))
	case value.KindFloat:
		return value.Float(math.Float64frombits(f.u64()))
	case value.KindString:
		return value.Str(f.str())
	case value.KindTime:
		return value.Time(time.Unix(int64(f.u64()%(1<<38))-(1<<37), int64(f.u64()%1e9)))
	case value.KindDuration:
		return value.Duration(time.Duration(f.u64()))
	}
	return value.Null
}

func (f *fuzzBytes) tags() tag.Set {
	var ts []tag.Tag
	for n := f.byte() % 3; n > 0; n-- {
		ts = append(ts, tag.Tag{Indicator: f.str(), Value: f.value(value.KindNull)})
	}
	return tag.NewSet(ts...)
}

// FuzzSaveMatchesJSON lets the fuzzer choose the strings and values of a
// catalog — cell values of every kind, tag names and values, sources, meta
// tags, table tags, the table's name and doc — and which rows die, and
// holds the checkpoint to the JSON oracle byte for byte.
func FuzzSaveMatchesJSON(f *testing.F) {
	f.Add([]byte("\x04\x03<&>\x02\x01\x05hello"))
	f.Add([]byte("\x03\x02\xe2\x80\xa8\x04\x04\xff\xfe\x00\x01\x07\x05\x06\x07\x08"))
	f.Add([]byte("\x01\x01\x03\x7f\xf0\x00\x00\x00\x00\x00\x00\x05\x02\x02\x04\x03a\"b\x06\x80"))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		cat := NewCatalog()
		attrs := make([]schema.Attr, 6)
		for i := range attrs {
			attrs[i] = schema.Attr{Name: fmt.Sprintf("c%d", i), Kind: value.Kind(1 + i)}
		}
		sc, err := schema.New("f"+in.str(), attrs)
		if err != nil {
			t.Skip()
		}
		sc.Doc = in.str()
		tbl, err := cat.Create(sc, false)
		if err != nil {
			t.Skip()
		}
		for _, tg := range in.tags().Tags() {
			tbl.SetTableTag(tg.Indicator, tg.Value)
		}
		for rows := int(in.byte() % 8); rows > 0; rows-- {
			cells := make([]relation.Cell, len(attrs))
			for i, a := range attrs {
				c := relation.Cell{V: in.value(a.Kind), Tags: in.tags()}
				if n := in.byte() % 3; n > 0 {
					names := make([]string, n)
					for j := range names {
						names[j] = in.str()
					}
					c.Sources = tag.NewSources(names...)
				}
				if in.byte()%2 == 1 {
					c = c.WithMetaTag(in.str(), in.str(), in.value(value.KindNull))
				}
				cells[i] = c
			}
			id, err := tbl.Insert(relation.Tuple{Cells: cells})
			if err != nil {
				t.Fatal(err)
			}
			if in.byte()%4 == 0 {
				if err := tbl.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
		}
		requireCheckpointMatches(t, cat)
	})
}

// FuzzLoadMatchesJSON mutates Save-written catalogs: every catalog
// LoadCatalog accepts survives a checkpoint round trip unchanged.
func FuzzLoadMatchesJSON(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "save.golden.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte(`{"format": "repro-dq-catalog/1", "tables": null}`))
	for seed := []byte("\x04\x03<&>\x02\x01\x05hello"); len(seed) > 0; seed = seed[1:] {
		in := fuzzBytes(seed)
		cat := NewCatalog()
		tbl, err := cat.Create(schema.MustNew("f", []schema.Attr{
			{Name: "s", Kind: value.KindString}, {Name: "t", Kind: value.KindTime}}), false)
		if err != nil {
			f.Fatal(err)
		}
		for _, tg := range in.tags().Tags() {
			tbl.SetTableTag(tg.Indicator, tg.Value)
		}
		c := relation.Cell{V: in.value(value.KindString), Tags: in.tags(), Sources: tag.NewSources(in.str(), in.str())}
		if _, err := tbl.Insert(relation.Tuple{Cells: []relation.Cell{c, {V: in.value(value.KindTime)}}}); err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := cat.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if cat, err := LoadCatalog(bytes.NewReader(data)); err == nil {
			requireCheckpointMatches(t, cat)
		}
	})
}

// smallMultiSegment builds a catalog of two tables, one spanning two
// segments with deletes, tags, sources and meta tags, small enough to
// damage at every byte.
func smallMultiSegment(t testing.TB) *Catalog {
	t.Helper()
	cat := buildRichCatalog(t)
	mutateRichCatalog(t, cat)
	sc := schema.MustNew("wide", []schema.Attr{
		{Name: "b", Kind: value.KindBool,
			Indicators: []tag.Indicator{{Name: "source", Kind: value.KindString}}},
	})
	tbl, err := cat.Create(sc, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < SegmentSize+20; i++ {
		c := relation.Cell{V: value.Bool(i%2 == 0)}
		if i%3 == 0 {
			c.Tags = tag.NewSet(tag.Tag{Indicator: "source", Value: value.Str([]string{"a", "b"}[i%2])})
			c.Sources = tag.NewSources("feed")
		}
		if i%500 == 0 {
			c = c.WithMetaTag("source", "credibility", value.Str("high"))
		}
		if _, err := tbl.Insert(relation.Tuple{Cells: []relation.Cell{c}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []RowID{7, SegmentSize - 1, SegmentSize + 3} {
		if err := tbl.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// TestCheckpointRefusesDamage: a multi-segment checkpoint with any one
// byte flipped, or cut at any length, fails to load.
func TestCheckpointRefusesDamage(t *testing.T) {
	cat := smallMultiSegment(t)
	data := checkpointBytes(t, cat)
	requireSameRows(t, requireCheckpointMatches(t, cat), cat)
	damaged := make([]byte, len(data))
	for i := range data {
		copy(damaged, data)
		damaged[i] ^= 0xff
		if _, err := LoadCheckpoint(damaged); err == nil {
			t.Fatalf("byte %d of %d flipped: loaded", i, len(data))
		}
	}
	for n := 0; n < len(data); n++ {
		if _, err := LoadCheckpoint(data[:n]); err == nil {
			t.Fatalf("cut at %d of %d bytes: loaded", n, len(data))
		}
	}
	if _, err := LoadCheckpoint(append(slices.Clip(data), 0)); err == nil {
		t.Fatal("a trailing byte: loaded")
	}
	if _, err := LoadCheckpoint(saveBytes(t, cat)); err == nil {
		t.Fatal("a JSON document loaded as a binary checkpoint")
	}
}

// withChecksums returns data with every section's checksum recomputed
// where its length fits, so damage inside a section body reaches the
// decoder rather than stopping at the checksum.
func withChecksums(data []byte) []byte {
	out := slices.Clone(data)
	i := len(checkpointMagic) + 1
	for i+sectionHeader <= len(out) {
		n := int(binary.LittleEndian.Uint32(out[i:]))
		if n > len(out)-i-sectionHeader {
			break
		}
		body := out[i+sectionHeader : i+sectionHeader+n]
		binary.LittleEndian.PutUint32(out[i+4:], crc32.Checksum(body, castagnoli))
		i += sectionHeader + n
	}
	return out
}

// FuzzCheckpoint feeds LoadCheckpoint arbitrary bytes, as they are and
// with their section checksums made good: it must never panic, and every
// catalog it accepts must survive a second checkpoint round trip
// unchanged.
func FuzzCheckpoint(f *testing.F) {
	mutated := buildRichCatalog(f)
	mutateRichCatalog(f, mutated)
	for _, cat := range []*Catalog{NewCatalog(), buildRichCatalog(f), mutated} {
		f.Add(checkpointBytes(f, cat))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, withChecksums(data)} {
			if cat, err := LoadCheckpoint(in); err == nil {
				requireCheckpointMatches(t, cat)
			}
		}
	})
}

// TestTableDefReadsJSON: UnmarshalTableDef reads the binary definition
// MarshalTableDef writes, and the JSON definition logs written before it
// hold.
func TestTableDefReadsJSON(t *testing.T) {
	old := `{"name":"customer","doc":"d","attrs":[{"name":"id","kind":"int","required":true},` +
		`{"name":"name","kind":"string","indicators":[{"name":"source","kind":"string"}]}],"key":["id"],"strict":true}`
	want, err := schema.New("customer", []schema.Attr{
		{Name: "id", Kind: value.KindInt, Required: true},
		{Name: "name", Kind: value.KindString, Indicators: []tag.Indicator{{Name: "source", Kind: value.KindString}}},
	}, "id")
	if err != nil {
		t.Fatal(err)
	}
	want.Doc = "d"
	bin, err := MarshalTableDef(want, true)
	if err != nil {
		t.Fatal(err)
	}
	if bin[0] == '{' {
		t.Fatalf("binary definition opens with %q", bin[0])
	}
	for _, data := range [][]byte{[]byte(old), bin} {
		sc, strict, err := UnmarshalTableDef(data)
		if err != nil {
			t.Fatalf("%q: %v", data, err)
		}
		if !strict || !reflect.DeepEqual(sc, want) {
			t.Errorf("%q: got %+v (strict %v), want %+v", data, sc, strict, want)
		}
	}
	for n := 1; n < len(bin); n++ {
		if _, _, err := UnmarshalTableDef(bin[:n]); err == nil {
			t.Errorf("definition cut at %d of %d bytes: read", n, len(bin))
		}
	}
	if _, _, err := UnmarshalTableDef(append(slices.Clip(bin), 0)); err == nil {
		t.Error("definition with a trailing byte: read")
	}
}
