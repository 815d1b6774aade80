package storage

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
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

// saveJSONOracle is the encoding/json implementation of Save that the
// streaming writer replaced: it builds the whole jsonCatalog document,
// cell by cell, and encodes it with an indenting json.Encoder. It is the
// reference Save's bytes are held to.
func saveJSONOracle(c *Catalog, w io.Writer) error {
	doc := jsonCatalog{Format: formatName}
	for _, name := range c.Names() {
		tbl, _ := c.Get(name)
		jt := jsonTable{Name: name, Strict: tbl.Strict()}
		sc := tbl.Schema()
		jt.Doc = sc.Doc
		jt.Key = sc.Key
		jt.Attrs = encodeAttrs(sc)
		jt.TableTags = oracleTagSet(tbl.TableTags())
		for _, ix := range tbl.IndexSpecs() {
			kind := "btree"
			if ix.Kind == IndexHash {
				kind = "hash"
			}
			jt.Indexes = append(jt.Indexes, jsonIndex{
				Attr: ix.Target.Attr, Indicator: ix.Target.Indicator, Kind: kind})
		}
		jt.Rows = [][]jsonCell{}
		views := tbl.SnapshotCols(sc.ColIndexes())
		cells := make([]relation.Cell, len(sc.Attrs))
		for v := range views {
			next := views[v].Base
			for k := 0; k < views[v].Live(); k++ {
				id := views[v].RowInto(k, cells)
				for ; next < id; next++ {
					jt.Dead = append(jt.Dead, next)
				}
				next++
				row := make([]jsonCell, len(cells))
				for i, cell := range cells {
					row[i] = oracleCell(cell)
				}
				jt.Rows = append(jt.Rows, row)
			}
			for end := views[v].Base + RowID(views[v].N); next < end; next++ {
				jt.Dead = append(jt.Dead, next)
			}
		}
		if len(jt.Dead) > 0 {
			jt.Slots = len(jt.Rows) + len(jt.Dead)
		}
		doc.Tables = append(doc.Tables, jt)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

func oracleValue(v value.Value) jsonValue {
	if v.Kind() == value.KindTime {
		return jsonValue{Kind: v.Kind().String(), Val: v.AsTime().Format(time.RFC3339Nano)}
	}
	return jsonValue{Kind: v.Kind().String(), Val: v.String()}
}

func oracleTagSet(s tag.Set) jsonTagSet {
	if s.IsEmpty() {
		return nil
	}
	out := make(jsonTagSet, s.Len())
	for _, t := range s.Tags() {
		out[t.Indicator] = oracleValue(t.Value)
	}
	return out
}

func oracleCell(cell relation.Cell) jsonCell {
	jc := jsonCell{V: oracleValue(cell.V), Tags: oracleTagSet(cell.Tags), Sources: cell.Sources}
	if len(cell.Meta) > 0 {
		jc.Meta = make(map[string]jsonTagSet, len(cell.Meta))
		for ind, ms := range cell.Meta {
			jc.Meta[ind] = oracleTagSet(ms)
		}
	}
	return jc
}

// requireSaveMatchesOracle fails the test unless Save writes exactly the
// oracle's bytes for cat.
func requireSaveMatchesOracle(t testing.TB, cat *Catalog) {
	t.Helper()
	var got, want bytes.Buffer
	if err := cat.Save(&got); err != nil {
		t.Fatal(err)
	}
	if err := saveJSONOracle(cat, &want); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want.Bytes()) {
		return
	}
	g, w := got.Bytes(), want.Bytes()
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	lo := max(i-200, 0)
	t.Fatalf("Save differs from encoding/json at byte %d (%d vs %d bytes)\nSave:   %q\noracle: %q",
		i, len(g), len(w), g[lo:min(i+80, len(g))], w[lo:min(i+80, len(w))])
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

// TestSaveMatchesJSON holds Save to the encoding/json oracle byte for
// byte over random catalogs: every value kind, nulls and float edges,
// strings needing every kind of escape, tags, sources, meta tags (one
// empty), table tags, keys, both index kinds, and dead slots mid-segment,
// trailing and filling a whole segment.
func TestSaveMatchesJSON(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		g := catGen{rand.New(rand.NewSource(seed))}
		cat := NewCatalog()
		for i, n := 0, g.r.Intn(4); i < n; i++ {
			g.table(t, cat, fmt.Sprintf("t%d%s", i, g.str()), 3*SegmentSize)
		}
		requireSaveMatchesOracle(t, cat)
	}
}

// TestSaveMatchesJSONEdges pins the shapes the random catalogs may miss:
// no tables at all ("tables": null), a table without rows ("rows": []),
// and tables whose only segment, or every segment, is dead.
func TestSaveMatchesJSONEdges(t *testing.T) {
	cat := NewCatalog()
	requireSaveMatchesOracle(t, cat)

	sc := schema.MustNew("empty<&>", []schema.Attr{{Name: "x", Kind: value.KindString}})
	if _, err := cat.Create(sc, false); err != nil {
		t.Fatal(err)
	}
	requireSaveMatchesOracle(t, cat)

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
			requireSaveMatchesOracle(t, cat)
		}
	}
	requireSaveMatchesOracle(t, cat)

	rich := buildRichCatalog(t)
	mutateRichCatalog(t, rich)
	requireSaveMatchesOracle(t, rich)
}

// failAfter is a writer that fails once more than n bytes were written.
type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n -= len(p); f.n < 0 {
		return 0, fmt.Errorf("disk full")
	}
	return len(p), nil
}

// TestSaveReportsWriteError: a failing destination fails Save, whether
// the failure hits a chunk written mid-table or the final one.
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
	var full bytes.Buffer
	if err := cat.Save(&full); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, snapFlushBytes, full.Len() - 1} {
		if err := cat.Save(&failAfter{n: n}); err == nil {
			t.Errorf("Save into a writer failing after %d of %d bytes reported no error", n, full.Len())
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
// holds Save to the encoding/json oracle byte for byte.
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
		requireSaveMatchesOracle(t, cat)
	})
}
