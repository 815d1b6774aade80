package storage

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/tag"
	"repro/internal/value"
)

// The key tables are held to the structures they replaced, kept here as
// oracles: a map from the key's joined literals to its row for the
// primary key, and a map of hash buckets confirmed with value.Equal for a
// hash index. An operation stream drives one table through inserts,
// updates that move and keep keys, deletes, indexes created over existing
// rows and checkpoint or JSON reopens; after every operation each answer
// of the table is checked against the model and the oracles, so a failed
// insert or update must have left the table as it was.

// Pools of the values the operations draw: in the float column, an int
// beside an Equal float that prints differently, both zeros, NaNs with
// different payloads and null; strings that quote, hold the 0 byte or are
// empty.
var (
	keyFloats = []value.Value{
		value.Int(1000000), value.Float(1e6), value.Float(0), value.Float(math.Copysign(0, -1)),
		value.Float(math.NaN()), value.Float(math.Float64frombits(0x7ff8000000000001)), value.Float(-math.NaN()),
		value.Null, value.Float(1.5), value.Int(2), value.Float(2),
	}
	keyStrings = []value.Value{
		value.Str("a"), value.Str("b"), value.Str(""), value.Null, value.Str("a'b"), value.Str("x\x00y"), value.Str("a\x00"),
	}
	keyInts    = []value.Value{value.Int(0), value.Int(1), value.Int(2), value.Int(3), value.Null}
	keySources = []value.Value{value.Str("wsj"), value.Str("nexis"), value.Null}
)

// keyModes are the table shapes: which columns key the table and which
// targets a hash index has from the start. Mode 2 and 3's key columns are
// indexed too, so the index is the key's own table.
var keyModes = []struct {
	key     []string
	indexes []IndexTarget
}{
	{[]string{"f"}, []IndexTarget{{Attr: "f"}, {Attr: "s", Indicator: "source"}}},
	{[]string{"f", "s"}, []IndexTarget{{Attr: "s"}, {Attr: "v"}}},
	{[]string{"s"}, []IndexTarget{{Attr: "s"}, {Attr: "f"}}},
	{[]string{"v"}, []IndexTarget{{Attr: "v"}, {Attr: "s", Indicator: "source"}}},
	{nil, []IndexTarget{{Attr: "f"}, {Attr: "s", Indicator: "source"}}},
}

// laterIndexes are the targets CreateIndex may add over existing rows.
var laterIndexes = []IndexTarget{{Attr: "v"}, {Attr: "f"}, {Attr: "s"}, {Attr: "s", Indicator: "source"}}

// opStream decodes operations from bytes; past its end it reads zeros.
type opStream []byte

func (s *opStream) next(n int) int {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return int(b) % n
}

// keyHarness is one table under test and its model.
type keyHarness struct {
	t    testing.TB
	cat  *Catalog
	tbl  *Table
	key  []int
	rows map[RowID]relation.Tuple // the live rows
	next RowID                    // the next row ID
	pk   map[string]RowID         // the primary key oracle, by joined literals
}

func newKeyHarness(t testing.TB, mode int) *keyHarness {
	m := keyModes[mode]
	sc := schema.MustNew("kt", []schema.Attr{
		{Name: "f", Kind: value.KindFloat},
		{Name: "s", Kind: value.KindString, Indicators: []tag.Indicator{{Name: "source", Kind: value.KindString}}},
		{Name: "v", Kind: value.KindInt},
	}, m.key...)
	h := &keyHarness{t: t, cat: NewCatalog(), rows: map[RowID]relation.Tuple{}, pk: map[string]RowID{}, key: sc.KeyIndexes()}
	tbl, err := h.cat.Create(sc, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range m.indexes {
		if err := tbl.CreateIndex(target, IndexHash); err != nil {
			t.Fatal(err)
		}
	}
	h.tbl = tbl
	return h
}

func (h *keyHarness) tuple(s *opStream) relation.Tuple {
	sc := relation.Cell{V: keyStrings[s.next(len(keyStrings))]}
	if src := s.next(len(keySources) + 1); src < len(keySources) {
		sc.Tags = tag.NewSet(tag.Tag{Indicator: "source", Value: keySources[src]})
	}
	return relation.Tuple{Cells: []relation.Cell{
		{V: keyFloats[s.next(len(keyFloats))]}, sc, {V: keyInts[s.next(len(keyInts))]},
	}}
}

// literal is the oracle's key: the joined literals the primary key map
// was keyed by.
func (h *keyHarness) literal(vals []value.Value) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = v.Literal()
	}
	return strings.Join(parts, "\x00")
}

func (h *keyHarness) keyVals(tup relation.Tuple) []value.Value {
	var out []value.Value
	for _, c := range h.key {
		out = append(out, tup.Cells[c].V)
	}
	return out
}

// owner returns the live row, other than except, whose key prints as
// vals does; a keyless table has no owners.
func (h *keyHarness) owner(vals []value.Value, except RowID) (RowID, bool) {
	id, ok := h.pk[h.literal(vals)]
	if !ok || id == except || len(h.key) == 0 {
		return 0, false
	}
	return id, true
}

// put files tup as row id in the model, or removes the row when tup has
// no cells.
func (h *keyHarness) put(id RowID, tup relation.Tuple) {
	if old, ok := h.rows[id]; ok {
		delete(h.pk, h.literal(h.keyVals(old)))
		delete(h.rows, id)
	}
	if len(tup.Cells) > 0 {
		h.rows[id] = tup
		h.pk[h.literal(h.keyVals(tup))] = id
	}
}

func (h *keyHarness) wantDup(op string, err error, vals []value.Value) {
	h.t.Helper()
	want := fmt.Sprintf("storage kt: duplicate key %s", h.literal(vals))
	if err == nil || err.Error() != want {
		h.t.Fatalf("%s: error %v, want %q", op, err, want)
	}
}

// step decodes and applies one operation, then checks every answer.
func (h *keyHarness) step(s *opStream) {
	h.t.Helper()
	switch op := s.next(8); {
	case op < 3:
		tup := h.tuple(s)
		id, err := h.tbl.Insert(tup)
		if _, dup := h.owner(h.keyVals(tup), -1); dup {
			h.wantDup("insert", err, h.keyVals(tup))
			break
		}
		if err != nil || id != h.next {
			h.t.Fatalf("insert %v: row %d, %v; want row %d", tup, id, err, h.next)
		}
		h.put(id, tup)
		h.next++
	case op < 5:
		id := RowID(s.next(int(h.next) + 1))
		tup := h.tuple(s)
		old, live := h.rows[id]
		if live && s.next(2) == 0 {
			for _, c := range h.key { // keep the key, change the rest
				tup.Cells[c] = old.Cells[c]
			}
		}
		err := h.tbl.Update(id, tup)
		switch _, dup := h.owner(h.keyVals(tup), id); {
		case !live:
			if err == nil {
				h.t.Fatalf("update of dead row %d succeeded", id)
			}
		case dup:
			h.wantDup("update", err, h.keyVals(tup))
		case err != nil:
			h.t.Fatalf("update row %d to %v: %v", id, tup, err)
		default:
			h.put(id, tup)
		}
	case op == 5:
		id := RowID(s.next(int(h.next) + 1))
		err := h.tbl.Delete(id)
		if _, live := h.rows[id]; live != (err == nil) {
			h.t.Fatalf("delete row %d (live %v): %v", id, live, err)
		}
		h.put(id, relation.Tuple{})
	case op == 6:
		for _, target := range laterIndexes {
			if exists, _ := h.tbl.HasIndex(target); !exists {
				if err := h.tbl.CreateIndex(target, IndexHash); err != nil {
					h.t.Fatal(err)
				}
				break
			}
		}
	default:
		var buf bytes.Buffer
		var cat *Catalog
		var err error
		if s.next(2) == 0 {
			if err = h.cat.WriteCheckpoint(&buf); err == nil {
				cat, err = LoadCheckpoint(buf.Bytes())
			}
		} else if err = h.cat.Save(&buf); err == nil {
			cat, err = LoadCatalog(&buf)
		}
		if err != nil {
			h.t.Fatalf("reopen: %v", err)
		}
		h.cat = cat
		h.tbl, _ = cat.Get("kt")
	}
	h.check()
}

// check holds every answer of the table to the model and the oracles.
func (h *keyHarness) check() {
	h.t.Helper()
	if got := h.tbl.Len(); got != len(h.rows) {
		h.t.Fatalf("Len = %d, model %d", got, len(h.rows))
	}
	for id := RowID(0); id <= h.next; id++ {
		got, live := h.tbl.Get(id)
		want, wantLive := h.rows[id]
		if live != wantLive || (live && !got.Equal(want)) {
			h.t.Fatalf("row %d: %v (live %v), model %v (live %v)", id, got, live, want, wantLive)
		}
	}
	if len(h.key) > 0 {
		probes := [][]value.Value{{}}
		for _, c := range h.key {
			pool := [][]value.Value{keyFloats, keyStrings, keyInts}[c]
			var longer [][]value.Value
			for _, p := range probes {
				for _, v := range pool {
					longer = append(longer, append(slices.Clip(p), v))
				}
			}
			probes = longer
		}
		for _, p := range probes {
			id, ok := h.tbl.LookupKey(p...)
			want, wantOK := h.owner(p, -1)
			if ok != wantOK || id != want {
				h.t.Fatalf("LookupKey(%s) = %d, %v; oracle %d, %v", h.literal(p), id, ok, want, wantOK)
			}
		}
	}
	// A hash index's oracle buckets the rows' targets by hash and confirms
	// with value.Equal.
	all := slices.Concat(keyFloats, keyStrings, keyInts, keySources)
	for _, target := range h.tbl.Indexes() {
		col := h.tbl.Schema().ColIndex(target.Attr)
		type entry struct {
			k  value.Value
			id RowID
		}
		buckets := map[uint64][]entry{}
		for id, tup := range h.rows {
			c := tup.Cells[col]
			k, ok := c.V, true
			if target.Indicator != "" {
				k, ok = c.Tags.Get(target.Indicator)
			}
			if ok {
				buckets[k.Hash()] = append(buckets[k.Hash()], entry{k, id})
			}
		}
		for _, v := range all {
			got, err := h.tbl.LookupEq(target, v)
			if err != nil {
				h.t.Fatal(err)
			}
			var want []RowID
			for _, e := range buckets[v.Hash()] {
				if value.Equal(e.k, v) {
					want = append(want, e.id)
				}
			}
			slices.Sort(want)
			if !slices.Equal(got, want) {
				h.t.Fatalf("LookupEq(%s, %s %s) = %v, oracle %v", target, v.Kind(), v.Literal(), got, want)
			}
		}
	}
}

// runKeyOps drives a table of the mode the first byte picks through the
// operations the rest decode.
func runKeyOps(t testing.TB, data []byte) {
	s := opStream(data)
	h := newKeyHarness(t, s.next(len(keyModes)))
	for len(s) > 0 {
		h.step(&s)
	}
}

// TestKeyTablesMatchOracles runs seeded operation streams over every
// table shape.
func TestKeyTablesMatchOracles(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		r := rand.New(rand.NewSource(seed))
		data := make([]byte, 1200)
		r.Read(data)
		data[0] = byte(seed % int64(len(keyModes)))
		runKeyOps(t, data)
	}
}

// FuzzKeyTable fuzzes the operation stream of TestKeyTablesMatchOracles.
func FuzzKeyTable(f *testing.F) {
	for seed := int64(1); seed <= int64(len(keyModes)); seed++ {
		r := rand.New(rand.NewSource(seed))
		data := make([]byte, 200)
		r.Read(data)
		data[0] = byte(seed)
		f.Add(data)
	}
	// Inputs are cut at 256 bytes, some fifty operations: the fuzzer
	// minimizes each new input in time quadratic in its length.
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		runKeyOps(t, data)
	})
}

// TestLoadRefusesDuplicateKey: a saved table whose rows repeat a key
// fails to load, naming the table, the repeating row by its number among
// the saved rows, as an insert of that row would have.
func TestLoadRefusesDuplicateKey(t *testing.T) {
	cat := NewCatalog()
	tbl, err := cat.Create(schema.MustNew("d", []schema.Attr{{Name: "k", Kind: value.KindString}}, "k"), false)
	if err != nil {
		t.Fatal(err)
	}
	// loadRow appends without key upkeep, so the heap can repeat a key.
	for i := 0; i < SegmentSize+10; i++ {
		k := fmt.Sprint(i)
		if i == SegmentSize+5 {
			k = "3"
		}
		if err := tbl.loadRow(relation.Tuple{Cells: []relation.Cell{{V: value.Str(k)}}}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.Delete(1); err != nil {
		t.Fatal(err)
	}
	_, err = LoadCheckpoint(checkpointBytes(t, cat))
	want := fmt.Sprintf("storage: checkpoint: section 3: table d row %d: storage d: duplicate key '3'", SegmentSize+4)
	if err == nil || err.Error() != want {
		t.Errorf("checkpoint: error %v, want %q", err, want)
	}
	_, err = LoadCatalog(bytes.NewReader(saveBytes(t, cat)))
	want = fmt.Sprintf("storage: load table d row %d: storage d: duplicate key '3'", SegmentSize+4)
	if err == nil || err.Error() != want {
		t.Errorf("JSON: error %v, want %q", err, want)
	}
}
