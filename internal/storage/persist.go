package storage

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"
	"sync/atomic"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/tag"
	"repro/internal/value"
)

// JSON persistence for catalogs. The format is self-describing: every value
// carries its kind so the full tagged model — application values, indicator
// tags, polygen sources, meta-quality, table tags, schemas, and index
// definitions — round-trips losslessly through Save and Load. The json*
// types below define the document. Save streams its bytes straight from
// the column runs (snapwrite.go) and LoadCatalog reads them back in one
// pass (snapread.go), neither building the json* values; encoding/json
// decodes into them only for a document that departs from Save's layout,
// such as a hand-edited one.

type jsonValue struct {
	Kind string `json:"k"`
	Val  string `json:"v,omitempty"`
}

func decodeValue(jv jsonValue) (value.Value, error) {
	k, err := value.ParseKind(jv.Kind)
	if err != nil {
		return value.Null, err
	}
	if k == value.KindNull {
		return value.Null, nil
	}
	return value.Parse(k, jv.Val)
}

type jsonTagSet map[string]jsonValue

// decodeTagSet decodes the tags in name order, so that the error for a
// set with several bad values does not depend on map iteration order.
func decodeTagSet(m jsonTagSet) (tag.Set, error) {
	if len(m) == 0 {
		return tag.EmptySet, nil
	}
	tags := make([]tag.Tag, 0, len(m))
	for _, name := range slices.Sorted(maps.Keys(m)) {
		v, err := decodeValue(m[name])
		if err != nil {
			return tag.EmptySet, fmt.Errorf("tag %s: %w", name, err)
		}
		tags = append(tags, tag.Tag{Indicator: name, Value: v})
	}
	return tag.NewSet(tags...), nil
}

type jsonCell struct {
	V       jsonValue             `json:"v"`
	Tags    jsonTagSet            `json:"t,omitempty"`
	Sources []string              `json:"s,omitempty"`
	Meta    map[string]jsonTagSet `json:"m,omitempty"`
}

type jsonIndicator struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	Doc  string `json:"doc,omitempty"`
}

type jsonAttr struct {
	Name       string          `json:"name"`
	Kind       string          `json:"kind"`
	Required   bool            `json:"required,omitempty"`
	Indicators []jsonIndicator `json:"indicators,omitempty"`
	Doc        string          `json:"doc,omitempty"`
}

type jsonIndex struct {
	Attr      string `json:"attr"`
	Indicator string `json:"indicator,omitempty"`
	Kind      string `json:"kind"`
}

func encodeAttrs(sc *schema.Schema) []jsonAttr {
	out := make([]jsonAttr, 0, len(sc.Attrs))
	for _, a := range sc.Attrs {
		ja := jsonAttr{Name: a.Name, Kind: a.Kind.String(), Required: a.Required, Doc: a.Doc}
		for _, ind := range a.Indicators {
			ja.Indicators = append(ja.Indicators, jsonIndicator{
				Name: ind.Name, Kind: ind.Kind.String(), Doc: ind.Doc})
		}
		out = append(out, ja)
	}
	return out
}

func decodeAttrs(jas []jsonAttr) ([]schema.Attr, error) {
	attrs := make([]schema.Attr, len(jas))
	for i, ja := range jas {
		k, err := value.ParseKind(ja.Kind)
		if err != nil {
			return nil, err
		}
		a := schema.Attr{Name: ja.Name, Kind: k, Required: ja.Required, Doc: ja.Doc}
		for _, ji := range ja.Indicators {
			ik, err := value.ParseKind(ji.Kind)
			if err != nil {
				return nil, err
			}
			a.Indicators = append(a.Indicators, tag.Indicator{Name: ji.Name, Kind: ik, Doc: ji.Doc})
		}
		attrs[i] = a
	}
	return attrs, nil
}

// jsonTableDef is a schema-only table definition: what CREATE TABLE
// establishes, without rows, tags, or indexes. The WAL logs DDL as one of
// these so a replayed CreateTable record rebuilds the exact schema.
type jsonTableDef struct {
	Name   string     `json:"name"`
	Doc    string     `json:"doc,omitempty"`
	Attrs  []jsonAttr `json:"attrs"`
	Key    []string   `json:"key,omitempty"`
	Strict bool       `json:"strict,omitempty"`
}

// MarshalTableDef serializes a schema + strictness for a logical DDL
// record (the WAL's CreateTable payload).
func MarshalTableDef(sc *schema.Schema, strict bool) ([]byte, error) {
	def := jsonTableDef{Name: sc.Name, Doc: sc.Doc, Attrs: encodeAttrs(sc), Key: sc.Key, Strict: strict}
	return json.Marshal(def)
}

// UnmarshalTableDef reverses MarshalTableDef.
func UnmarshalTableDef(data []byte) (*schema.Schema, bool, error) {
	var def jsonTableDef
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, false, fmt.Errorf("storage: table def: %w", err)
	}
	attrs, err := decodeAttrs(def.Attrs)
	if err != nil {
		return nil, false, fmt.Errorf("storage: table def %s: %w", def.Name, err)
	}
	sc, err := schema.New(def.Name, attrs, def.Key...)
	if err != nil {
		return nil, false, fmt.Errorf("storage: table def %s: %w", def.Name, err)
	}
	sc.Doc = def.Doc
	return sc, def.Strict, nil
}

type jsonTable struct {
	Name      string      `json:"name"`
	Doc       string      `json:"doc,omitempty"`
	Attrs     []jsonAttr  `json:"attrs"`
	Key       []string    `json:"key,omitempty"`
	Strict    bool        `json:"strict,omitempty"`
	TableTags jsonTagSet  `json:"table_tags,omitempty"`
	Indexes   []jsonIndex `json:"indexes,omitempty"`
	// Slots and Dead keep row IDs stable across a save and load, because
	// WAL records written after a checkpoint address rows by ID: Slots is
	// the table's slot count (its next row ID) and Dead lists its dead
	// slots in ascending order; Rows holds the live slots in order. Both
	// are omitted for a table without dead slots, whose rows are its slots.
	Slots int          `json:"slots,omitempty"`
	Dead  []RowID      `json:"dead,omitempty"`
	Rows  [][]jsonCell `json:"rows"`
}

type jsonCatalog struct {
	Format string      `json:"format"`
	Tables []jsonTable `json:"tables"`
}

// formatName identifies the persistence format.
const formatName = "repro-dq-catalog/1"

// Save writes the whole catalog as indented JSON. It streams: each table's
// rows are encoded straight from one SnapshotCols capture of its column
// runs and written out in chunks (see snapWriter), with no document built
// first. The bytes are exactly those encoding/json writes for the
// jsonCatalog document, which is what LoadCatalog decodes.
func (c *Catalog) Save(w io.Writer) error {
	sw := snapWriter{w: w, b: make([]byte, 0, 2*snapFlushBytes)}
	sw.open('{')
	sw.field(`"format": `)
	sw.str(formatName)
	sw.field(`"tables": `)
	if names := c.Names(); len(names) == 0 {
		sw.b = append(sw.b, "null"...)
	} else {
		sw.open('[')
		for _, name := range names {
			tbl, _ := c.Get(name)
			if sw.table(name, tbl); sw.err != nil {
				return sw.err
			}
		}
		sw.close(']')
	}
	sw.close('}')
	sw.b = append(sw.b, '\n')
	sw.flush(true)
	return sw.err
}

// snapshotFallbacks counts LoadCatalog calls the streaming reader handed
// to encoding/json: process-wide instrumentation, like tupleClones, for
// tests asserting that what Save writes always loads on the fast path.
var snapshotFallbacks atomic.Int64

// SnapshotFallbacks reports the process-wide count of catalog loads that
// fell back from the streaming reader to encoding/json; measure deltas
// around an operation.
func SnapshotFallbacks() int64 { return snapshotFallbacks.Load() }

// LoadCatalog reads a catalog written by Save, or any JSON document
// encoding/json decodes to the same jsonCatalog.
func LoadCatalog(r io.Reader) (*Catalog, error) {
	// io.Copy hands a bytes or strings Reader's contents over in one
	// write, where io.ReadAll would grow its buffer step by step.
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		return nil, fmt.Errorf("storage: load: %w", err)
	}
	cat, _, err := LoadCatalogBytes(buf.Bytes())
	return cat, err
}

// LoadCatalogBytes is LoadCatalog over a document already in memory,
// which it reads but neither modifies nor retains. It decodes with the
// streaming reader (snapread.go). At the first departure from the layout
// Save writes, or the first check that fails, it drops what that reader
// built and decodes data again with encoding/json, reporting fellBack.
// Errors, and everything accepted beyond Save's layout, are therefore
// encoding/json's.
func LoadCatalogBytes(data []byte) (cat *Catalog, fellBack bool, err error) {
	if cat, ok := readSnapshot(data); ok {
		return cat, false, nil
	}
	snapshotFallbacks.Add(1)
	cat, err = loadCatalogJSON(data)
	return cat, true, err
}

// loadCatalogJSON decodes data into the jsonCatalog document with
// encoding/json and builds the catalog from it.
func loadCatalogJSON(data []byte) (*Catalog, error) {
	var doc jsonCatalog
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("storage: load: %w", err)
	}
	if doc.Format != formatName {
		return nil, fmt.Errorf("storage: load: unknown format %q", doc.Format)
	}
	cat := NewCatalog()
	for _, jt := range doc.Tables {
		ts, err := decodeTagSet(jt.TableTags)
		if err != nil {
			return nil, fmt.Errorf("storage: load table %s: %w", jt.Name, err)
		}
		tbl, err := createTable(cat, &jt, ts)
		if err != nil {
			return nil, err
		}
		if len(jt.Dead) > 0 && jt.Slots != len(jt.Rows)+len(jt.Dead) {
			return nil, fmt.Errorf("storage: load table %s: %d slots, but %d rows and %d dead",
				jt.Name, jt.Slots, len(jt.Rows), len(jt.Dead))
		}
		rl := rowLoader{tbl: tbl, dead: jt.Dead}
		arity := len(tbl.Schema().Attrs)
		for rowNum, jr := range jt.Rows {
			if len(jr) != arity {
				return nil, fmt.Errorf("storage: load table %s row %d: arity %d, want %d",
					jt.Name, rowNum, len(jr), arity)
			}
			cells := make([]relation.Cell, len(jr))
			for i, jc := range jr {
				v, err := decodeValue(jc.V)
				if err != nil {
					return nil, fmt.Errorf("storage: load table %s row %d: %w", jt.Name, rowNum, err)
				}
				tags, err := decodeTagSet(jc.Tags)
				if err != nil {
					return nil, fmt.Errorf("storage: load table %s row %d: %w", jt.Name, rowNum, err)
				}
				cell := relation.Cell{V: v, Tags: tags, Sources: tag.NewSources(jc.Sources...)}
				for _, ind := range slices.Sorted(maps.Keys(jc.Meta)) {
					ms, err := decodeTagSet(jc.Meta[ind])
					if err != nil {
						return nil, fmt.Errorf("storage: load table %s row %d: %w", jt.Name, rowNum, err)
					}
					for _, tg := range ms.Tags() {
						cell = cell.WithMetaTag(ind, tg.Indicator, tg.Value)
					}
				}
				cells[i] = cell
			}
			if err := rl.insert(cells); err != nil {
				return nil, fmt.Errorf("storage: load table %s row %d: %w", jt.Name, rowNum, err)
			}
		}
		if err := rl.finish(); err != nil {
			return nil, fmt.Errorf("storage: load table %s: %w", jt.Name, err)
		}
	}
	return cat, nil
}

// createTable creates the table jt defines in cat: its schema, the table
// tags ts and its indexes, which come before the rows so that loading
// populates them incrementally. jt's rows and dead slots are not read.
func createTable(cat *Catalog, jt *jsonTable, ts tag.Set) (*Table, error) {
	attrs, err := decodeAttrs(jt.Attrs)
	if err != nil {
		return nil, fmt.Errorf("storage: load table %s: %w", jt.Name, err)
	}
	sc, err := schema.New(jt.Name, attrs, jt.Key...)
	if err != nil {
		return nil, fmt.Errorf("storage: load table %s: %w", jt.Name, err)
	}
	sc.Doc = jt.Doc
	tbl, err := cat.Create(sc, jt.Strict)
	if err != nil {
		return nil, err
	}
	for _, tg := range ts.Tags() {
		tbl.SetTableTag(tg.Indicator, tg.Value)
	}
	for _, ji := range jt.Indexes {
		var kind IndexKind
		switch ji.Kind {
		case "hash":
			kind = IndexHash
		case "btree":
			kind = IndexBTree
		default:
			return nil, fmt.Errorf("storage: load table %s: unknown index kind %q", jt.Name, ji.Kind)
		}
		if err := tbl.CreateIndex(IndexTarget{Attr: ji.Attr, Indicator: ji.Indicator}, kind); err != nil {
			return nil, fmt.Errorf("storage: load table %s: %w", jt.Name, err)
		}
	}
	return tbl, nil
}

// rowLoader inserts a table's saved rows in order and puts its dead
// slots back where they were, so every row keeps its saved ID.
type rowLoader struct {
	tbl  *Table
	dead []RowID // dead slots not yet placed, ascending
}

func (l *rowLoader) fillDead() {
	for len(l.dead) > 0 && l.dead[0] == RowID(l.tbl.slots()) {
		l.tbl.appendDead()
		l.dead = l.dead[1:]
	}
}

// insert adds the next live row; cells may be reused once it returns.
func (l *rowLoader) insert(cells []relation.Cell) error {
	l.fillDead()
	_, err := l.tbl.Insert(relation.Tuple{Cells: cells})
	return err
}

// finish places the dead slots after the last row and refuses any that
// could not be placed.
func (l *rowLoader) finish() error {
	l.fillDead()
	if len(l.dead) > 0 {
		return fmt.Errorf("dead slot %d out of order", l.dead[0])
	}
	return nil
}
