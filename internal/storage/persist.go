package storage

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"
	"time"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/tag"
	"repro/internal/value"
)

// JSON persistence for catalogs: the export format (qqlsh -load/-save),
// and the format of checkpoints written before the binary one in
// checkpoint.go, which recovery still reads. The format is
// self-describing: every value carries its kind, so the full tagged model
// — application values, indicator tags, polygen sources, meta-quality,
// table tags, schemas and index definitions — round-trips losslessly
// through Save and LoadCatalog. The json* types below define the document,
// and encoding/json writes and reads it.

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
	sc, err := def.schema()
	if err != nil {
		return nil, false, fmt.Errorf("storage: table def %s: %w", def.Name, err)
	}
	return sc, def.Strict, nil
}

// schema builds the schema def describes.
func (def *jsonTableDef) schema() (*schema.Schema, error) {
	attrs, err := decodeAttrs(def.Attrs)
	if err != nil {
		return nil, err
	}
	sc, err := schema.New(def.Name, attrs, def.Key...)
	if err != nil {
		return nil, err
	}
	sc.Doc = def.Doc
	return sc, nil
}

// jsonTable is one table of the document. Its definition's members come
// first: encoding/json writes an embedded struct's fields in its place.
type jsonTable struct {
	jsonTableDef
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

// Save writes the whole catalog as one indented JSON document. Each
// table's rows come from one SnapshotCols capture of its column runs, so a
// concurrent writer cannot make the file hold a state no table ever had
// (a deleted-and-reinserted key twice, say).
func (c *Catalog) Save(w io.Writer) error {
	doc := jsonCatalog{Format: formatName}
	for _, name := range c.Names() {
		tbl, _ := c.Get(name)
		sc := tbl.Schema()
		jt := jsonTable{
			jsonTableDef: jsonTableDef{Name: name, Doc: sc.Doc, Attrs: encodeAttrs(sc), Key: sc.Key, Strict: tbl.Strict()},
			TableTags:    encodeTagSet(tbl.TableTags()),
			Rows:         [][]jsonCell{},
		}
		for _, ix := range tbl.IndexSpecs() {
			jt.Indexes = append(jt.Indexes, jsonIndex{
				Attr: ix.Target.Attr, Indicator: ix.Target.Indicator, Kind: ix.Kind.name()})
		}
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
					row[i] = encodeCell(cell)
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

// encodeValue writes v's kind and its text: value.String(), except that
// times keep their nanoseconds.
func encodeValue(v value.Value) jsonValue {
	if v.Kind() == value.KindTime {
		return jsonValue{Kind: v.Kind().String(), Val: v.AsTime().Format(time.RFC3339Nano)}
	}
	return jsonValue{Kind: v.Kind().String(), Val: v.String()}
}

func encodeTagSet(s tag.Set) jsonTagSet {
	if s.IsEmpty() {
		return nil
	}
	out := make(jsonTagSet, s.Len())
	for _, t := range s.Tags() {
		out[t.Indicator] = encodeValue(t.Value)
	}
	return out
}

func encodeCell(cell relation.Cell) jsonCell {
	jc := jsonCell{V: encodeValue(cell.V), Tags: encodeTagSet(cell.Tags), Sources: cell.Sources}
	if len(cell.Meta) > 0 {
		jc.Meta = make(map[string]jsonTagSet, len(cell.Meta))
		for ind, ms := range cell.Meta {
			jc.Meta[ind] = encodeTagSet(ms)
		}
	}
	return jc
}

// LoadCatalog reads a catalog written by Save, or any JSON document
// encoding/json decodes to the same jsonCatalog.
func LoadCatalog(r io.Reader) (*Catalog, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("storage: load: %w", err)
	}
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
		sc, err := jt.schema()
		if err != nil {
			return nil, fmt.Errorf("storage: load table %s: %w", jt.Name, err)
		}
		tbl, err := createTable(cat, sc, jt.Strict, ts, jt.Indexes)
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

// createTable creates the table sc defines in cat, with its table tags ts
// and its indexes, which come before the rows so that loading populates
// them incrementally.
func createTable(cat *Catalog, sc *schema.Schema, strict bool, ts tag.Set, indexes []jsonIndex) (*Table, error) {
	tbl, err := cat.Create(sc, strict)
	if err != nil {
		return nil, err
	}
	for _, tg := range ts.Tags() {
		tbl.SetTableTag(tg.Indicator, tg.Value)
	}
	for _, ji := range indexes {
		var kind IndexKind
		switch ji.Kind {
		case IndexHash.name():
			kind = IndexHash
		case IndexBTree.name():
			kind = IndexBTree
		default:
			return nil, fmt.Errorf("storage: load table %s: unknown index kind %q", sc.Name, ji.Kind)
		}
		if err := tbl.CreateIndex(IndexTarget{Attr: ji.Attr, Indicator: ji.Indicator}, kind); err != nil {
			return nil, fmt.Errorf("storage: load table %s: %w", sc.Name, err)
		}
	}
	return tbl, nil
}

// name is the kind's name in a saved index definition.
func (k IndexKind) name() string {
	if k == IndexHash {
		return "hash"
	}
	return "btree"
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
