package storage

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/tag"
	"repro/internal/value"
)

// JSON persistence for catalogs. The format is self-describing: every value
// carries its kind so the full tagged model — application values, indicator
// tags, polygen sources, meta-quality, table tags, schemas, and index
// definitions — round-trips losslessly through Save and Load. The json*
// types below define the document: LoadCatalog decodes into them with
// encoding/json, while Save streams the same bytes straight from the column
// runs (snapwrite.go) without building them.

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

func decodeTagSet(m jsonTagSet) (tag.Set, error) {
	if len(m) == 0 {
		return tag.EmptySet, nil
	}
	tags := make([]tag.Tag, 0, len(m))
	for name, jv := range m {
		v, err := decodeValue(jv)
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

// LoadCatalog reads a catalog written by Save.
func LoadCatalog(r io.Reader) (*Catalog, error) {
	var doc jsonCatalog
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("storage: load: %w", err)
	}
	if doc.Format != formatName {
		return nil, fmt.Errorf("storage: load: unknown format %q", doc.Format)
	}
	cat := NewCatalog()
	for _, jt := range doc.Tables {
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
		// Table tags.
		ts, err := decodeTagSet(jt.TableTags)
		if err != nil {
			return nil, fmt.Errorf("storage: load table %s: %w", jt.Name, err)
		}
		for _, tg := range ts.Tags() {
			tbl.SetTableTag(tg.Indicator, tg.Value)
		}
		// Indexes before rows so loads populate them incrementally.
		for _, ji := range jt.Indexes {
			kind := IndexBTree
			if ji.Kind == "hash" {
				kind = IndexHash
			}
			if err := tbl.CreateIndex(IndexTarget{Attr: ji.Attr, Indicator: ji.Indicator}, kind); err != nil {
				return nil, fmt.Errorf("storage: load table %s: %w", jt.Name, err)
			}
		}
		if len(jt.Dead) > 0 && jt.Slots != len(jt.Rows)+len(jt.Dead) {
			return nil, fmt.Errorf("storage: load table %s: %d slots, but %d rows and %d dead",
				jt.Name, jt.Slots, len(jt.Rows), len(jt.Dead))
		}
		// Dead slots go back where they were, so every row keeps its saved ID.
		dead := jt.Dead
		fillDead := func() {
			for len(dead) > 0 && dead[0] == RowID(tbl.slots()) {
				tbl.appendDead()
				dead = dead[1:]
			}
		}
		for rowNum, jr := range jt.Rows {
			fillDead()
			if len(jr) != len(attrs) {
				return nil, fmt.Errorf("storage: load table %s row %d: arity %d, want %d",
					jt.Name, rowNum, len(jr), len(attrs))
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
				for ind, jm := range jc.Meta {
					ms, err := decodeTagSet(jm)
					if err != nil {
						return nil, fmt.Errorf("storage: load table %s row %d: %w", jt.Name, rowNum, err)
					}
					for _, tg := range ms.Tags() {
						cell = cell.WithMetaTag(ind, tg.Indicator, tg.Value)
					}
				}
				cells[i] = cell
			}
			if _, err := tbl.Insert(relation.Tuple{Cells: cells}); err != nil {
				return nil, fmt.Errorf("storage: load table %s row %d: %w", jt.Name, rowNum, err)
			}
		}
		fillDead()
		if len(dead) > 0 {
			return nil, fmt.Errorf("storage: load table %s: dead slot %d out of order", jt.Name, dead[0])
		}
	}
	return cat, nil
}
