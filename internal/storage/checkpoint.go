package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"math"
	mathbits "math/bits"
	"slices"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/tag"
	"repro/internal/value"
)

// Binary checkpoints: the catalog in the engine's own shape, column run by
// column run. WriteCheckpoint writes what the WAL's checkpoints hold and
// LoadCheckpoint reads it back; Save and LoadCatalog remain the JSON export.
//
//	file     := magic "QQLCKPT", version byte, section*
//	section  := u32-LE len(body) | u32-LE CRC32C(body) | body
//	body     := kind byte, then per kind:
//	  table:   string name, string doc, uvarint n, n × attr,
//	           uvarint n, n × string key attr, strict byte
//	           uvarint n, n × (string indicator, value)   table tags
//	           uvarint n, n × (string attr, string indicator, string kind)
//	           uvarint slots, uvarint n, n × uvarint dead slot (ascending)
//	           uvarint segments (the segment sections that follow)
//	  segment: uvarint rows, then per column:
//	           rows × value
//	           uvarint n, n × (dstring indicator)          ascending names
//	           n × (presence, one tag value per present cell)
//	           presence, per present cell: uvarint n, n × dstring source
//	           presence, per present cell: uvarint n, n × (dstring
//	             indicator, uvarint m, m × (dstring name, tag value))
//	  end:     uvarint tables, uvarint sections before it
//
//	attr:      string name, kind byte, required byte, string doc,
//	           uvarint n, n × (string indicator, kind byte, string doc)
//
// A segment section holds the live rows of one heap segment in slot order.
// A string is a uvarint length and its bytes. Values use
// value.AppendBinary, whose null is one byte, so a column needs no null
// bitmap. A tag value is the same, except that a
// string is a dstring after its kind byte. A dstring goes through the
// section's string dictionary: uvarint 0 and the string at its first
// occurrence, uvarint code+1 after that. A presence is a byte — 0 for no
// cell, 1 for every cell — or 2 followed by a bitmap of one bit per row.
// Tag names within a set and meta indicators within a cell are ascending.
// The end section makes a file cut short at a section boundary detectable.

// checkpointMagic opens every binary checkpoint. No JSON document starts
// with it, so recovery tells the two formats apart by their first bytes.
const checkpointMagic = "QQLCKPT"

const checkpointVersion = 1

// Section kinds.
const (
	secTable   byte = 'T'
	secSegment byte = 'S'
	secEnd     byte = 'E'
)

// Presence modes.
const (
	presentNone byte = iota
	presentAll
	presentBitmap
)

// sectionHeader is the length and checksum before each section body.
const sectionHeader = 8

// castagnoli is the CRC32C table, the polynomial the WAL's records use.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// IsCheckpoint reports whether data starts like a binary checkpoint
// rather than a JSON document.
func IsCheckpoint(data []byte) bool {
	return bytes.HasPrefix(data, []byte(checkpointMagic))
}

// WriteCheckpoint writes the whole catalog as a binary checkpoint. Each
// table is read from one SnapshotCols capture, like Save reads it; a table
// written concurrently is saved at one instant, but different tables at
// different ones, so the caller excludes writers to get one catalog state.
func (c *Catalog) WriteCheckpoint(w io.Writer) error {
	cw := ckptWriter{w: w}
	if _, err := io.WriteString(w, checkpointMagic+string(rune(checkpointVersion))); err != nil {
		return err
	}
	names := c.Names()
	for _, name := range names {
		tbl, _ := c.Get(name)
		if err := cw.table(tbl); err != nil {
			return err
		}
	}
	cw.begin(secEnd)
	cw.uvarint(uint64(len(names)))
	cw.uvarint(uint64(cw.sections))
	return cw.end()
}

// ckptWriter builds one section at a time and writes it out whole.
type ckptWriter struct {
	w        io.Writer
	b        []byte  // the section being built, header first
	dict     strDict // the section's strings
	sections int
	vals     []byte   // scratch: one presence's values
	pres     []byte   // scratch: one presence bitmap
	names    []string // scratch: sorted indicator names
}

func (w *ckptWriter) begin(kind byte) {
	w.b = append(w.b[:0], make([]byte, sectionHeader)...)
	w.b = append(w.b, kind)
	w.dict.reset()
}

// end frames the section and writes it.
func (w *ckptWriter) end() error {
	body := w.b[sectionHeader:]
	binary.LittleEndian.PutUint32(w.b[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(w.b[4:8], crc32.Checksum(body, castagnoli))
	w.sections++
	_, err := w.w.Write(w.b)
	return err
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func (w *ckptWriter) uvarint(x uint64) { w.b = binary.AppendUvarint(w.b, x) }

func (w *ckptWriter) str(s string) { w.b = appendStr(w.b, s) }

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// strDict codes a section's strings in order of first occurrence. The
// first dictScan are found by a linear scan, cheaper than hashing while,
// as in tagged rows, a handful of names and sources repeat; a map holds
// the rest.
type strDict struct {
	n     uint64            // strings coded so far
	first []string          // the first dictScan strings, by code
	rest  map[string]uint64 // the codes of the strings after them
}

const dictScan = 16

func (d *strDict) reset() {
	d.n, d.first = 0, d.first[:0]
	clear(d.rest)
}

func appendDictStr(b []byte, d *strDict, s string) []byte {
	for i, t := range d.first {
		if t == s {
			return binary.AppendUvarint(b, uint64(i)+1)
		}
	}
	if code, ok := d.rest[s]; ok {
		return binary.AppendUvarint(b, code+1)
	}
	if len(d.first) < dictScan {
		d.first = append(d.first, s)
	} else {
		if d.rest == nil {
			d.rest = make(map[string]uint64)
		}
		d.rest[s] = d.n
	}
	d.n++
	b = append(b, 0)
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendTagValue(b []byte, dict *strDict, v value.Value) []byte {
	if v.Kind() == value.KindString {
		return appendDictStr(append(b, byte(value.KindString)), dict, v.AsString())
	}
	return value.AppendBinary(b, v)
}

func appendTagSet(b []byte, dict *strDict, s tag.Set) []byte {
	b = binary.AppendUvarint(b, uint64(s.Len()))
	for _, t := range s.Tags() {
		b = appendDictStr(b, dict, t.Indicator)
		b = appendTagValue(b, dict, t.Value)
	}
	return b
}

// appendTableDef appends a table's definition and strictness field by
// field, as secReader.schema reads it back. JSON would turn invalid UTF-8
// in a name or doc into U+FFFD.
func appendTableDef(b []byte, sc *schema.Schema, strict bool) []byte {
	b = appendStr(b, sc.Name)
	b = appendStr(b, sc.Doc)
	b = binary.AppendUvarint(b, uint64(len(sc.Attrs)))
	for _, a := range sc.Attrs {
		b = appendStr(b, a.Name)
		b = append(b, byte(a.Kind), boolByte(a.Required))
		b = appendStr(b, a.Doc)
		b = binary.AppendUvarint(b, uint64(len(a.Indicators)))
		for _, ind := range a.Indicators {
			b = appendStr(b, ind.Name)
			b = append(b, byte(ind.Kind))
			b = appendStr(b, ind.Doc)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(sc.Key)))
	for _, k := range sc.Key {
		b = appendStr(b, k)
	}
	return append(b, boolByte(strict))
}

func (w *ckptWriter) table(tbl *Table) error {
	sc := tbl.Schema()
	w.begin(secTable)
	w.b = appendTableDef(w.b, sc, tbl.Strict())
	tt := tbl.TableTags()
	w.uvarint(uint64(tt.Len()))
	for _, t := range tt.Tags() {
		w.str(t.Indicator)
		w.b = value.AppendBinary(w.b, t.Value)
	}
	specs := tbl.IndexSpecs()
	w.uvarint(uint64(len(specs)))
	for _, ix := range specs {
		w.str(ix.Target.Attr)
		w.str(ix.Target.Indicator)
		w.str(ix.Kind.name())
	}
	views := tbl.SnapshotCols(sc.ColIndexes())
	slots, dead := 0, 0
	for v := range views {
		slots += views[v].N
		dead += views[v].N - views[v].Live()
	}
	w.uvarint(uint64(slots))
	w.uvarint(uint64(dead))
	for v := range views {
		view := &views[v]
		if view.Sel == nil {
			continue
		}
		// Dead slots are the gaps between live offsets, and after the
		// last one.
		next := 0
		for k := 0; k <= len(view.Sel); k++ {
			end := view.N
			if k < len(view.Sel) {
				end = int(view.Sel[k])
			}
			for ; next < end; next++ {
				w.uvarint(uint64(view.Base) + uint64(next))
			}
			next++
		}
	}
	w.uvarint(uint64(len(views)))
	if err := w.end(); err != nil {
		return err
	}
	for v := range views {
		w.begin(secSegment)
		view := &views[v]
		w.uvarint(uint64(view.Live()))
		for c := range view.Cols {
			w.column(&view.Cols[c], view)
		}
		if err := w.end(); err != nil {
			return err
		}
	}
	return nil
}

// column writes one run's live cells.
func (w *ckptWriter) column(run *ColRun, view *ColSeg) {
	n := view.Live()
	off := func(k int) int {
		if view.Sel != nil {
			return int(view.Sel[k])
		}
		return k
	}
	for k := 0; k < n; k++ {
		w.b = value.AppendBinary(w.b, run.Vals[off(k)])
	}
	w.names = w.names[:0]
	if run.Tags != nil {
		for k := 0; k < n; k++ {
			for _, t := range run.Tags[off(k)].Tags() {
				if !slices.Contains(w.names, t.Indicator) {
					w.names = append(w.names, t.Indicator)
				}
			}
		}
		slices.Sort(w.names)
	}
	w.uvarint(uint64(len(w.names)))
	for _, name := range w.names {
		w.b = appendDictStr(w.b, &w.dict, name)
	}
	for _, name := range w.names {
		w.present(n, func(k int) bool {
			v, ok := run.Tags[off(k)].Get(name)
			if ok {
				w.vals = appendTagValue(w.vals, &w.dict, v)
			}
			return ok
		})
	}
	w.present(n, func(k int) bool {
		if run.Srcs == nil || len(run.Srcs[off(k)]) == 0 {
			return false
		}
		srcs := run.Srcs[off(k)]
		w.vals = binary.AppendUvarint(w.vals, uint64(len(srcs)))
		for _, s := range srcs {
			w.vals = appendDictStr(w.vals, &w.dict, s)
		}
		return true
	})
	w.present(n, func(k int) bool {
		if run.Meta == nil || len(run.Meta[off(k)]) == 0 {
			return false
		}
		meta := run.Meta[off(k)]
		w.vals = binary.AppendUvarint(w.vals, uint64(len(meta)))
		for _, ind := range slices.Sorted(maps.Keys(meta)) {
			w.vals = appendDictStr(w.vals, &w.dict, ind)
			w.vals = appendTagSet(w.vals, &w.dict, meta[ind])
		}
		return true
	})
}

// present writes a presence over n rows and then the values has appended
// to w.vals for the rows it reported present. The dictionary codes in
// those values stay valid: has runs in row order, and the presence carries
// no strings.
func (w *ckptWriter) present(n int, has func(k int) bool) {
	w.vals = w.vals[:0]
	w.pres = append(w.pres[:0], make([]byte, (n+7)/8)...)
	count := 0
	for k := 0; k < n; k++ {
		if has(k) {
			w.pres[k/8] |= 1 << (k % 8)
			count++
		}
	}
	switch count {
	case 0:
		w.b = append(w.b, presentNone)
	case n:
		w.b = append(w.b, presentAll)
	default:
		w.b = append(w.b, presentBitmap)
		w.b = append(w.b, w.pres...)
	}
	w.b = append(w.b, w.vals...)
}

// errShortCheckpoint reports a section or a field cut short.
var errShortCheckpoint = errors.New("truncated")

// LoadCheckpoint reads a catalog written by WriteCheckpoint. It hands
// every row to the rowLoader LoadCatalog uses, so rows are checked
// against their schema, dead slots are put back so every row keeps its
// ID, and each table's key and indexes are built once after its rows,
// refusing a duplicate key.
// Any damage — a bad checksum, a section or file cut short, an unknown
// kind, a row of the wrong arity, bytes after the end — is an error, and
// no partly loaded catalog is returned.
func LoadCheckpoint(data []byte) (*Catalog, error) {
	cat, err := loadCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("storage: checkpoint: %w", err)
	}
	return cat, nil
}

func loadCheckpoint(data []byte) (*Catalog, error) {
	bodies, err := checkpointSections(data)
	if err != nil {
		return nil, err
	}
	l := ckptLoader{cat: NewCatalog()}
	for i, body := range bodies {
		r := secReader{b: body[1:]}
		var err error
		switch body[0] {
		case secTable:
			err = l.table(&r)
		case secSegment:
			err = l.segment(&r)
		case secEnd:
			err = l.end(&r, i)
		default:
			err = fmt.Errorf("unknown kind 0x%02x", body[0])
		}
		if err == nil {
			err = r.err
		}
		if err == nil && len(r.b) > 0 {
			err = fmt.Errorf("%d bytes left over", len(r.b))
		}
		if err != nil {
			return nil, fmt.Errorf("section %d: %w", i, err)
		}
	}
	return l.cat, nil
}

// checkpointSections checks data's framing — the magic and version, every
// section's length and checksum, and an end section last — and returns
// the section bodies. Damage anywhere in the file is therefore found
// before the first row loads.
func checkpointSections(data []byte) ([][]byte, error) {
	if !IsCheckpoint(data) {
		return nil, errors.New("not a binary checkpoint")
	}
	data = data[len(checkpointMagic):]
	if len(data) == 0 {
		return nil, errShortCheckpoint
	}
	if data[0] != checkpointVersion {
		return nil, fmt.Errorf("unsupported version %d", data[0])
	}
	data = data[1:]
	var bodies [][]byte
	for len(data) > 0 {
		i := len(bodies)
		if i > 0 && bodies[i-1][0] == secEnd {
			return nil, fmt.Errorf("%d bytes after the end", len(data))
		}
		if len(data) < sectionHeader {
			return nil, fmt.Errorf("section %d: %w", i, errShortCheckpoint)
		}
		n := binary.LittleEndian.Uint32(data[0:4])
		if n == 0 || uint64(n) > uint64(len(data)-sectionHeader) {
			return nil, fmt.Errorf("section %d: length %d: %w", i, n, errShortCheckpoint)
		}
		body := data[sectionHeader : sectionHeader+int(n)]
		if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[4:8]) {
			return nil, fmt.Errorf("section %d: checksum mismatch", i)
		}
		bodies = append(bodies, body)
		data = data[sectionHeader+int(n):]
	}
	if len(bodies) == 0 || bodies[len(bodies)-1][0] != secEnd {
		return nil, fmt.Errorf("no end section: %w", errShortCheckpoint)
	}
	return bodies, nil
}

// ckptLoader builds the catalog section by section.
type ckptLoader struct {
	cat    *Catalog
	tables int
	tbl    *Table // the table whose segments are loading, if any
	rl     rowLoader
	slots  int // tbl's saved slot count
	dead   int // tbl's saved dead slots
	rows   int // rows loaded into tbl
	segs   int // tbl's segment sections still to come
	cells  []relation.Cell
}

func (l *ckptLoader) table(r *secReader) error {
	if err := l.closeTable(); err != nil {
		return err
	}
	sc, strict := r.schema()
	if r.err != nil {
		return r.err
	}
	tags := make([]tag.Tag, r.count(2))
	for i := range tags {
		tags[i] = tag.Tag{Indicator: r.str(), Value: r.value()}
	}
	ts, ok := tag.SortedSet(tags)
	if !ok {
		return fmt.Errorf("table %s: table tags out of order", sc.Name)
	}
	indexes := make([]jsonIndex, r.count(3))
	for i := range indexes {
		indexes[i] = jsonIndex{Attr: r.str(), Indicator: r.str(), Kind: r.str()}
	}
	slots := r.count(0)
	dead := make([]RowID, r.count(1))
	for i := range dead {
		dead[i] = RowID(r.uvarint())
	}
	segs := r.count(0)
	if r.err != nil {
		return r.err
	}
	tbl, err := createTable(l.cat, sc, strict, ts, indexes)
	if err != nil {
		return err
	}
	l.tables++
	l.tbl, l.rl = tbl, rowLoader{tbl: tbl, dead: dead}
	l.slots, l.dead, l.rows, l.segs = slots, len(dead), 0, segs
	return nil
}

// closeTable checks that the loading table got all its segments and its
// saved slot count, places its trailing dead slots and builds its keys.
// A duplicate key is reported in the section that closes the table.
func (l *ckptLoader) closeTable() error {
	if l.tbl == nil {
		return nil
	}
	name := l.tbl.Schema().Name
	if l.segs > 0 {
		return fmt.Errorf("table %s: %d segments missing", name, l.segs)
	}
	if l.slots != l.rows+l.dead {
		return fmt.Errorf("table %s: %d slots, but %d rows and %d dead", name, l.slots, l.rows, l.dead)
	}
	if row, err := l.rl.finish(); row >= 0 {
		return fmt.Errorf("table %s row %d: %w", name, row, err)
	} else if err != nil {
		return fmt.Errorf("table %s: %w", name, err)
	}
	l.tbl = nil
	return nil
}

func (l *ckptLoader) segment(r *secReader) error {
	if l.tbl == nil || l.segs == 0 {
		return errors.New("segment outside a table")
	}
	l.segs--
	sc := l.tbl.Schema()
	width := len(sc.Attrs)
	n := r.count(width)
	if n > SegmentSize {
		return fmt.Errorf("table %s: %d rows in one segment", sc.Name, n)
	}
	l.cells = slices.Grow(l.cells[:0], n*width)[:n*width]
	clear(l.cells)
	for c := 0; c < width; c++ {
		r.column(l.cells, c, width, n)
	}
	if r.err != nil {
		return fmt.Errorf("table %s: %w", sc.Name, r.err)
	}
	for k := 0; k < n; k++ {
		if err := l.rl.insert(l.cells[k*width:(k+1)*width], n-k); err != nil {
			return fmt.Errorf("table %s row %d: %w", sc.Name, l.rows, err)
		}
		l.rows++
	}
	return nil
}

func (l *ckptLoader) end(r *secReader, section int) error {
	if err := l.closeTable(); err != nil {
		return err
	}
	tables, sections := r.uvarint(), r.uvarint()
	if r.err == nil && (tables != uint64(l.tables) || sections != uint64(section)) {
		return fmt.Errorf("the end counts %d tables and %d sections, the file holds %d and %d",
			tables, sections, l.tables, section)
	}
	return nil
}

// secReader reads one section body. Its first error sticks: it empties
// the body, so every later read fails too and returns a zero value.
type secReader struct {
	b    []byte
	err  error
	dict []string // the section's strings, by code
	ents []rowTag // scratch: one column's tags in indicator order
	// tags and srcs back the tag sets and source lists read.
	tags slab[tag.Tag]
	srcs slab[string]
}

// rowTag is a tag of the cell in row k of a column run.
type rowTag struct {
	k int
	t tag.Tag
}

func (r *secReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

func (r *secReader) uvarint() uint64 {
	x, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail(errShortCheckpoint)
		return 0
	}
	r.b = r.b[n:]
	return x
}

// count reads the number of the items that follow, each at least size
// bytes long, refusing a count the rest of the section cannot hold.
func (r *secReader) count(size int) int {
	x := r.uvarint()
	if x > math.MaxInt32 || (size > 0 && x > uint64(len(r.b)/size)) {
		r.fail(errShortCheckpoint)
		return 0
	}
	return int(x)
}

func (r *secReader) bytes(n int) []byte {
	if n > len(r.b) {
		r.fail(errShortCheckpoint)
		return nil
	}
	b := r.b[:n]
	r.b = r.b[n:]
	return b
}

func (r *secReader) str() string { return string(r.bytes(r.count(1))) }

func (r *secReader) kind() value.Kind {
	b := r.bytes(1)
	if len(b) == 0 {
		return value.KindNull
	}
	if k := value.Kind(b[0]); k <= value.KindDuration {
		return k
	}
	r.fail(fmt.Errorf("unknown kind 0x%02x", b[0]))
	return value.KindNull
}

func (r *secReader) flag() bool {
	b := r.bytes(1)
	if len(b) > 0 && b[0] > 1 {
		r.fail(fmt.Errorf("flag 0x%02x", b[0]))
	}
	return len(b) > 0 && b[0] == 1
}

// schema reads a table definition and its strictness.
func (r *secReader) schema() (*schema.Schema, bool) {
	name, doc := r.str(), r.str()
	attrs := make([]schema.Attr, r.count(4))
	for i := range attrs {
		attrs[i] = schema.Attr{Name: r.str(), Kind: r.kind(), Required: r.flag(), Doc: r.str()}
		inds := make([]tag.Indicator, r.count(3))
		for j := range inds {
			inds[j] = tag.Indicator{Name: r.str(), Kind: r.kind(), Doc: r.str()}
		}
		if len(inds) > 0 {
			attrs[i].Indicators = inds
		}
	}
	var key []string
	for i, n := 0, r.count(1); i < n; i++ {
		key = append(key, r.str())
	}
	strict := r.flag()
	if r.err != nil {
		return nil, false
	}
	sc, err := schema.New(name, attrs, key...)
	if err != nil {
		r.fail(err)
		return nil, false
	}
	sc.Doc = doc
	return sc, strict
}

func (r *secReader) value() value.Value {
	v, rest, err := value.ReadBinary(r.b)
	if err != nil {
		r.fail(err)
		return value.Null
	}
	r.b = rest
	return v
}

// dstr reads a string through the section's dictionary.
func (r *secReader) dstr() string {
	code := r.uvarint()
	if code == 0 {
		s := r.str()
		if r.err == nil {
			r.dict = append(r.dict, s)
		}
		return s
	}
	if code > uint64(len(r.dict)) {
		r.fail(fmt.Errorf("string code %d of %d", code, len(r.dict)))
		return ""
	}
	return r.dict[code-1]
}

func (r *secReader) tagValue() value.Value {
	if len(r.b) > 0 && value.Kind(r.b[0]) == value.KindString {
		r.b = r.b[1:]
		return value.Str(r.dstr())
	}
	return r.value()
}

// tagSet reads a set of n tags in ascending name order.
func (r *secReader) tagSet(n int) tag.Set {
	tags := r.tags.take(n)
	for i := range tags {
		tags[i] = tag.Tag{Indicator: r.dstr(), Value: r.tagValue()}
	}
	s, ok := tag.SortedSet(tags)
	if !ok {
		r.fail(errors.New("tags out of order"))
	}
	return s
}

// present reads a presence over n rows and calls fn, in row order, for
// every row it marks. Its cost follows its bytes: a bitmap is walked a
// byte at a time, and zero bytes are skipped.
func (r *secReader) present(n int, fn func(k int)) {
	if len(r.b) == 0 {
		r.fail(errShortCheckpoint)
		return
	}
	mode := r.b[0]
	r.b = r.b[1:]
	switch mode {
	case presentNone:
	case presentAll:
		for k := 0; k < n && r.err == nil; k++ {
			fn(k)
		}
	case presentBitmap:
		bits := r.bytes((n + 7) / 8)
		for i, b := range bits {
			for ; b != 0 && r.err == nil; b &= b - 1 {
				if k := i*8 + mathbits.TrailingZeros8(b); k < n {
					fn(k)
				}
			}
		}
	default:
		r.fail(fmt.Errorf("unknown presence 0x%02x", mode))
	}
}

// column reads column c of n rows into cells, row k's at cells[k*width+c].
func (r *secReader) column(cells []relation.Cell, c, width, n int) {
	cells = cells[min(c, len(cells)):]
	for k := 0; k < n; k++ {
		cells[k*width].V = r.value()
	}
	names := make([]string, r.count(2))
	for i := range names {
		names[i] = r.dstr()
		if i > 0 && names[i] <= names[i-1] {
			r.fail(errors.New("indicators out of order"))
		}
	}
	r.ents = r.ents[:0]
	for _, name := range names {
		r.present(n, func(k int) {
			r.ents = append(r.ents, rowTag{k, tag.Tag{Indicator: name, Value: r.tagValue()}})
		})
	}
	r.groupTags(cells, width, n)
	r.present(n, func(k int) {
		srcs := r.srcs.take(r.count(1))
		for i := range srcs {
			srcs[i] = r.dstr()
		}
		cells[k*width].Sources = srcs
		for i := 1; i < len(srcs); i++ {
			if srcs[i-1] >= srcs[i] {
				cells[k*width].Sources = tag.NewSources(srcs...)
				break
			}
		}
	})
	r.present(n, func(k int) {
		m := r.count(2)
		meta := make(map[string]tag.Set, m)
		prev := ""
		for i := 0; i < m && r.err == nil; i++ {
			ind := r.dstr()
			if i > 0 && ind <= prev {
				r.fail(errors.New("meta indicators out of order"))
			}
			meta[ind], prev = r.tagSet(r.count(2)), ind
		}
		cells[k*width].Meta = meta
	})
}

// groupTags turns r.ents, each row's tags in ascending name order, into
// the cells' tag sets. A counting sort by row keeps each row's order, and
// every set shares one backing array.
func (r *secReader) groupTags(cells []relation.Cell, width, n int) {
	if len(r.ents) == 0 || r.err != nil {
		return
	}
	start := make([]int, n+1)
	for _, e := range r.ents {
		start[e.k+1]++
	}
	for k := 0; k < n; k++ {
		start[k+1] += start[k]
	}
	all := make([]tag.Tag, len(r.ents))
	next := slices.Clone(start[:n])
	for _, e := range r.ents {
		all[next[e.k]] = e.t
		next[e.k]++
	}
	for k := 0; k < n; k++ {
		if lo, hi := start[k], start[k+1]; lo < hi {
			cells[k*width].Tags, _ = tag.SortedSet(all[lo:hi:hi])
		}
	}
}

// slab hands out small slices carved from shared chunks, so a section's
// many tag sets and source lists cost an allocation per chunk rather than
// one each. Each slice is capped at its length: appending to it
// reallocates instead of overwriting a neighbour.
type slab[T any] []T

// slabLen is the element count of a slab chunk.
const slabLen = 256

func (s *slab[T]) take(n int) []T {
	if cap(*s)-len(*s) < n {
		*s = make([]T, 0, max(slabLen, n))
	}
	m := len(*s)
	*s = (*s)[:m+n]
	return (*s)[m : m+n : m+n]
}
