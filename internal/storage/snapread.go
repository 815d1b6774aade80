package storage

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"slices"
	"strconv"
	"time"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/relation"
	"repro/internal/tag"
	"repro/internal/value"
)

// snapReader decodes a catalog snapshot in the layout Save writes, in one
// pass over its bytes: it checks the syntax and builds each row's cells as
// it goes, with no jsonCell, no map per tag set and no reflection, and
// hands every row to Table.Insert like the encoding/json path does.
//
// It accepts a subset of what encoding/json accepts and, for that subset,
// builds the same catalog: any whitespace, but members in Save's order
// under exactly Save's names, each at most once; every string escape but
// UTF-16 surrogates; and value text that the first parser value.Parse
// tries for its kind accepts. At anything else it gives up (see
// readSnapshot) instead of reporting an error, so the errors and the rest
// of encoding/json's acceptance set stay encoding/json's.
type snapReader struct {
	b []byte
	i int
	// str holds the current string when it has escapes to resolve;
	// otherwise strings are read in place.
	str   []byte
	tags  []tag.Tag         // scratch: the tag object being read
	srcs  []string          // scratch: the source list being read
	cells []relation.Cell   // scratch: the row being read; Insert copies it
	names map[string]string // see interned
	// tagSlab and srcSlab back the tag sets and source lists read.
	tagSlab slab[tag.Tag]
	srcSlab slab[string]
}

// slab hands out copies of small slices carved from shared chunks, so a
// snapshot's many tag sets and source lists cost an allocation per chunk
// rather than one each. Each copy is capped at its length: appending to
// it reallocates instead of overwriting a neighbour.
type slab[T any] []T

// slabLen is the element count of a slab chunk.
const slabLen = 128

func (s *slab[T]) copy(src []T) []T {
	if cap(*s)-len(*s) < len(src) {
		*s = make([]T, 0, max(slabLen, len(src)))
	}
	n := len(*s)
	*s = append(*s, src...)
	return (*s)[n:len(*s):len(*s)]
}

// errNotSnapshot is the panic value with which snapReader abandons a
// document at its first departure from Save's layout.
var errNotSnapshot = errors.New("storage: not in the layout Save writes")

// readSnapshot decodes data with a snapReader. It reports false, and
// drops whatever it had built, if data departs from Save's layout or
// fails a check on the way (an unknown kind, a duplicate key, a row of
// the wrong arity); the caller then decodes data with encoding/json.
func readSnapshot(data []byte) (cat *Catalog, ok bool) {
	defer func() {
		if e := recover(); e != nil {
			if e != errNotSnapshot {
				panic(e)
			}
			cat, ok = nil, false
		}
	}()
	r := snapReader{b: data, names: make(map[string]string)}
	return r.catalog(), true
}

// fail abandons the document.
func (r *snapReader) fail() { panic(errNotSnapshot) }

// check abandons the document when err is not nil.
func (r *snapReader) check(err error) {
	if err != nil {
		r.fail()
	}
}

// ws skips JSON whitespace.
func (r *snapReader) ws() {
	for r.i < len(r.b) {
		switch r.b[r.i] {
		case ' ', '\t', '\r':
			r.i++
		case '\n':
			r.i++
			r.indent()
		default:
			return
		}
	}
}

// indent skips spaces eight bytes at a time. Save indents every line with
// a run of them, which makes up most of a snapshot's bytes.
func (r *snapReader) indent() {
	for len(r.b)-r.i >= 8 {
		if x := binary.LittleEndian.Uint64(r.b[r.i:]) ^ 0x2020202020202020; x != 0 {
			r.i += bits.TrailingZeros64(x) / 8
			return
		}
		r.i += 8
	}
}

// peek returns the next byte after whitespace, or 0 at the end.
func (r *snapReader) peek() byte {
	r.ws()
	if r.i == len(r.b) {
		return 0
	}
	return r.b[r.i]
}

// expect consumes the structural byte c after whitespace.
func (r *snapReader) expect(c byte) {
	if r.peek() != c {
		r.fail()
	}
	r.i++
}

// word consumes the literal s (true, null) after whitespace, if it is next.
func (r *snapReader) word(s string) bool {
	r.ws()
	if len(r.b)-r.i >= len(s) && string(r.b[r.i:r.i+len(s)]) == s {
		r.i += len(s)
		return true
	}
	return false
}

// more ends one element of a container closed by c: it consumes the comma
// and reports true if another element follows, or consumes c and reports
// false.
func (r *snapReader) more(c byte) bool {
	switch r.peek() {
	case ',':
		r.i++
		return true
	case c:
		r.i++
		return false
	}
	r.fail()
	return false
}

// open consumes the opening byte of a container and reports whether it
// has any element, consuming its closing byte when it has none.
func (r *snapReader) open(c, end byte) bool {
	r.expect(c)
	if r.peek() == end {
		r.i++
		return false
	}
	return true
}

// array reads an array, calling elem to read each element.
func (r *snapReader) array(elem func()) {
	if r.open('[', ']') {
		for {
			elem()
			if !r.more(']') {
				return
			}
		}
	}
}

// entries reads an object with arbitrary member names, or null, calling
// entry with each name to read its value.
func (r *snapReader) entries(entry func(name string)) {
	if r.word("null") || !r.open('{', '}') {
		return
	}
	for {
		name := r.interned()
		r.expect(':')
		entry(name)
		if !r.more('}') {
			return
		}
	}
}

// members walks an object's members in Save's order: name is the one
// the reader stands at, whose value comes next, and done is set once the
// object has closed.
type members struct {
	r    *snapReader
	name []byte
	done bool
}

// object opens an object that has at least one member and stands at it.
func (r *snapReader) object() members {
	if !r.open('{', '}') {
		r.fail()
	}
	return members{r: r, name: r.memberName()}
}

// is reports whether the reader stands at the member called name.
func (m *members) is(name string) bool { return !m.done && string(m.name) == name }

// need requires the reader to stand at the member called name.
func (m *members) need(name string) {
	if !m.is(name) {
		m.r.fail()
	}
}

// next moves past the value just read to the following member, or closes
// the object.
func (m *members) next() {
	if m.r.more('}') {
		m.name = m.r.memberName()
	} else {
		m.done = true
	}
}

// end requires every member to have been read.
func (m *members) end() {
	if !m.done {
		m.r.fail()
	}
}

// memberName reads a member name with no escapes in it, which is how Save
// writes every fixed name, and the colon after it.
func (r *snapReader) memberName() []byte {
	r.expect('"')
	start := r.i
	for r.i < len(r.b) && r.b[r.i] != '"' {
		if c := r.b[r.i]; c == '\\' || c < ' ' || c >= utf8.RuneSelf {
			r.fail()
		}
		r.i++
	}
	if r.i == len(r.b) {
		r.fail()
	}
	name := r.b[start:r.i]
	r.i++
	r.expect(':')
	return name
}

// text reads a string and returns its decoded bytes, valid until the next
// read: a slice of the input when the string has no escapes.
func (r *snapReader) text() []byte {
	r.expect('"')
	start := r.i
	for r.i < len(r.b) {
		c := r.b[r.i]
		if c == '"' {
			r.i++
			return r.b[start : r.i-1]
		}
		if c == '\\' || c < ' ' || c >= utf8.RuneSelf {
			break
		}
		r.i++
	}
	r.str = append(r.str[:0], r.b[start:r.i]...)
	for r.i < len(r.b) {
		switch c := r.b[r.i]; {
		case c == '"':
			r.i++
			return r.str
		case c == '\\':
			r.escape()
		case c < ' ':
			r.fail()
		case c < utf8.RuneSelf:
			r.str = append(r.str, c)
			r.i++
		default:
			// Valid UTF-8 passes through. encoding/json would turn an
			// invalid byte into U+FFFD; Save writes that as an escape.
			ch, size := utf8.DecodeRune(r.b[r.i:])
			if ch == utf8.RuneError && size == 1 {
				r.fail()
			}
			r.str = append(r.str, r.b[r.i:r.i+size]...)
			r.i += size
		}
	}
	r.fail()
	return nil
}

// escape decodes the escape sequence at the reader into r.str.
func (r *snapReader) escape() {
	if r.i+1 >= len(r.b) {
		r.fail()
	}
	c := r.b[r.i+1]
	r.i += 2
	switch c {
	case '"', '\\', '/':
		r.str = append(r.str, c)
	case 'b':
		r.str = append(r.str, '\b')
	case 'f':
		r.str = append(r.str, '\f')
	case 'n':
		r.str = append(r.str, '\n')
	case 'r':
		r.str = append(r.str, '\r')
	case 't':
		r.str = append(r.str, '\t')
	case 'u':
		if len(r.b)-r.i < 4 {
			r.fail()
		}
		n, err := strconv.ParseUint(string(r.b[r.i:r.i+4]), 16, 16)
		r.check(err)
		r.i += 4
		// Save never writes a surrogate; pairs, and the U+FFFD that
		// encoding/json puts for a lone one, are left to it.
		if utf16.IsSurrogate(rune(n)) {
			r.fail()
		}
		r.str = utf8.AppendRune(r.str, rune(n))
	default:
		r.fail()
	}
}

// string reads a string into a new Go string.
func (r *snapReader) string() string { return string(r.text()) }

// internMax bounds the strings a snapReader shares; see interned.
const internMax = 4096

// interned reads a string, sharing one copy of each distinct value.
// Indicator names, string tag values and source names repeat cell after
// cell, so each is allocated once rather than per cell; the table stops
// growing at internMax entries, or for long strings.
func (r *snapReader) interned() string {
	b := r.text()
	if s, ok := r.names[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(r.names) < internMax && len(s) <= 64 {
		r.names[s] = s
	}
	return s
}

// strings reads an array of strings into r.srcs.
func (r *snapReader) strings() []string {
	r.srcs = r.srcs[:0]
	r.array(func() { r.srcs = append(r.srcs, r.interned()) })
	return r.srcs
}

// flag reads the true that Save writes for a set boolean member.
func (r *snapReader) flag() bool {
	if !r.word("true") {
		r.fail()
	}
	return true
}

// uint reads a non-negative JSON integer of at most 15 digits.
func (r *snapReader) uint() int64 {
	r.ws()
	start := r.i
	var n int64
	for r.i < len(r.b) && '0' <= r.b[r.i] && r.b[r.i] <= '9' {
		n = n*10 + int64(r.b[r.i]-'0')
		r.i++
	}
	if d := r.i - start; d == 0 || d > 15 || (d > 1 && r.b[start] == '0') {
		r.fail()
	}
	return n
}

// kind reads a kind name as Save writes it.
func (r *snapReader) kind() value.Kind {
	switch string(r.text()) {
	case "null":
		return value.KindNull
	case "bool":
		return value.KindBool
	case "int":
		return value.KindInt
	case "float":
		return value.KindFloat
	case "string":
		return value.KindString
	case "time":
		return value.KindTime
	case "duration":
		return value.KindDuration
	}
	r.fail()
	return value.KindNull
}

// value reads a {"k", "v"} value object. A string value is interned when
// intern is set. Text the first parser value.Parse tries for its kind
// rejects abandons the document.
func (r *snapReader) value(intern bool) value.Value {
	m := r.object()
	m.need("k")
	k := r.kind()
	m.next()
	if !m.is("v") {
		// Save omits only empty text, which null and the empty string
		// have; value.Parse refuses it for every other kind.
		if m.end(); k != value.KindNull && k != value.KindString {
			r.fail()
		}
		if k == value.KindNull {
			return value.Null
		}
		return value.Str("")
	}
	var v value.Value
	switch k {
	case value.KindNull:
		r.text() // a null's text is not read back
	case value.KindString:
		if intern {
			v = value.Str(r.interned())
		} else {
			v = value.Str(r.string())
		}
	case value.KindBool:
		b, err := strconv.ParseBool(string(r.text()))
		r.check(err)
		v = value.Bool(b)
	case value.KindInt:
		n, err := strconv.ParseInt(string(r.text()), 10, 64)
		r.check(err)
		v = value.Int(n)
	case value.KindFloat:
		f, err := strconv.ParseFloat(string(r.text()), 64)
		r.check(err)
		v = value.Float(f)
	case value.KindTime:
		t, err := time.Parse(time.RFC3339Nano, string(r.text()))
		r.check(err)
		v = value.Time(t)
	case value.KindDuration:
		d, err := time.ParseDuration(string(r.text()))
		r.check(err)
		v = value.Duration(d)
	}
	m.next()
	m.end()
	return v
}

// tagSet reads a tag object, or null, into a set.
func (r *snapReader) tagSet() tag.Set {
	r.tags = r.tags[:0]
	r.entries(func(ind string) {
		r.tags = append(r.tags, tag.Tag{Indicator: ind, Value: r.value(true)})
	})
	if len(r.tags) == 0 {
		return tag.EmptySet
	}
	if s, ok := tag.SortedSet(r.tagSlab.copy(r.tags)); ok {
		return s
	}
	// Names out of order: Save sorts a set by its names as stored, so
	// they can arrive out of order once escaping has turned invalid
	// UTF-8 in them into U+FFFD. NewSet sorts, and keeps the last of
	// duplicate names like the map encoding/json would decode.
	return tag.NewSet(r.tags...)
}

// cell reads one {"v", "t", "s", "m"} cell.
func (r *snapReader) cell() relation.Cell {
	m := r.object()
	m.need("v")
	c := relation.Cell{V: r.value(false)}
	m.next()
	if m.is("t") {
		c.Tags = r.tagSet()
		m.next()
	}
	if m.is("s") {
		switch srcs := r.strings(); {
		case len(srcs) == 0:
		case strictlyAscending(srcs):
			c.Sources = r.srcSlab.copy(srcs)
		default:
			c.Sources = tag.NewSources(srcs...)
		}
		m.next()
	}
	if m.is("m") {
		// Later duplicates win and empty tag sets record nothing, as in
		// the map encoding/json would decode.
		meta := make(map[string]tag.Set, 1)
		r.entries(func(ind string) {
			if s := r.tagSet(); s.IsEmpty() {
				delete(meta, ind)
			} else {
				meta[ind] = s
			}
		})
		if len(meta) > 0 {
			c.Meta = meta
		}
		m.next()
	}
	m.end()
	return c
}

// strictlyAscending reports whether s is sorted with no duplicates, as a
// tag.Sources is, so that NewSources would return it unchanged.
func strictlyAscending(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] >= s[i] {
			return false
		}
	}
	return true
}

// attrs reads a table's attribute list.
func (r *snapReader) attrs() []jsonAttr {
	var out []jsonAttr
	r.array(func() {
		m := r.object()
		m.need("name")
		ja := jsonAttr{Name: r.string()}
		m.next()
		m.need("kind")
		ja.Kind = r.string()
		m.next()
		if m.is("required") {
			ja.Required = r.flag()
			m.next()
		}
		if m.is("indicators") {
			r.array(func() {
				mi := r.object()
				mi.need("name")
				ind := jsonIndicator{Name: r.string()}
				mi.next()
				mi.need("kind")
				ind.Kind = r.string()
				mi.next()
				if mi.is("doc") {
					ind.Doc = r.string()
					mi.next()
				}
				mi.end()
				ja.Indicators = append(ja.Indicators, ind)
			})
			m.next()
		}
		if m.is("doc") {
			ja.Doc = r.string()
			m.next()
		}
		m.end()
		out = append(out, ja)
	})
	return out
}

// indexes reads a table's index list.
func (r *snapReader) indexes() []jsonIndex {
	var out []jsonIndex
	r.array(func() {
		m := r.object()
		m.need("attr")
		ji := jsonIndex{Attr: r.string()}
		m.next()
		if m.is("indicator") {
			ji.Indicator = r.string()
			m.next()
		}
		m.need("kind")
		ji.Kind = r.string()
		m.next()
		m.end()
		out = append(out, ji)
	})
	return out
}

// table reads one table and adds it to cat: its definition first, then
// its rows one at a time through a rowLoader.
func (r *snapReader) table(cat *Catalog) {
	var jt jsonTable
	ts := tag.EmptySet
	m := r.object()
	m.need("name")
	jt.Name = r.string()
	m.next()
	if m.is("doc") {
		jt.Doc = r.string()
		m.next()
	}
	m.need("attrs")
	jt.Attrs = r.attrs()
	m.next()
	if m.is("key") {
		jt.Key = slices.Clone(r.strings())
		m.next()
	}
	if m.is("strict") {
		jt.Strict = r.flag()
		m.next()
	}
	if m.is("table_tags") {
		ts = r.tagSet()
		m.next()
	}
	if m.is("indexes") {
		jt.Indexes = r.indexes()
		m.next()
	}
	if m.is("slots") {
		jt.Slots = int(r.uint())
		m.next()
	}
	if m.is("dead") {
		r.array(func() { jt.Dead = append(jt.Dead, RowID(r.uint())) })
		m.next()
	}
	m.need("rows")
	tbl, err := createTable(cat, &jt, ts)
	r.check(err)
	arity := len(tbl.Schema().Attrs)
	r.cells = slices.Grow(r.cells[:0], arity)[:arity]
	rl := rowLoader{tbl: tbl, dead: jt.Dead}
	rows := 0
	r.array(func() {
		n := 0
		r.array(func() {
			if n == arity {
				r.fail()
			}
			r.cells[n] = r.cell()
			n++
		})
		if n != arity {
			r.fail()
		}
		r.check(rl.insert(r.cells))
		rows++
	})
	m.next()
	m.end()
	if len(jt.Dead) > 0 && jt.Slots != rows+len(jt.Dead) {
		r.fail()
	}
	r.check(rl.finish())
}

// catalog reads the whole document, which only whitespace may follow.
func (r *snapReader) catalog() *Catalog {
	m := r.object()
	m.need("format")
	if string(r.text()) != formatName {
		r.fail()
	}
	m.next()
	m.need("tables")
	cat := NewCatalog()
	if !r.word("null") {
		r.array(func() { r.table(cat) })
	}
	m.next()
	m.end()
	if r.peek(); r.i != len(r.b) {
		r.fail()
	}
	return cat
}
