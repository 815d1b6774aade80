package storage

import (
	"io"
	"sort"
	"strconv"
	"time"
	"unicode/utf8"

	"repro/internal/schema"
	"repro/internal/tag"
	"repro/internal/value"
)

// snapWriter streams a catalog snapshot as indented JSON. Its output is
// byte for byte what encoding/json's Encoder, with SetIndent("", " ") and
// its default HTML-safe escaping, writes for the equivalent jsonCatalog
// document (the json* types in persist.go): the same field order and
// omitempty rules, sorted map keys, a closing newline. It appends straight
// from the tables' column runs, so a checkpoint builds no per-cell structs
// or maps, reflects over nothing and never re-scans its output to indent
// it; the buffer is written out in chunks as rows are encoded.
type snapWriter struct {
	w     io.Writer
	b     []byte
	err   error
	depth int
	// first is true while the innermost open object or array has no
	// element yet, so closing it writes {} or [] on one line.
	first bool
	keys  []string // scratch: one cell's meta indicators, sorted
}

// snapFlushBytes is the buffered output size at which snapWriter writes a
// chunk to its destination.
const snapFlushBytes = 64 << 10

// indentSpaces serves the indentation after a newline, one space per
// level. The catalog format nests at most nine levels deep (a meta tag's
// value inside a cell inside a row inside a table).
const indentSpaces = "                "

func (w *snapWriter) newline() {
	w.b = append(w.b, '\n')
	w.b = append(w.b, indentSpaces[:w.depth]...)
}

// open starts an object or array.
func (w *snapWriter) open(c byte) {
	w.b = append(w.b, c)
	w.depth++
	w.first = true
}

// close ends the innermost object or array. Its parent necessarily holds
// at least this element afterwards, so no stack of first flags is needed.
func (w *snapWriter) close(c byte) {
	w.depth--
	if !w.first {
		w.newline()
	}
	w.b = append(w.b, c)
	w.first = false
}

// elem starts the next element of the innermost container.
func (w *snapWriter) elem() {
	if !w.first {
		w.b = append(w.b, ',')
	}
	w.newline()
	w.first = false
}

// field starts an object member; key is the quoted name with its colon
// and space, e.g. `"name": `.
func (w *snapWriter) field(key string) {
	w.elem()
	w.b = append(w.b, key...)
}

// mapKey starts an object member whose name is data.
func (w *snapWriter) mapKey(k string) {
	w.elem()
	w.b = appendJSONString(w.b, k)
	w.b = append(w.b, ':', ' ')
}

func (w *snapWriter) str(s string) { w.b = appendJSONString(w.b, s) }

func (w *snapWriter) strs(ss []string) {
	w.open('[')
	for _, s := range ss {
		w.elem()
		w.str(s)
	}
	w.close(']')
}

// flush writes the buffered bytes out once they pass snapFlushBytes, or
// always when force is set.
func (w *snapWriter) flush(force bool) {
	if w.err != nil || (!force && len(w.b) < snapFlushBytes) {
		return
	}
	_, w.err = w.w.Write(w.b)
	w.b = w.b[:0]
}

// value writes v as {"k": kind, "v": text}: text is value.String(),
// except that times keep nanoseconds (RFC3339Nano), and an empty text —
// only the empty string has one — is omitted.
func (w *snapWriter) value(v value.Value) {
	w.open('{')
	w.field(`"k": `)
	w.str(v.Kind().String())
	switch v.Kind() {
	case value.KindString:
		if s := v.AsString(); s != "" {
			w.field(`"v": `)
			w.str(s)
		}
	case value.KindInt:
		w.field(`"v": "`)
		w.b = append(strconv.AppendInt(w.b, v.AsInt(), 10), '"')
	case value.KindFloat:
		w.field(`"v": "`)
		w.b = append(strconv.AppendFloat(w.b, v.AsFloat(), 'g', -1, 64), '"')
	case value.KindTime:
		w.field(`"v": "`)
		w.b = append(v.AsTime().AppendFormat(w.b, time.RFC3339Nano), '"')
	default:
		w.field(`"v": `)
		w.str(v.String())
	}
	w.close('}')
}

// tagSet writes a tag set as an object keyed by indicator (a Set is kept
// sorted by name, the order encoding/json gives map keys), or null when
// it is empty.
func (w *snapWriter) tagSet(s tag.Set) {
	if s.IsEmpty() {
		w.b = append(w.b, "null"...)
		return
	}
	w.open('{')
	for _, t := range s.Tags() {
		w.mapKey(t.Indicator)
		w.value(t.Value)
	}
	w.close('}')
}

// cell writes slot off of run as {"v", "t", "s", "m"}, the last three
// omitted when empty.
func (w *snapWriter) cell(run *ColRun, off int) {
	w.elem()
	w.open('{')
	w.field(`"v": `)
	w.value(run.Vals[off])
	if run.Tags != nil && !run.Tags[off].IsEmpty() {
		w.field(`"t": `)
		w.tagSet(run.Tags[off])
	}
	if run.Srcs != nil && len(run.Srcs[off]) > 0 {
		w.field(`"s": `)
		w.strs(run.Srcs[off])
	}
	if run.Meta != nil && len(run.Meta[off]) > 0 {
		meta := run.Meta[off]
		w.keys = w.keys[:0]
		for ind := range meta {
			w.keys = append(w.keys, ind)
		}
		sort.Strings(w.keys)
		w.field(`"m": `)
		w.open('{')
		for _, ind := range w.keys {
			w.mapKey(ind)
			w.tagSet(meta[ind])
		}
		w.close('}')
	}
	w.close('}')
}

func (w *snapWriter) attrs(sc *schema.Schema) {
	w.open('[')
	for _, a := range sc.Attrs {
		w.elem()
		w.open('{')
		w.field(`"name": `)
		w.str(a.Name)
		w.field(`"kind": `)
		w.str(a.Kind.String())
		if a.Required {
			w.field(`"required": true`)
		}
		if len(a.Indicators) > 0 {
			w.field(`"indicators": `)
			w.open('[')
			for _, ind := range a.Indicators {
				w.elem()
				w.open('{')
				w.field(`"name": `)
				w.str(ind.Name)
				w.field(`"kind": `)
				w.str(ind.Kind.String())
				if ind.Doc != "" {
					w.field(`"doc": `)
					w.str(ind.Doc)
				}
				w.close('}')
			}
			w.close(']')
		}
		if a.Doc != "" {
			w.field(`"doc": `)
			w.str(a.Doc)
		}
		w.close('}')
	}
	w.close(']')
}

// table writes one table: its definition, then its rows from a single
// SnapshotCols capture. One capture rather than per-segment views, because
// a concurrent writer could otherwise make a saved file contain a state
// (e.g. a deleted-and-reinserted key twice) no table ever had.
func (w *snapWriter) table(name string, tbl *Table) {
	sc := tbl.Schema()
	w.elem()
	w.open('{')
	w.field(`"name": `)
	w.str(name)
	if sc.Doc != "" {
		w.field(`"doc": `)
		w.str(sc.Doc)
	}
	w.field(`"attrs": `)
	w.attrs(sc)
	if len(sc.Key) > 0 {
		w.field(`"key": `)
		w.strs(sc.Key)
	}
	if tbl.Strict() {
		w.field(`"strict": true`)
	}
	if tt := tbl.TableTags(); !tt.IsEmpty() {
		w.field(`"table_tags": `)
		w.tagSet(tt)
	}
	if specs := tbl.IndexSpecs(); len(specs) > 0 {
		w.field(`"indexes": `)
		w.open('[')
		for _, ix := range specs {
			w.elem()
			w.open('{')
			w.field(`"attr": `)
			w.str(ix.Target.Attr)
			if ix.Target.Indicator != "" {
				w.field(`"indicator": `)
				w.str(ix.Target.Indicator)
			}
			if ix.Kind == IndexHash {
				w.field(`"kind": "hash"`)
			} else {
				w.field(`"kind": "btree"`)
			}
			w.close('}')
		}
		w.close(']')
	}

	views := tbl.SnapshotCols(sc.ColIndexes())
	// The slot count and dead list precede the rows in the file.
	live, dead := 0, 0
	for v := range views {
		live += views[v].Live()
		dead += views[v].N - views[v].Live()
	}
	if dead > 0 {
		w.field(`"slots": `)
		w.b = strconv.AppendInt(w.b, int64(live+dead), 10)
		w.field(`"dead": `)
		w.open('[')
		for v := range views {
			view := &views[v]
			if view.Sel == nil {
				continue
			}
			// Dead slots are the gaps between live offsets, and after
			// the last one.
			next := 0
			for k := 0; k <= len(view.Sel); k++ {
				end := view.N
				if k < len(view.Sel) {
					end = int(view.Sel[k])
				}
				for ; next < end; next++ {
					w.elem()
					w.b = strconv.AppendInt(w.b, int64(view.Base)+int64(next), 10)
				}
				next++
			}
		}
		w.close(']')
	}

	w.field(`"rows": `)
	w.open('[')
	for v := range views {
		view := &views[v]
		for k := 0; k < view.Live(); k++ {
			off := k
			if view.Sel != nil {
				off = int(view.Sel[k])
			}
			w.elem()
			w.open('[')
			for c := range view.Cols {
				w.cell(&view.Cols[c], off)
			}
			w.close(']')
			if w.flush(false); w.err != nil {
				return
			}
		}
	}
	w.close(']')
	w.close('}')
}

// jsonSafe marks the ASCII bytes encoding/json copies into a string
// unescaped with HTML escaping on: printable characters other than
// ", \, <, > and &.
var jsonSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		safe[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return safe
}()

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string, escaped exactly as
// encoding/json escapes it by default: short escapes for \ " \b \f \n \r
// \t, \u00XX for other control bytes and for < > &, \ufffd for each
// invalid UTF-8 byte, and \u2028/\u2029 for the line and paragraph
// separators.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
