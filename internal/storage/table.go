package storage

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/tag"
	"repro/internal/value"
)

// SegmentSize is the number of row slots per heap segment. Row IDs map to
// (segment, offset) as id/SegmentSize, id%SegmentSize; a table's heap is a
// sequence of fixed-size segments so readers can take one segment's column
// view at a time under a short read lock and scans can fan segments out
// across cores.
const SegmentSize = 4096

// tupleClones counts protective row copies handed out of tables (Get,
// Scan) — materializations the caller may freely mutate and retain. It is
// process-wide instrumentation for tests and benchmarks asserting that
// query paths copy O(rows returned), not O(table); the column views
// (ScanSegmentCols, SnapshotCols, ViewRows) never bump it.
var tupleClones atomic.Int64

// TupleClones reports the process-wide count of tuples cloned out of
// tables; measure deltas around an operation.
func TupleClones() int64 { return tupleClones.Load() }

// IndexTarget names what an index is built over: an attribute's application
// values (Indicator == ""), or the values of one quality indicator tagged on
// that attribute (Indicator != ""). Indexing indicator values is what makes
// "retrieve data of specific quality" (paper §1.3) efficient at query time.
type IndexTarget struct {
	Attr      string
	Indicator string
}

// String renders "attr" or "attr@indicator".
func (t IndexTarget) String() string {
	if t.Indicator == "" {
		return t.Attr
	}
	return t.Attr + "@" + t.Indicator
}

// IndexKind selects the index structure.
type IndexKind uint8

const (
	// IndexHash supports equality lookups.
	IndexHash IndexKind = iota
	// IndexBTree supports equality and ordered range lookups.
	IndexBTree
)

type index struct {
	target IndexTarget
	kind   IndexKind
	col    int
	// keys is a hash index's key table: its own chains, or the primary
	// key's table when shared (see sharesKey).
	keys   *keyTable
	shared bool
	btree  *BTree
}

// sharesKey reports whether a hash index on target can be the primary
// key's own table. The two equalities must agree: the key's is the
// literal, the index's value.Equal. Every insert checks that a value is
// null or of the column's kind, or an int in a float column, so they agree
// on a one-column key of any kind but float, where Int(1000000) and
// Float(1e6) are Equal but print differently.
func (t *Table) sharesKey(target IndexTarget, kind IndexKind) bool {
	if kind != IndexHash || target.Indicator != "" || len(t.keyCols) != 1 {
		return false
	}
	a := t.schema.Attrs[t.keyCols[0]]
	return a.Name == target.Attr && a.Kind != value.KindFloat
}

// segment is one fixed-size run of the heap: up to SegmentSize row slots
// stored column-major (one colRun per attribute — see colseg.go) plus the
// slots' liveness bits.
type segment struct {
	cols  []colRun
	live  []bool
	n     int // row slots appended (live + dead)
	nDead int
}

// newSegment returns an empty segment. rows > 0 is the number of slots a
// load knows are coming, and sizes the runs for them up front.
func newSegment(width, rows int) *segment {
	if rows <= 0 {
		return &segment{cols: make([]colRun, width), live: make([]bool, 0, SegmentSize)}
	}
	rows = min(rows, SegmentSize)
	seg := &segment{cols: make([]colRun, width), live: make([]bool, 0, rows)}
	for j := range seg.cols {
		seg.cols[j].vals = make([]value.Value, 0, rows)
		seg.cols[j].nulls = make([]uint64, 0, (rows+63)/64)
	}
	return seg
}

// rowAt materializes slot off as a fresh row; the caller must hold t.mu.
func (s *segment) rowAt(off int) relation.Tuple {
	cells := make([]relation.Cell, len(s.cols))
	for j := range s.cols {
		cells[j] = s.cols[j].cell(off)
	}
	return relation.Tuple{Cells: cells}
}

// Table is a concurrent heap table with secondary indexes and primary-key
// enforcement. Row IDs are stable for the life of a row. The heap is a
// sequence of fixed-size segments (SegmentSize row slots each) stored as
// immutable column runs; readers capture column views of them under a
// short read lock (ScanSegmentCols, SnapshotCols), so a scan never holds
// the table lock while its caller processes rows.
type Table struct {
	mu     sync.RWMutex
	schema *schema.Schema
	segs   []*segment
	nRows  int // total row slots allocated (live + dead) = next RowID
	nLive  int
	strict bool
	// owner is the catalog the table was created in (nil for standalone
	// tables); in-place DDL (CreateIndex, SetTableTag) bumps the owner's
	// schema version so plan caches re-validate — wherever the mutation
	// came from, QQL or the storage API directly.
	owner *Catalog

	indexes []*index
	pk      *keyTable // the primary key's table, nil when the schema has no key
	keyCols []int
	// tableTags holds table-level quality indicators (the paper's §1.2:
	// tagging higher aggregations, e.g. the population method of the
	// whole table, which hints at its completeness).
	tableTags tag.Set
	// dataVer advances on every row mutation (insert, update, delete).
	// Monitoring collectors use it to skip recomputing derived statistics
	// (quality gauges) for tables whose contents have not changed.
	dataVer atomic.Uint64
}

// DataVersion reports a counter that advances on every row mutation. Equal
// versions imply identical contents since the last read; the converse does
// not hold.
func (t *Table) DataVersion() uint64 { return t.dataVer.Load() }

// NewTable creates a table over the schema. When strict is true, inserts
// enforce required attributes and required indicator tags.
func NewTable(s *schema.Schema, strict bool) *Table {
	t := &Table{schema: s, strict: strict}
	if len(s.Key) > 0 {
		t.pk = &keyTable{}
		t.keyCols = s.KeyIndexes()
	}
	return t
}

// Schema returns the table's schema.
func (t *Table) Schema() *schema.Schema { return t.schema }

// bumpOwner advances the owning catalog's schema version for this table;
// no-op for standalone tables. Callers must not hold t.mu (the bump takes
// the catalog lock; keeping the two disjoint avoids ever nesting them).
func (t *Table) bumpOwner() {
	if t.owner != nil {
		t.owner.Bump(t.schema.Name)
	}
}

// SetTableTag sets one table-level quality indicator. Table-level tags are
// DDL-adjacent metadata: the owning catalog's schema version advances so
// version-validated plans never outlive a re-tag.
func (t *Table) SetTableTag(indicator string, v value.Value) {
	t.mu.Lock()
	t.tableTags = t.tableTags.With(indicator, v)
	t.mu.Unlock()
	t.bumpOwner()
}

// TableTags returns the table-level quality indicator set.
func (t *Table) TableTags() tag.Set {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.tableTags
}

// Len reports the number of live rows.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.nLive
}

// Segments reports the number of heap segments. Segment indexes
// 0..Segments()-1 are valid arguments to ScanSegmentCols; rows with IDs in
// [i*SegmentSize, (i+1)*SegmentSize) live in segment i.
func (t *Table) Segments() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.segs)
}

// locate returns the slot for id; the caller must hold t.mu. ok is false
// for out-of-range or dead rows.
func (t *Table) locate(id RowID) (seg *segment, off int, ok bool) {
	if id < 0 || int(id) >= t.nRows {
		return nil, 0, false
	}
	seg = t.segs[int(id)/SegmentSize]
	off = int(id) % SegmentSize
	return seg, off, seg.live[off]
}

// appendLocked appends a row slot, copying the tuple's cells into the tail
// segment's column runs; the caller must hold t.mu for writing. rows sizes
// a new segment as newSegment does.
func (t *Table) appendLocked(tup relation.Tuple, rows int) RowID {
	if len(t.segs) == 0 || t.segs[len(t.segs)-1].n == SegmentSize {
		t.segs = append(t.segs, newSegment(len(t.schema.Attrs), rows))
	}
	seg := t.segs[len(t.segs)-1]
	for j := range seg.cols {
		seg.cols[j].appendCell(tup.Cells[j], seg.n)
	}
	seg.live = append(seg.live, true)
	seg.n++
	t.dataVer.Add(1)
	id := RowID(t.nRows)
	t.nRows++
	t.nLive++
	return id
}

// encodeKey renders a key as its joined literals, for the duplicate-key
// error.
func encodeKey(key []value.Value) string {
	var b strings.Builder
	for i, v := range key {
		if i > 0 {
			b.WriteByte(0)
		}
		b.WriteString(v.Literal())
	}
	return b.String()
}

// keyOf appends the primary key's values in cells to buf.
func (t *Table) keyOf(cells []relation.Cell, buf []value.Value) []value.Value {
	for _, c := range t.keyCols {
		buf = append(buf, cells[c].V)
	}
	return buf
}

// heapKey appends row id's primary key values to buf; the caller must
// hold t.mu.
func (t *Table) heapKey(id RowID, buf []value.Value) []value.Value {
	seg, off := t.segs[int(id)/SegmentSize], int(id)%SegmentSize
	for _, c := range t.keyCols {
		buf = append(buf, seg.cols[c].vals[off])
	}
	return buf
}

// hashKey combines the key values' hashes. A one-column key hashes as its
// value does, so a hash index can share the key's table.
func hashKey(key []value.Value) uint64 {
	h := key[0].Hash()
	for i := 1; i < len(key); i++ {
		h = h*0x9e3779b97f4a7c15 ^ key[i].Hash()
	}
	return h
}

// findKey returns the row whose primary key has the same literals as
// key: keys are equal exactly when their joined Literal() strings are.
// The caller must hold t.mu.
func (t *Table) findKey(key []value.Value, h uint64) (RowID, bool) {
	p := t.pk.probe(h)
	for id, ok := p.next(); ok; id, ok = p.next() {
		seg, off := t.segs[int(id)/SegmentSize], int(id)%SegmentSize
		same := true
		for i, c := range t.keyCols {
			if !value.SameLiteral(&seg.cols[c].vals[off], &key[i]) {
				same = false
				break
			}
		}
		if same {
			return id, true
		}
	}
	return 0, false
}

// duplicateKey is the error for an insert or update that would give a
// second row key.
func (t *Table) duplicateKey(key []value.Value) error {
	return fmt.Errorf("storage %s: duplicate key %s", t.schema.Name, encodeKey(key))
}

// indexKey reads row id's target of ix from the heap: the value, or one
// indicator tagged on it; ok is false for an untagged cell, which an
// indicator index leaves out. The caller must hold t.mu.
func (t *Table) indexKey(ix *index, id RowID) (value.Value, bool) {
	return t.segs[int(id)/SegmentSize].cols[ix.col].targetAt(int(id)%SegmentSize, ix.target.Indicator)
}

// chainOf returns the slot of key's chain in hash index ix, or -1: the
// candidate whose target in the heap is value.Equal to key.
func (t *Table) chainOf(ix *index, key *value.Value, h uint64) int {
	p := ix.keys.probe(h)
	for id, ok := p.next(); ok; id, ok = p.next() {
		if got, ok := t.indexKey(ix, id); ok && value.EqualPtr(&got, key) {
			return p.at
		}
	}
	return -1
}

// file enters live row id, as the heap holds it, in ix. A shared index is
// the primary key's table, which the key's own upkeep keeps.
func (t *Table) file(ix *index, id RowID) {
	key, ok := t.indexKey(ix, id)
	switch {
	case !ok || ix.shared:
	case ix.kind == IndexBTree:
		ix.btree.Insert(key, id)
	default:
		h := key.Hash()
		if s := t.chainOf(ix, &key, h); s >= 0 {
			ix.keys.link(s, id)
		} else {
			ix.keys.addChain(h, id)
		}
	}
}

// unfile removes row id from ix while the heap still holds it.
func (t *Table) unfile(ix *index, id RowID) {
	key, ok := t.indexKey(ix, id)
	switch {
	case !ok || ix.shared:
	case ix.kind == IndexBTree:
		ix.btree.Delete(key, id)
	default:
		if s := t.chainOf(ix, &key, key.Hash()); s >= 0 {
			ix.keys.unlink(s, id)
		}
	}
}

// buildIndex fills ix from the live rows, in row-ID order, so a new row
// heads each chain in O(1).
func (t *Table) buildIndex(ix *index) {
	switch {
	case ix.kind == IndexBTree:
		ix.btree = NewBTree()
	case ix.shared:
		ix.keys = t.pk
		return
	default:
		ix.keys = &keyTable{next: make([]uint32, t.nRows)}
	}
	for id := range t.liveRows {
		t.file(ix, id)
	}
}

// liveRows yields every live row in row-ID order; the caller must hold
// t.mu.
func (t *Table) liveRows(yield func(RowID) bool) {
	for si, seg := range t.segs {
		for off := 0; off < seg.n; off++ {
			if seg.live[off] && !yield(RowID(si*SegmentSize+off)) {
				return
			}
		}
	}
}

// buildKeys rebuilds the primary key and every index from the live rows,
// once, after a load has put them in the heap: the key's table is sized
// for them up front. A live row, in row-ID order, whose key an earlier
// row holds fails with the duplicate-key error Insert gives it; row is its
// number among the live rows.
func (t *Table) buildKeys() (row int, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.pk != nil {
		t.pk = newKeyTable(t.nLive)
		var buf [4]value.Value
		for id := range t.liveRows {
			key := t.heapKey(id, buf[:0])
			h := hashKey(key)
			if _, dup := t.findKey(key, h); dup {
				return row, t.duplicateKey(key)
			}
			t.pk.add(h, id)
			row++
		}
	}
	for _, ix := range t.indexes {
		t.buildIndex(ix)
	}
	return 0, nil
}

// CreateIndex builds an index of the given kind over the target, populating
// it from existing rows. The new index changes the table's plannable
// surface: the owning catalog's schema version advances so cached bound
// plans re-run the access-path choice.
func (t *Table) CreateIndex(target IndexTarget, kind IndexKind) error {
	if err := t.createIndex(target, kind); err != nil {
		return err
	}
	t.bumpOwner()
	return nil
}

func (t *Table) createIndex(target IndexTarget, kind IndexKind) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	col := t.schema.ColIndex(target.Attr)
	if col < 0 {
		return fmt.Errorf("storage %s: unknown attribute %q", t.schema.Name, target.Attr)
	}
	for _, ix := range t.indexes {
		if ix.target == target {
			return fmt.Errorf("storage %s: index on %s already exists", t.schema.Name, target)
		}
	}
	ix := &index{target: target, kind: kind, col: col, shared: t.sharesKey(target, kind)}
	t.buildIndex(ix)
	t.indexes = append(t.indexes, ix)
	return nil
}

// IndexSpec describes one index: target plus structure kind.
type IndexSpec struct {
	Target IndexTarget
	Kind   IndexKind
}

// IndexSpecs lists all indexes with their kinds.
func (t *Table) IndexSpecs() []IndexSpec {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]IndexSpec, len(t.indexes))
	for i, ix := range t.indexes {
		out[i] = IndexSpec{Target: ix.target, Kind: ix.kind}
	}
	return out
}

// Strict reports whether the table enforces required indicators on insert.
func (t *Table) Strict() bool { return t.strict }

// Indexes lists the targets of all indexes on the table.
func (t *Table) Indexes() []IndexTarget {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]IndexTarget, len(t.indexes))
	for i, ix := range t.indexes {
		out[i] = ix.target
	}
	return out
}

// Insert validates and appends a tuple, returning its row ID.
func (t *Table) Insert(tup relation.Tuple) (RowID, error) {
	if err := relation.CheckTuple(t.schema, tup, t.strict); err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.roomLocked(); err != nil {
		return 0, err
	}
	var h uint64
	if t.pk != nil {
		var buf [4]value.Value
		key := t.keyOf(tup.Cells, buf[:0])
		h = hashKey(key)
		if _, dup := t.findKey(key, h); dup {
			return 0, t.duplicateKey(key)
		}
	}
	// No defensive clone: appendLocked copies the cells by value into the
	// segment's column runs, decoupling the heap from the caller's tuple.
	id := t.appendLocked(tup, 0)
	if t.pk != nil {
		t.pk.add(h, id)
	}
	for _, ix := range t.indexes {
		t.file(ix, id)
	}
	return id, nil
}

// loadRow appends a loaded row as Insert does, but leaves the keys to
// buildKeys; rows sizes a new segment as newSegment does.
func (t *Table) loadRow(tup relation.Tuple, rows int) error {
	if err := relation.CheckTuple(t.schema, tup, t.strict); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.roomLocked(); err != nil {
		return err
	}
	t.appendLocked(tup, rows)
	return nil
}

// roomLocked refuses a row slot past the last one a key table can file;
// the caller must hold t.mu.
func (t *Table) roomLocked() error {
	if t.nRows >= maxSlots {
		return fmt.Errorf("storage %s: table full at %d row slots", t.schema.Name, t.nRows)
	}
	return nil
}

// Get returns a copy of the row and whether it is live.
func (t *Table) Get(id RowID) (relation.Tuple, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	seg, off, ok := t.locate(id)
	if !ok {
		return relation.Tuple{}, false
	}
	tupleClones.Add(1)
	return seg.rowAt(off), true
}

// Update replaces the row at id with tup, maintaining the primary key
// and the indexes. A failed update changes nothing.
func (t *Table) Update(id RowID, tup relation.Tuple) error {
	if err := relation.CheckTuple(t.schema, tup, t.strict); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	seg, off, ok := t.locate(id)
	if !ok {
		return fmt.Errorf("storage %s: update of dead row %d", t.schema.Name, id)
	}
	// A key that keeps its literals keeps its slot. A moved key's probe
	// cannot stop at the row's own slot, whose literals differ, so any row
	// it finds is another's.
	var oldBuf, newBuf [4]value.Value
	var oldKey []value.Value // the key being moved, nil if kept
	var newHash uint64
	if t.pk != nil {
		key := t.keyOf(tup.Cells, newBuf[:0])
		if old := t.heapKey(id, oldBuf[:0]); !value.SameLiterals(old, key) {
			newHash = hashKey(key)
			if _, dup := t.findKey(key, newHash); dup {
				return t.duplicateKey(key)
			}
			oldKey = old
		}
	}
	for _, ix := range t.indexes {
		t.unfile(ix, id)
	}
	// Copy-on-write: published column runs are immutable, so replace the
	// touched segment's runs wholesale rather than writing a slot in place.
	// Readers that captured the old runs keep a consistent view.
	ncols := make([]colRun, len(seg.cols))
	for j := range seg.cols {
		ncols[j] = seg.cols[j].cowReplace(off, tup.Cells[j])
	}
	seg.cols = ncols
	if oldKey != nil {
		t.pk.remove(hashKey(oldKey), id)
		t.pk.add(newHash, id)
	}
	for _, ix := range t.indexes {
		t.file(ix, id)
	}
	t.dataVer.Add(1)
	return nil
}

// appendDead appends a dead row slot: it takes the next row ID but is never
// live, so no scan, index or key sees it. The loaders use it to give every
// saved row its saved ID; rows sizes a new segment as newSegment does.
func (t *Table) appendDead(rows int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.appendLocked(relation.Tuple{Cells: make([]relation.Cell, len(t.schema.Attrs))}, rows)
	seg := t.segs[len(t.segs)-1]
	seg.live[seg.n-1] = false
	seg.nDead++
	t.nLive--
}

// slots reports the number of row slots, live and dead: the next row ID.
func (t *Table) slots() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.nRows
}

// Delete tombstones the row at id.
func (t *Table) Delete(id RowID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	seg, off, ok := t.locate(id)
	if !ok {
		return fmt.Errorf("storage %s: delete of dead row %d", t.schema.Name, id)
	}
	if t.pk != nil {
		var buf [4]value.Value
		t.pk.remove(hashKey(t.heapKey(id, buf[:0])), id)
	}
	for _, ix := range t.indexes {
		t.unfile(ix, id)
	}
	seg.live[off] = false
	seg.nDead++
	t.nLive--
	t.dataVer.Add(1)
	return nil
}

// LookupKey finds the row ID for the given primary key values.
func (t *Table) LookupKey(keyVals ...value.Value) (RowID, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.pk == nil || len(keyVals) != len(t.keyCols) {
		return 0, false
	}
	return t.findKey(keyVals, hashKey(keyVals))
}

// Scan visits every live row in row-ID order. Visit receives a copy it may
// mutate and keep; it returns false to stop the scan.
//
// The rows come from one SnapshotCols capture, so a scan sees the table at
// one instant, and visit runs with no table lock held: a visitor may freely
// call back into the table (Get, LookupEq, even Insert) without
// deadlocking behind a queued writer — the sync.RWMutex hazard the old
// whole-scan lock had. Writes made during the scan are not seen.
func (t *Table) Scan(visit func(id RowID, tup relation.Tuple) bool) {
	copies := 0
	defer func() { tupleClones.Add(int64(copies)) }()
	views := t.SnapshotCols(t.schema.ColIndexes())
	for i := range views {
		cs := &views[i]
		for k := 0; k < cs.Live(); k++ {
			cells := make([]relation.Cell, len(cs.Cols))
			id := cs.RowInto(k, cells)
			copies++
			if !visit(id, relation.Tuple{Cells: cells}) {
				return
			}
		}
	}
}

// findIndex returns an index usable for the target, preferring one whose
// kind satisfies needRange.
func (t *Table) findIndex(target IndexTarget, needRange bool) *index {
	for _, ix := range t.indexes {
		if ix.target == target {
			if needRange && ix.kind != IndexBTree {
				continue
			}
			return ix
		}
	}
	return nil
}

// HasIndex reports whether an index exists for the target, and whether it
// supports range scans.
func (t *Table) HasIndex(target IndexTarget) (exists, ranged bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, ix := range t.indexes {
		if ix.target == target {
			exists = true
			if ix.kind == IndexBTree {
				ranged = true
			}
		}
	}
	return
}

// isLiveLocked reports liveness of id; the caller must hold t.mu.
func (t *Table) isLiveLocked(id RowID) bool {
	_, _, ok := t.locate(id)
	return ok
}

// Lookup returns the row IDs whose target lies in [lo, hi] per bound
// inclusivity, in ascending row-ID order, read under one read lock — the
// table at one instant, so no ID appears twice. It is the one entry point
// of every planned index probe (SELECT's index scan, DML collection).
//
// A degenerate range — both bounds inclusive on one value — is routed
// through LookupEq rather than LookupRange: equality can use a hash index,
// while the range path needs a B-tree and would silently degrade a
// hash-indexed point lookup to a full scan.
func (t *Table) Lookup(target IndexTarget, lo, hi Bound) ([]RowID, error) {
	if !lo.Unbounded && !hi.Unbounded && lo.Inclusive && hi.Inclusive && value.EqualPtr(&lo.Value, &hi.Value) {
		return t.LookupEq(target, lo.Value)
	}
	return t.LookupRange(target, lo, hi)
}

// LookupEq returns the row IDs whose target equals key, using an index when
// one exists, otherwise scanning. Results are in ascending row-ID order.
func (t *Table) LookupEq(target IndexTarget, key value.Value) ([]RowID, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	col := t.schema.ColIndex(target.Attr)
	if col < 0 {
		return nil, fmt.Errorf("storage %s: unknown attribute %q", t.schema.Name, target.Attr)
	}
	if ix := t.findIndex(target, false); ix != nil {
		if ix.kind == IndexHash {
			// A chain holds live rows only, in ascending order.
			if s := t.chainOf(ix, &key, key.Hash()); s >= 0 {
				return ix.keys.chain(s), nil
			}
			return nil, nil
		}
		ids := ix.btree.Lookup(key)
		out := ids[:0]
		for _, id := range ids {
			if t.isLiveLocked(id) {
				out = append(out, id)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out, nil
	}
	// Unindexed fallback: walk the one targeted column run per segment,
	// skipping segments whose min/max summary excludes the key.
	var out []RowID
	for si, seg := range t.segs {
		r := &seg.cols[col]
		if target.Indicator == "" && r.mm.OK && !key.IsNull() {
			if value.ComparePtr(&key, &r.mm.Min) < 0 || value.ComparePtr(&key, &r.mm.Max) > 0 {
				continue
			}
		}
		for off := 0; off < seg.n; off++ {
			if !seg.live[off] {
				continue
			}
			got, ok := r.targetAt(off, target.Indicator)
			if ok && value.EqualPtr(&got, &key) {
				out = append(out, RowID(si*SegmentSize+off))
			}
		}
	}
	return out, nil
}

// targetAt reads slot off's lookup target: the value itself, or one
// indicator tagged on it.
func (r *colRun) targetAt(off int, indicator string) (value.Value, bool) {
	if indicator == "" {
		return r.vals[off], true
	}
	if r.tags == nil {
		return value.Value{}, false
	}
	return r.tags[off].Get(indicator)
}

// LookupRange returns row IDs whose target falls within [lo, hi] per bound
// inclusivity, using a B-tree index when available, otherwise scanning.
// Results are in ascending row-ID order.
func (t *Table) LookupRange(target IndexTarget, lo, hi Bound) ([]RowID, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	col := t.schema.ColIndex(target.Attr)
	if col < 0 {
		return nil, fmt.Errorf("storage %s: unknown attribute %q", t.schema.Name, target.Attr)
	}
	var out []RowID
	if ix := t.findIndex(target, true); ix != nil {
		ix.btree.Range(lo, hi, func(_ value.Value, id RowID) bool {
			if t.isLiveLocked(id) {
				out = append(out, id)
			}
			return true
		})
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out, nil
	}
	for si, seg := range t.segs {
		r := &seg.cols[col]
		for off := 0; off < seg.n; off++ {
			if !seg.live[off] {
				continue
			}
			got, ok := r.targetAt(off, target.Indicator)
			if ok && lo.admitsLow(got) && hi.admitsHigh(got) {
				out = append(out, RowID(si*SegmentSize+off))
			}
		}
	}
	return out, nil
}

// Load bulk-inserts all tuples of a relation, returning the first error.
func (t *Table) Load(r *relation.Relation) error {
	for i := range r.Tuples {
		if _, err := t.Insert(r.Tuples[i]); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
	}
	return nil
}

// Catalog is a named collection of tables: the "database" handed to the QQL
// engine and the examples.
//
// Each table name carries a monotonic schema version, bumped on every DDL
// that can change what a compiled plan assumed about the table — CREATE
// TABLE, DROP TABLE, CREATE INDEX, TAG TABLE. Versions belong to the name,
// not the Table object, and survive drop/recreate, so a plan compiled
// against a dropped table's schema can never validate against its
// same-named successor.
type Catalog struct {
	mu       sync.RWMutex
	tables   map[string]*Table
	versions map[string]uint64
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*Table), versions: make(map[string]uint64)}
}

// Create adds a new table for the schema; it fails if the name is taken.
func (c *Catalog) Create(s *schema.Schema, strict bool) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.tables[s.Name]; dup {
		return nil, fmt.Errorf("storage: table %q already exists", s.Name)
	}
	t := NewTable(s, strict)
	t.owner = c
	c.tables[s.Name] = t
	c.versions[s.Name]++
	return t, nil
}

// Get returns the named table.
func (c *Catalog) Get(name string) (*Table, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[name]
	return t, ok
}

// Drop removes the named table.
func (c *Catalog) Drop(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[name]; !ok {
		return false
	}
	delete(c.tables, name)
	c.versions[name]++
	return true
}

// Version reports the schema version of the named table; 0 means the name
// has never existed.
func (c *Catalog) Version(name string) uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.versions[name]
}

// Bump advances the schema version of the named table. DDL paths that
// mutate a Table in place (CREATE INDEX, TAG TABLE) call it after the
// mutation lands, so version-validated plan caches re-plan.
func (c *Catalog) Bump(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.versions[name]++
}

// Resolve fetches the named tables and their schema versions atomically
// under one read lock, both aligned with names. It returns the first
// missing name, or "" when every table resolved. The pairing matters for
// plan caches: a version read any later than its table could tag a plan
// compiled against the old schema with the new version, making a stale
// plan validate.
func (c *Catalog) Resolve(names []string) ([]*Table, []uint64, string) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	tables := make([]*Table, len(names))
	versions := make([]uint64, len(names))
	for i, n := range names {
		t, ok := c.tables[n]
		if !ok {
			return nil, nil, n
		}
		tables[i] = t
		versions[i] = c.versions[n]
	}
	return tables, versions, ""
}

// ResolveAt fetches the named tables, as Resolve does, only when each one's
// schema version still equals the one aligned with it in versions; ok is
// false when a table is missing or a version moved. The comparison runs
// under the same read lock as the fetch, so a cached plan validates against
// exactly the tables it then runs on.
func (c *Catalog) ResolveAt(names []string, versions []uint64) (tables []*Table, ok bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	tables = make([]*Table, len(names))
	for i, n := range names {
		t, found := c.tables[n]
		if !found || c.versions[n] != versions[i] {
			return nil, false
		}
		tables[i] = t
	}
	return tables, true
}

// Names lists table names in sorted order.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
