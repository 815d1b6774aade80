package storage

import (
	"repro/internal/relation"
	"repro/internal/tag"
	"repro/internal/value"
)

// The heap is column-major inside each segment: a segment holds one colRun
// per attribute instead of a slice of row tuples. Values, a packed null
// bitmap and the per-cell quality metadata (tags, polygen sources, tag
// metadata) live in parallel runs, so readers that touch one attribute — a
// comparison kernel, a tag predicate, a quality gauge — stream exactly one
// run instead of loading every cell of every row.
//
// Concurrency contract (the invariant the whole zero-clone tier leans on):
// column runs are immutable once published. Appends only ever write the
// slot one past every reader's view (or grow into a fresh backing array),
// and Update copy-on-writes the touched segment's runs wholesale, so a
// reader that captured run slices under the table's read lock can keep
// using them after releasing it. The one in-place exception would be
// setting a null bit mid-word; appendCell copy-on-writes the bitmap
// instead, keeping published words frozen.

// colRun is one column of one segment: up to SegmentSize values in slot
// order plus their quality metadata and a running min/max summary.
type colRun struct {
	vals []value.Value
	// nulls is a packed bitmap: bit off of word off/64 set means
	// vals[off] is null. Words are immutable once published; setting a
	// bit in an already-published word replaces the slice (see append).
	nulls []uint64
	// tags/srcs/meta are nil until the first cell in the run carries
	// that metadata; once allocated they stay slot-aligned with vals.
	tags []tag.Set
	srcs []tag.Sources
	meta []map[string]tag.Set
	mm   ColStats
}

// ColStats summarizes the non-null values of one column run. OK is false
// until a non-null value has been observed. Deletes and updates never
// narrow the bounds, so the summary is a conservative superset of the live
// values — safe for segment skipping, useless for exact answers.
type ColStats struct {
	Min, Max value.Value
	OK       bool
}

// widen grows the bounds to admit v (callers skip nulls).
func (s *ColStats) widen(v value.Value) {
	if !s.OK {
		s.Min, s.Max, s.OK = v, v, true
		return
	}
	if value.ComparePtr(&v, &s.Min) < 0 {
		s.Min = v
	}
	if value.ComparePtr(&v, &s.Max) > 0 {
		s.Max = v
	}
}

// appendCell writes c at slot off (== current run length). Only the
// mid-word null-bit set copies; everything else appends, which either
// writes past every published view or relocates to a fresh array — both
// invisible to concurrent readers holding older slices.
func (r *colRun) appendCell(c relation.Cell, off int) {
	r.vals = append(r.vals, c.V)
	null := c.V.IsNull()
	if off%64 == 0 {
		var w uint64
		if null {
			w = 1
		}
		r.nulls = append(r.nulls, w)
	} else if null {
		nw := make([]uint64, len(r.nulls))
		copy(nw, r.nulls)
		nw[off/64] |= 1 << uint(off%64)
		r.nulls = nw
	}
	if !null {
		r.mm.widen(c.V)
	}
	if r.tags != nil || !c.Tags.IsEmpty() {
		if r.tags == nil {
			r.tags = make([]tag.Set, off, cap(r.vals))
		}
		r.tags = append(r.tags, c.Tags)
	}
	if r.srcs != nil || len(c.Sources) > 0 {
		if r.srcs == nil {
			r.srcs = make([]tag.Sources, off, cap(r.vals))
		}
		r.srcs = append(r.srcs, c.Sources)
	}
	if r.meta != nil || len(c.Meta) > 0 {
		if r.meta == nil {
			r.meta = make([]map[string]tag.Set, off, cap(r.vals))
		}
		r.meta = append(r.meta, c.Meta)
	}
}

// cell materializes slot off as a relation.Cell.
func (r *colRun) cell(off int) relation.Cell {
	c := relation.Cell{V: r.vals[off]}
	if r.tags != nil {
		c.Tags = r.tags[off]
	}
	if r.srcs != nil {
		c.Sources = r.srcs[off]
	}
	if r.meta != nil {
		c.Meta = r.meta[off]
	}
	return c
}

// cowReplace returns a copy of the run with slot off replaced by c —
// Update's copy-on-write step. The min/max summary widens to admit the new
// value; the displaced value's contribution is not recomputed away.
func (r *colRun) cowReplace(off int, c relation.Cell) colRun {
	n := len(r.vals)
	out := colRun{mm: r.mm}
	out.vals = make([]value.Value, n)
	copy(out.vals, r.vals)
	out.vals[off] = c.V
	out.nulls = make([]uint64, len(r.nulls))
	copy(out.nulls, r.nulls)
	if c.V.IsNull() {
		out.nulls[off/64] |= 1 << uint(off%64)
	} else {
		out.nulls[off/64] &^= 1 << uint(off%64)
		out.mm.widen(c.V)
	}
	if r.tags != nil || !c.Tags.IsEmpty() {
		out.tags = make([]tag.Set, n)
		copy(out.tags, r.tags)
		out.tags[off] = c.Tags
	}
	if r.srcs != nil || len(c.Sources) > 0 {
		out.srcs = make([]tag.Sources, n)
		copy(out.srcs, r.srcs)
		out.srcs[off] = c.Sources
	}
	if r.meta != nil || len(c.Meta) > 0 {
		out.meta = make([]map[string]tag.Set, n)
		copy(out.meta, r.meta)
		out.meta[off] = c.Meta
	}
	return out
}

// ColRun is the zero-clone read view of one column of one segment: the
// value run, null bitmap and metadata runs alias heap storage (read-only —
// see the copy-on-write contract above), plus the run's min/max summary
// for segment skipping. Nils mean "no cell in this run carries that
// metadata". Runs cover row slots, live or dead; consult the owning
// ColSeg's selection for liveness.
type ColRun struct {
	Vals  []value.Value
	Nulls []uint64
	Tags  []tag.Set
	Srcs  []tag.Sources
	Meta  []map[string]tag.Set
	Stats ColStats
}

// Null reports whether slot off holds a null value.
func (r *ColRun) Null(off int) bool {
	return r.Nulls[off/64]&(1<<uint(off%64)) != 0
}

// Cell materializes slot off as a relation.Cell.
func (r *ColRun) Cell(off int) relation.Cell {
	c := relation.Cell{V: r.Vals[off]}
	if r.Tags != nil {
		c.Tags = r.Tags[off]
	}
	if r.Srcs != nil {
		c.Sources = r.Srcs[off]
	}
	if r.Meta != nil {
		c.Meta = r.Meta[off]
	}
	return c
}

// ColSeg is a zero-clone columnar view of one segment: N row slots, the
// live-slot selection, and one ColRun per requested column. It is the only
// bulk read of a table — SnapshotCols fills every segment's at one
// instant, ViewRows one segment's probed rows, ScanSegmentCols one
// segment's. Reuse one ColSeg across ViewRows or ScanSegmentCols calls to
// recycle its internal buffers.
type ColSeg struct {
	// N is the number of row slots in the view (live and dead).
	N int
	// Base is the row ID of slot 0.
	Base RowID
	// Sel lists the live slot offsets in ascending order; nil means every
	// slot in [0, N) is live. It aliases an internal buffer owned by the
	// ColSeg, valid until the next refill.
	Sel []int32
	// Cols holds one run per requested column, in request order.
	Cols []ColRun

	selBuf []int32
}

// Live reports the number of live rows in the view.
func (s *ColSeg) Live() int {
	if s.Sel != nil {
		return len(s.Sel)
	}
	return s.N
}

// RowInto fills cells (len(cells) == len(s.Cols)) with the k-th live row of
// the view, 0 <= k < Live(), and returns its row ID. The cells copy the
// run entries, so the caller may keep them; tag sets, sources and meta maps
// are shared immutable values.
func (s *ColSeg) RowInto(k int, cells []relation.Cell) RowID {
	off := k
	if s.Sel != nil {
		off = int(s.Sel[k])
	}
	for j := range s.Cols {
		cells[j] = s.Cols[j].Cell(off)
	}
	return s.Base + RowID(off)
}

// ScanSegmentCols fills buf with a zero-clone columnar view of segment i,
// materializing only the requested columns (schema column indexes). It
// returns false for an out-of-range segment. The returned runs alias heap
// storage under the column-run immutability contract: treat them as
// read-only. No tuple is cloned and no per-row work is done beyond the
// live-slot selection (skipped entirely for segments with no deletes).
// Each call takes its own read lock, so a run of calls is not one table
// state: the query path reads SnapshotCols instead, and this read is left
// to tooling outside the engine.
func (t *Table) ScanSegmentCols(i int, colIdxs []int, buf *ColSeg) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if i < 0 || i >= len(t.segs) {
		return false
	}
	t.viewLocked(i, colIdxs, buf)
	return true
}

// SnapshotCols returns one view per segment, in segment order, all
// captured under a single read lock: the whole table at one instant, which
// a run of ScanSegmentCols calls is not — a row deleted from one segment
// and reinserted into a later one between two calls would be seen twice.
// It costs O(segments) slice headers plus a selection list per segment
// with deletes; no cell is copied, because runs are copy-on-write and the
// views stay valid after the lock is released. Every reader that must see
// each row once reads this: every table scan of the engine (SELECT at any
// degree, and UPDATE/DELETE collection), checkpoints and whole-table
// statistics.
func (t *Table) SnapshotCols(colIdxs []int) []ColSeg {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]ColSeg, len(t.segs))
	for i := range out {
		t.viewLocked(i, colIdxs, &out[i])
	}
	return out
}

// ViewRows fills buf with the zero-clone view of the segment holding
// ids[0], selecting the probed slots of that segment that are still live,
// and returns the ids past that segment. ids must be ascending row IDs of
// the table, as Lookup returns them; an empty ids leaves buf as it was.
// Liveness is tested per probed id under one read lock, never by walking
// the segment's slots, and Sel is non-nil even when no probed slot is
// live. It is the read of an index probe: Lookup's row IDs, one segment
// per call.
func (t *Table) ViewRows(ids []RowID, colIdxs []int, buf *ColSeg) (rest []RowID) {
	if len(ids) == 0 {
		return nil
	}
	si := int(ids[0] / SegmentSize)
	n := 1
	for n < len(ids) && int(ids[n]/SegmentSize) == si {
		n++
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	seg := t.colsLocked(si, colIdxs, buf)
	sel := buf.selBuf[:0]
	if sel == nil {
		sel = make([]int32, 0, n)
	}
	for _, id := range ids[:n] {
		if off := int(id - buf.Base); seg.live[off] {
			sel = append(sel, int32(off))
		}
	}
	buf.selBuf, buf.Sel = sel, sel
	return ids[n:]
}

// colsLocked points buf's runs at segment i's requested columns and
// returns the segment; the caller must hold t.mu and fill buf.Sel.
func (t *Table) colsLocked(i int, colIdxs []int, buf *ColSeg) *segment {
	seg := t.segs[i]
	buf.N = seg.n
	buf.Base = RowID(i * SegmentSize)
	buf.Cols = buf.Cols[:0]
	if cap(buf.Cols) < len(colIdxs) {
		buf.Cols = make([]ColRun, 0, len(colIdxs))
	}
	for _, c := range colIdxs {
		r := &seg.cols[c]
		buf.Cols = append(buf.Cols, ColRun{
			Vals:  r.vals[:seg.n],
			Nulls: r.nulls,
			Tags:  r.tags,
			Srcs:  r.srcs,
			Meta:  r.meta,
			Stats: r.mm,
		})
	}
	return seg
}

// viewLocked fills buf with the view of segment i (in range); the caller
// must hold t.mu.
func (t *Table) viewLocked(i int, colIdxs []int, buf *ColSeg) {
	seg := t.colsLocked(i, colIdxs, buf)
	if seg.nDead == 0 {
		buf.Sel = nil
		return
	}
	// A nil Sel means "all live", so a fully dead segment must get an
	// empty non-nil list — slicing a nil selBuf would yield nil.
	sel := buf.selBuf[:0]
	if live := seg.n - seg.nDead; sel == nil || cap(sel) < live {
		sel = make([]int32, 0, live)
	}
	for off := 0; off < seg.n; off++ {
		if seg.live[off] {
			sel = append(sel, int32(off))
		}
	}
	buf.selBuf = sel
	buf.Sel = sel
}
