package algebra

import (
	"math/bits"
	"sort"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// The join operator: the build side is transposed into column vectors
// indexed by a flat chained hash table, and the probe side streams through
// in batches, evaluating keys straight off column vectors — no per-row
// tuple materialization until a match actually survives the key confirm
// and residual, and then only of the columns the plan reads. A join with no
// equi-key runs the same operator with constant keys (see NewBatchHashJoin).

type batchHashJoin struct {
	left BatchIterator
	out  *schema.Schema
	ctx  *EvalContext
	size int

	// need lists the output columns the join carries, ascending; the
	// first nl are left columns. Every other output vector stays empty.
	need []int
	nl   int

	// Build side, materialized in the constructor: the carried right
	// columns stored columnar, the keys and their hashes dense, and a
	// chained hash table — head[h&mask] is a bucket's first build row,
	// next[m] the row after m, -1 ends a chain. Chains run in insertion
	// order, so output order is left stream order × build insertion order.
	rstore []ColVec
	rkeys  []value.Value
	rhash  []uint64
	head   []int32
	next   []int32
	mask   uint64

	lkIdx  int // bound ColRef index of the left key, -1 when computed
	lkEval Compiled
	lkRefs []int
	resid  Predicate // nil when no residual

	lw  int
	row []relation.Cell // scratch joined row for the residual

	// Probe cursor, persisted across NextBatch calls.
	buf        *Batch
	li         int
	lk         value.Value
	lh         uint64
	m          int32 // next build row on the probed chain, -1 at its end
	probing    bool
	leftFilled bool // the probed left row's cells are in row
	loaded     bool
	done       bool
}

// NewBatchHashJoin is the equi-join on leftKey = rightKey with an optional
// residual predicate over the concatenated row. Output rows come in left
// stream order × build insertion order; null keys never join; hash matches
// are confirmed by value. The output schema is JoinSchema's. needed lists
// the output columns the consumer reads (nil means all of them); the join
// adds its residual's columns, stores and emits only those, and leaves
// every other output vector empty — the same convention as a column scan
// viewing part of a table — so each input need only carry its share of
// them plus its key. The right input is drained and transposed into the
// columnar build table in the constructor. Constant true keys put every
// build row in one chain, which makes it a nested-loop join with the
// residual as its predicate (a nil residual is a cross product).
func NewBatchHashJoin(left, right BatchIterator, leftKey, rightKey, residual Expr, needed []int, ctx *EvalContext, size int) (BatchIterator, error) {
	out, err := JoinSchema(left.Schema(), right.Schema())
	if err != nil {
		return nil, err
	}
	if err := leftKey.Bind(left.Schema()); err != nil {
		return nil, err
	}
	if err := rightKey.Bind(right.Schema()); err != nil {
		return nil, err
	}
	if size < 1 {
		size = DefaultBatchSize
	}
	lw, rw := len(left.Schema().Attrs), len(right.Schema().Attrs)
	j := &batchHashJoin{
		left: left, out: out, ctx: ctx, size: size,
		lw: lw, lkIdx: -1, m: -1,
	}
	if needed == nil {
		needed = out.ColIndexes()
	}
	var need refSet
	need.add(needed)
	if residual != nil {
		if err := residual.Bind(out); err != nil {
			return nil, err
		}
		j.resid = CompilePredicate(residual)
		need.add(ReferencedCols(residual))
	}
	j.need = need.cols
	sort.Ints(j.need)
	j.nl = sort.SearchInts(j.need, lw)
	if cr, ok := leftKey.(*ColRef); ok {
		j.lkIdx = cr.idx
	} else {
		j.lkRefs = ReferencedCols(leftKey)
	}
	j.lkEval = Compile(leftKey)
	j.rstore = make([]ColVec, rw)
	j.row = make([]relation.Cell, lw+rw)

	// Drain and transpose the build side.
	rkIdx := -1
	var rkRefs []int
	if cr, ok := rightKey.(*ColRef); ok {
		rkIdx = cr.idx
	} else {
		rkRefs = ReferencedCols(rightKey)
	}
	rkEval := Compile(rightKey)
	if hint := sizeHint(right); hint > 0 {
		j.rkeys = make([]value.Value, 0, hint)
		j.rhash = make([]uint64, 0, hint)
		for _, c := range j.need[j.nl:] {
			j.rstore[c-lw].Vals = make([]value.Value, 0, hint)
		}
	}
	rb := getBatch(size)
	defer func() {
		putBatch(rb)
		stopIfStopper(right)
	}()
	for {
		ok, err := right.NextBatch(rb)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		n := rb.Len()
		for i := 0; i < n; i++ {
			p := rb.phys(i)
			var k value.Value
			if rkIdx >= 0 {
				k = rb.cols[rkIdx].Vals[p]
			} else {
				k, err = rkEval(rb.scratchRowAt(p, rkRefs), ctx)
				if err != nil {
					return nil, err
				}
			}
			if k.IsNull() {
				continue // null keys never join
			}
			for _, c := range j.need[j.nl:] {
				j.rstore[c-lw].appendFrom(&rb.cols[c-lw], int(p))
			}
			j.rkeys = append(j.rkeys, k)
			j.rhash = append(j.rhash, k.Hash())
		}
	}
	n := len(j.rkeys)
	if n == 0 {
		// Nothing can match; release the probe side without scanning it.
		stopIfStopper(left)
		j.done = true
		return j, nil
	}
	// Link the chains back to front, so each runs in insertion order.
	buckets := 1 << bits.Len(uint(n-1))
	j.mask = uint64(buckets - 1)
	j.head = make([]int32, buckets)
	for i := range j.head {
		j.head[i] = -1
	}
	j.next = make([]int32, n)
	for m := n - 1; m >= 0; m-- {
		b := j.rhash[m] & j.mask
		j.next[m] = j.head[b]
		j.head[b] = int32(m)
	}
	return j, nil
}

func (j *batchHashJoin) Schema() *schema.Schema { return j.out }

// Stop releases the probe batch and both inputs' resources; the build
// table is dropped for the collector.
func (j *batchHashJoin) Stop() {
	j.done = true
	if j.buf != nil {
		putBatch(j.buf)
		j.buf = nil
	}
	j.rstore, j.rkeys, j.rhash, j.head, j.next = nil, nil, nil, nil, nil
	stopIfStopper(j.left)
}

// leftKeyAt evaluates the left key for physical slot p of the probe batch.
func (j *batchHashJoin) leftKeyAt(p int32) (value.Value, error) {
	if j.lkIdx >= 0 {
		return j.buf.cols[j.lkIdx].Vals[p], nil
	}
	return j.lkEval(j.buf.scratchRowAt(p, j.lkRefs), j.ctx)
}

func (j *batchHashJoin) NextBatch(b *Batch) (bool, error) {
	if j.done {
		return false, nil
	}
	if j.buf == nil {
		j.buf = getBatch(j.size)
	}
	out := b.ownedCols(len(j.out.Attrs))
	lcols, rcols := j.need[:j.nl], j.need[j.nl:]
	cnt := 0
	for {
		if !j.loaded {
			ok, err := j.left.NextBatch(j.buf)
			if err != nil {
				j.Stop()
				return false, err
			}
			if !ok {
				j.Stop()
				if cnt > 0 {
					b.setOwned(out, cnt)
					return true, nil
				}
				return false, nil
			}
			j.li, j.probing, j.loaded = 0, false, true
		}
		for j.li < j.buf.Len() {
			p := j.buf.phys(j.li)
			if !j.probing {
				lk, err := j.leftKeyAt(p)
				if err != nil {
					j.Stop()
					return false, err
				}
				if lk.IsNull() {
					j.li++
					continue
				}
				j.lk, j.lh = lk, lk.Hash()
				j.m = j.head[j.lh&j.mask]
				j.probing, j.leftFilled = true, false
			}
			for j.m >= 0 {
				m := j.m
				j.m = j.next[m]
				if j.rhash[m] != j.lh || !value.EqualPtr(&j.lk, &j.rkeys[m]) {
					continue // another key in the bucket
				}
				if j.resid != nil {
					if !j.leftFilled {
						for _, c := range lcols {
							j.row[c] = j.buf.cols[c].Cell(int(p))
						}
						j.leftFilled = true
					}
					for _, c := range rcols {
						j.row[c] = j.rstore[c-j.lw].Cell(int(m))
					}
					keep, err := j.resid(relation.Tuple{Cells: j.row}, j.ctx)
					if err != nil {
						j.Stop()
						return false, err
					}
					if !keep {
						continue
					}
				}
				for _, c := range lcols {
					out[c].appendFrom(&j.buf.cols[c], int(p))
				}
				for _, c := range rcols {
					out[c].appendFrom(&j.rstore[c-j.lw], int(m))
				}
				cnt++
				if cnt >= j.size {
					b.setOwned(out, cnt)
					return true, nil
				}
			}
			j.probing = false
			j.li++
		}
		j.loaded = false
	}
}
