package algebra

import (
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

// The join operator: the build side is transposed into column vectors
// keyed by hash, and the probe side streams through in batches, evaluating
// keys straight off column vectors — no per-row tuple materialization until
// a match actually survives the key confirm and residual. A join with no
// equi-key runs the same operator with constant keys (see NewBatchHashJoin).

type batchHashJoin struct {
	left BatchIterator
	out  *schema.Schema
	ctx  *EvalContext
	size int

	// Build side, materialized in the constructor: right rows stored
	// columnar, their key values dense, and hash buckets listing row
	// indexes in stream order (so output order is left stream order ×
	// build insertion order).
	rstore []ColVec
	rkeys  []value.Value
	build  map[uint64][]int32

	lkIdx  int // bound ColRef index of the left key, -1 when computed
	lkEval Compiled
	lkRefs []int
	resid  Predicate // nil when no residual

	lw, rw int
	row    []relation.Cell // scratch joined row for residual + emission

	// Probe cursor, persisted across NextBatch calls.
	buf        *Batch
	li         int
	lk         value.Value
	matches    []int32
	mi         int
	leftFilled bool
	loaded     bool
	done       bool
}

// NewBatchHashJoin is the equi-join on leftKey = rightKey with an optional
// residual predicate over the concatenated row. Output rows come in left
// stream order × build insertion order; null keys never join; hash matches
// are confirmed by value. The output schema is JoinSchema's. The right
// input is drained and transposed into the columnar build table in the
// constructor. Constant true keys put every build row in one bucket, which
// makes it a nested-loop join with the residual as its predicate (a nil
// residual is a cross product).
func NewBatchHashJoin(left, right BatchIterator, leftKey, rightKey, residual Expr, ctx *EvalContext, size int) (BatchIterator, error) {
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
	j := &batchHashJoin{
		left: left, out: out, ctx: ctx, size: size,
		lw: len(left.Schema().Attrs), rw: len(right.Schema().Attrs),
		build: make(map[uint64][]int32),
		lkIdx: -1,
	}
	if residual != nil {
		if err := residual.Bind(out); err != nil {
			return nil, err
		}
		j.resid = CompilePredicate(residual)
	}
	if cr, ok := leftKey.(*ColRef); ok {
		j.lkIdx = cr.idx
	} else {
		j.lkRefs = ReferencedCols(leftKey)
	}
	j.lkEval = Compile(leftKey)
	j.rstore = make([]ColVec, j.rw)
	j.row = make([]relation.Cell, j.lw+j.rw)

	// Drain and transpose the build side.
	rkIdx := -1
	var rkRefs []int
	if cr, ok := rightKey.(*ColRef); ok {
		rkIdx = cr.idx
	} else {
		rkRefs = ReferencedCols(rightKey)
	}
	rkEval := Compile(rightKey)
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
			m := int32(len(j.rkeys))
			for c := range j.rstore {
				j.rstore[c].appendCell(rb.cols[c].Cell(int(p)))
			}
			j.rkeys = append(j.rkeys, k)
			h := k.Hash()
			j.build[h] = append(j.build[h], m)
		}
	}
	if len(j.build) == 0 {
		// Nothing can match; release the probe side without scanning it.
		stopIfStopper(left)
		j.done = true
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
	j.rstore, j.rkeys, j.build = nil, nil, nil
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
	out := b.ownedCols(j.lw + j.rw)
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
			j.li, j.matches, j.loaded = 0, nil, true
		}
		for j.li < j.buf.Len() {
			p := j.buf.phys(j.li)
			if j.matches == nil {
				lk, err := j.leftKeyAt(p)
				if err != nil {
					j.Stop()
					return false, err
				}
				j.mi, j.leftFilled = 0, false
				if lk.IsNull() {
					j.li++
					continue
				}
				j.lk = lk
				j.matches = j.build[lk.Hash()]
				if j.matches == nil {
					j.matches = emptyMatches // distinguish "probed" from "not yet"
				}
			}
			for j.mi < len(j.matches) {
				m := j.matches[j.mi]
				j.mi++
				if !value.EqualPtr(&j.lk, &j.rkeys[m]) {
					continue // hash collision
				}
				if !j.leftFilled {
					for c := 0; c < j.lw; c++ {
						j.row[c] = j.buf.cols[c].Cell(int(p))
					}
					j.leftFilled = true
				}
				for c := 0; c < j.rw; c++ {
					j.row[j.lw+c] = j.rstore[c].Cell(int(m))
				}
				if j.resid != nil {
					keep, err := j.resid(relation.Tuple{Cells: j.row}, j.ctx)
					if err != nil {
						j.Stop()
						return false, err
					}
					if !keep {
						continue
					}
				}
				for c := range out {
					out[c].appendCell(j.row[c])
				}
				cnt++
				if cnt >= j.size {
					b.setOwned(out, cnt)
					return true, nil
				}
			}
			j.matches = nil
			j.li++
		}
		j.loaded = false
	}
}

// emptyMatches marks a probed key with no bucket; non-nil so the cursor
// does not re-probe.
var emptyMatches = []int32{}
