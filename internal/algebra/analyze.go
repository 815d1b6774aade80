package algebra

import (
	"time"

	"repro/internal/schema"
)

// OpStats accumulates the actuals for one operator in an instrumented plan:
// rows and batches produced, and wall time spent inside the operator's
// subtree (inclusive — the time covers the operator and everything below
// it, like EXPLAIN ANALYZE's "actual time" in other engines). The fields
// are plain integers written by the single goroutine that drives the
// iterator; the struct allocates nothing per row.
//
// Stats collection is opt-in: plans built without ANALYZE contain no
// instrument wrappers and pay zero cost.
type OpStats struct {
	// Rows is the number of tuples the operator produced.
	Rows int64
	// Batches is the number of non-empty batches produced.
	Batches int64
	// Nanos is the cumulative wall time spent inside Next/NextBatch calls
	// on this operator, including its children (inclusive time).
	Nanos int64
	// Extra carries operator-specific detail (e.g. parallel-scan worker
	// occupancy), captured when the plan is released.
	Extra string
}

// Time returns the inclusive wall time as a duration.
func (s *OpStats) Time() time.Duration { return time.Duration(s.Nanos) }

// ExtraStats lets an operator expose operator-specific actuals (beyond
// rows/time) to EXPLAIN ANALYZE. The parallel scan implements it to report
// per-worker segment occupancy.
type ExtraStats interface {
	ExtraStats() string
}

// instrumentBatch wraps a batch iterator, counting batches, rows and
// inclusive time.
type instrumentBatch struct {
	in BatchIterator
	st *OpStats
}

// NewBatchInstrument wraps bit so every NextBatch records into st.
func NewBatchInstrument(bit BatchIterator, st *OpStats) BatchIterator {
	return &instrumentBatch{in: bit, st: st}
}

func (i *instrumentBatch) Schema() *schema.Schema { return i.in.Schema() }

func (i *instrumentBatch) NextBatch(b *Batch) (bool, error) {
	t0 := time.Now()
	ok, err := i.in.NextBatch(b)
	i.st.Nanos += int64(time.Since(t0))
	if ok && err == nil {
		i.st.Batches++
		i.st.Rows += int64(b.Len())
	}
	return ok, err
}

// Stop forwards to the wrapped iterator and captures its extra stats.
func (i *instrumentBatch) Stop() {
	if ex, ok := i.in.(ExtraStats); ok {
		i.st.Extra = ex.ExtraStats()
	}
	stopIfStopper(i.in)
}

// ExtraStats forwards the wrapped operator's extra stats.
func (i *instrumentBatch) ExtraStats() string {
	if ex, ok := i.in.(ExtraStats); ok {
		return ex.ExtraStats()
	}
	return ""
}
