package algebra

import (
	"fmt"
	"testing"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/storage"
)

// The reference executor: row-at-a-time operators that evaluate every
// predicate through the tree-walking Reference and fetch indexed rows one
// Table.Get at a time. The engine runs none of them — it has no row stream
// at all; tests hold the batch operators, the compiled kernels and the
// index scan to their answers.

// rowIter is the reference evaluator's pull-based tuple stream.
type rowIter interface {
	Schema() *schema.Schema
	// Next returns the next tuple, or ok=false at end of stream.
	Next() (relation.Tuple, bool, error)
}

// drainRows collects a row stream into a relation.
func drainRows(t *testing.T, it rowIter) *relation.Relation {
	t.Helper()
	out := relation.New(it.Schema())
	for {
		tup, ok, err := it.Next()
		if err != nil {
			t.Fatalf("reference stream: %v", err)
		}
		if !ok {
			return out
		}
		out.Tuples = append(out.Tuples, tup)
	}
}

// refScan streams an in-memory relation.
type refScan struct {
	rel *relation.Relation
	pos int
}

func rowsOf(r *relation.Relation) rowIter { return &refScan{rel: r} }

func (s *refScan) Schema() *schema.Schema { return s.rel.Schema }

func (s *refScan) Next() (relation.Tuple, bool, error) {
	if s.pos >= len(s.rel.Tuples) {
		return relation.Tuple{}, false, nil
	}
	s.pos++
	return s.rel.Tuples[s.pos-1], true, nil
}

// refIndexScan streams the live rows of t whose target lies in [lo, hi],
// fetching each probed row with Table.Get.
type refIndexScan struct {
	t   *storage.Table
	ids []storage.RowID
	pos int
}

func newRefIndexScan(t *storage.Table, target storage.IndexTarget, lo, hi storage.Bound) (rowIter, error) {
	ids, err := t.Lookup(target, lo, hi)
	if err != nil {
		return nil, err
	}
	return &refIndexScan{t: t, ids: ids}, nil
}

func (s *refIndexScan) Schema() *schema.Schema { return s.t.Schema() }

func (s *refIndexScan) Next() (relation.Tuple, bool, error) {
	for s.pos < len(s.ids) {
		tup, ok := s.t.Get(s.ids[s.pos])
		s.pos++
		if ok { // rows deleted since the lookup are skipped
			return tup, true, nil
		}
	}
	return relation.Tuple{}, false, nil
}

// refSelect keeps the tuples whose predicate is definitely true.
type refSelect struct {
	in   rowIter
	pred Expr
	ctx  *EvalContext
}

func newRefSelect(in rowIter, pred Expr, ctx *EvalContext) (rowIter, error) {
	if err := pred.Bind(in.Schema()); err != nil {
		return nil, err
	}
	return &refSelect{in: in, pred: pred, ctx: ctx}, nil
}

func (s *refSelect) Schema() *schema.Schema { return s.in.Schema() }

func (s *refSelect) Next() (relation.Tuple, bool, error) {
	for {
		t, ok, err := s.in.Next()
		if err != nil || !ok {
			return relation.Tuple{}, false, err
		}
		keep, err := ReferenceTruth(s.pred, t, s.ctx)
		if err != nil {
			return relation.Tuple{}, false, err
		}
		if keep {
			return t, true, nil
		}
	}
}

// refRename renames the stream's relation and/or columns. Empty relName
// keeps the old relation name; cols maps old to new column names and may
// be partial.
type refRename struct {
	in  rowIter
	out *schema.Schema
}

func newRefRename(in rowIter, relName string, cols map[string]string) (rowIter, error) {
	s := in.Schema().Clone()
	if relName != "" {
		s.Name = relName
	}
	for old, renamed := range cols {
		i := s.ColIndex(old)
		if i < 0 {
			return nil, fmt.Errorf("algebra: rename of unknown column %q", old)
		}
		s.Attrs[i].Name = renamed
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &refRename{in: in, out: s}, nil
}

func (r *refRename) Schema() *schema.Schema              { return r.out }
func (r *refRename) Next() (relation.Tuple, bool, error) { return r.in.Next() }
