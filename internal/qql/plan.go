package qql

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/algebra"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

// resolver maps (alias, attribute) pairs to output column names of the
// joined stream, so qualified references like c.name keep working after
// joins rename colliding columns.
type resolver struct {
	entries []resolverEntry
}

type resolverEntry struct {
	alias, attr, out string
}

func (r *resolver) addTable(alias string, s *schema.Schema) {
	for _, a := range s.Attrs {
		r.entries = append(r.entries, resolverEntry{alias: alias, attr: a.Name, out: a.Name})
	}
}

// addJoined registers the right side of a join given the combined output
// schema: its columns occupy the tail of the output in order.
func (r *resolver) addJoined(alias string, right *schema.Schema, combined *schema.Schema) {
	offset := len(combined.Attrs) - len(right.Attrs)
	for i := range right.Attrs {
		r.entries = append(r.entries, resolverEntry{
			alias: alias,
			attr:  right.Attrs[i].Name,
			out:   combined.Attrs[offset+i].Name,
		})
	}
}

// resolve maps a possibly qualified name to an output column name.
func (r *resolver) resolve(name string) (string, error) {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		alias, attr := name[:i], name[i+1:]
		for _, e := range r.entries {
			if e.alias == alias && e.attr == attr {
				return e.out, nil
			}
		}
		return "", fmt.Errorf("qql: unknown column %s", name)
	}
	var found []string
	for _, e := range r.entries {
		if e.attr == name {
			found = append(found, e.out)
		}
	}
	switch len(found) {
	case 1:
		return found[0], nil
	case 0:
		// The name may already be an output column (e.g. "stock_symbol").
		for _, e := range r.entries {
			if e.out == name {
				return name, nil
			}
		}
		return "", fmt.Errorf("qql: unknown column %s", name)
	default:
		if allSame(found) {
			return found[0], nil
		}
		return "", fmt.Errorf("qql: ambiguous column %s (qualify with an alias)", name)
	}
}

func allSame(s []string) bool {
	for _, v := range s[1:] {
		if v != s[0] {
			return false
		}
	}
	return true
}

// rewriteNames resolves qualified/ambiguous names inside an expression tree
// in place.
func (r *resolver) rewriteNames(e algebra.Expr) error {
	var firstErr error
	e.Walk(func(n algebra.Expr) {
		if firstErr != nil {
			return
		}
		switch v := n.(type) {
		case *algebra.ColRef:
			out, err := r.resolve(v.Name)
			if err != nil {
				firstErr = err
				return
			}
			v.Name = out
		case *algebra.IndRef:
			out, err := r.resolve(v.Col)
			if err != nil {
				firstErr = err
				return
			}
			v.Col = out
		case *algebra.MetaRef:
			out, err := r.resolve(v.Col)
			if err != nil {
				firstErr = err
				return
			}
			v.Col = out
		case *algebra.SrcContains:
			out, err := r.resolve(v.Col)
			if err != nil {
				firstErr = err
				return
			}
			v.Col = out
		}
	})
	return firstErr
}

// plan is the compiled form of a SELECT: a batch stream plus the EXPLAIN
// text.
type plan struct {
	bit   algebra.BatchIterator
	steps []string

	// analyze turns on per-operator instrumentation: every tapped operator
	// is wrapped so EXPLAIN ANALYZE can report actual rows/batches/time per
	// step. Plans built with analyze=false carry no wrappers and no stats —
	// the normal execution path pays nothing.
	analyze bool
	// stats[i] holds the actuals for steps[i]; empty for an un-analyzed
	// plan.
	stats []*algebra.OpStats
	// taps[i] is the instrument wrapper for steps[i], kept so operator
	// extra stats (parallel-scan worker occupancy) can be harvested after
	// execution.
	taps []algebra.BatchIterator
}

// tap records a step and, when the plan is analyzed, wraps the operator
// with a batch/row/time counter. setup charges eager constructor work (the
// hash join's build-side transpose) to the operator's actuals.
func (p *plan) tap(step string, bit algebra.BatchIterator, setup time.Duration) algebra.BatchIterator {
	p.steps = append(p.steps, step)
	if !p.analyze {
		return bit
	}
	st := &algebra.OpStats{Nanos: int64(setup)}
	wrapped := algebra.NewBatchInstrument(bit, st)
	p.stats = append(p.stats, st)
	p.taps = append(p.taps, wrapped)
	return wrapped
}

// harvestExtras copies operator-specific actuals (worker occupancy) out of
// the instrumented operators into their OpStats; call after execution.
func (p *plan) harvestExtras() {
	for i, tap := range p.taps {
		if ex, ok := tap.(algebra.ExtraStats); ok {
			if s := ex.ExtraStats(); s != "" {
				p.stats[i].Extra = s
			}
		}
	}
}

// release stops the plan's stream, freeing its background resources (scan
// workers, buffered segments); idempotent. Collect stops the stream it
// drains, so only a plan that is never drained — EXPLAIN — needs it.
func (p *plan) release() {
	if st, ok := p.bit.(algebra.Stopper); ok {
		st.Stop()
	}
}

// shape renders the plan as a compact one-line pipeline for logs.
func (p *plan) shape() string { return strings.Join(p.steps, " -> ") }

func (p *plan) explain() string {
	var b strings.Builder
	for i, s := range p.steps {
		b.WriteString(strings.Repeat("  ", i))
		if i > 0 {
			b.WriteString("-> ")
		}
		b.WriteString(s)
		b.WriteByte('\n')
	}
	return b.String()
}

// splitConjuncts flattens top-level ANDs.
func splitConjuncts(e algebra.Expr) []algebra.Expr {
	if l, ok := e.(*algebra.Logic); ok && l.Op == algebra.OpAnd {
		return append(splitConjuncts(l.L), splitConjuncts(l.R)...)
	}
	return []algebra.Expr{e}
}

// simplifyFilter splits a filter into conjuncts and constant-folds each
// (algebra.Simplify, at bind time — the tree is this execution's private
// clone). Conjuncts that fold to true are dropped — WHERE 1 = 1 loses its
// Select step entirely — and a conjunct that folds to any other constant
// (false, null, non-bool) can never be true, so the whole filter keeps
// nothing: neverTrue tells the caller to plan an empty scan. A nil filter
// yields no conjuncts.
//
// Deliberate semantics: a never-true filter is decided without evaluating
// its sibling conjuncts, so one that would error per row (1/0 = x, LIKE on
// an int) is skipped along with the scan — WHERE 1/0 = 1 AND 1 = 2 returns
// zero rows instead of a division error. That is the standard behavior of
// constant-folding planners (a one-time false filter suppresses row
// evaluation entirely), and DML collection shares this path, so SELECT and
// UPDATE/DELETE agree on which rows match. Simplify itself never folds
// an erroring subtree: when such a conjunct IS evaluated, the error still
// surfaces.
func simplifyFilter(e algebra.Expr) (conjuncts []algebra.Expr, neverTrue bool) {
	if e == nil {
		return nil, false
	}
	for _, c := range splitConjuncts(e) {
		sc := algebra.Simplify(c)
		if truth, decided := algebra.ConstTruth(sc); decided {
			if !truth {
				return nil, true
			}
			continue // definitely true: contributes nothing
		}
		conjuncts = append(conjuncts, sc)
	}
	return conjuncts, false
}

// andAll rebuilds a conjunction; nil for an empty list.
func andAll(es []algebra.Expr) algebra.Expr {
	var out algebra.Expr
	for _, e := range es {
		if out == nil {
			out = e
		} else {
			out = &algebra.Logic{Op: algebra.OpAnd, L: out, R: e}
		}
	}
	return out
}

// sarg describes one index-usable conjunct: target op const.
type sarg struct {
	target storage.IndexTarget
	op     algebra.CmpOp
	val    value.Value
	expr   algebra.Expr // the original conjunct
}

// extractSarg recognizes Cmp(colOrInd, const) and Cmp(const, colOrInd).
func extractSarg(e algebra.Expr) (sarg, bool) {
	cmp, ok := e.(*algebra.Cmp)
	if !ok {
		return sarg{}, false
	}
	targetOf := func(x algebra.Expr) (storage.IndexTarget, bool) {
		switch v := x.(type) {
		case *algebra.ColRef:
			return storage.IndexTarget{Attr: v.Name}, true
		case *algebra.IndRef:
			return storage.IndexTarget{Attr: v.Col, Indicator: v.Indicator}, true
		}
		return storage.IndexTarget{}, false
	}
	if t, ok := targetOf(cmp.L); ok {
		if c, ok := cmp.R.(*algebra.Const); ok {
			return sarg{target: t, op: cmp.Op, val: c.V, expr: e}, true
		}
	}
	if t, ok := targetOf(cmp.R); ok {
		if c, ok := cmp.L.(*algebra.Const); ok {
			return sarg{target: t, op: flipOp(cmp.Op), val: c.V, expr: e}, true
		}
	}
	return sarg{}, false
}

func flipOp(op algebra.CmpOp) algebra.CmpOp {
	switch op {
	case algebra.OpLt:
		return algebra.OpGt
	case algebra.OpLe:
		return algebra.OpGe
	case algebra.OpGt:
		return algebra.OpLt
	case algebra.OpGe:
		return algebra.OpLe
	default:
		return op // Eq, Ne symmetric
	}
}

// indexPath is an indexed access path: the index target, the [lo, hi]
// range to probe it with (storage.Table.Lookup), and the step description,
// still open for tableSource to add the filters and close.
type indexPath struct {
	target storage.IndexTarget
	lo, hi storage.Bound
	desc   string
}

// chooseIndexPath picks an indexed access path from a table's filter
// conjuncts — the one access-path decision of tableSource, so of SELECT and
// DML collection alike. ok is false when no index applies. The conjuncts it
// prunes by are not consumed: the index scan re-checks the filters on every
// row it reads, since rows are read after the probe and may have changed.
func chooseIndexPath(tbl *storage.Table, conjuncts []algebra.Expr) (indexPath, bool) {
	// Candidate targets in order of first use; a statement has a handful.
	type candidate struct {
		target        storage.IndexTarget
		ranged, hasEq bool
	}
	var buf [4]candidate
	cands := buf[:0]
	for _, c := range conjuncts {
		sg, ok := extractSarg(c)
		if !ok || sg.op == algebra.OpNe {
			continue
		}
		i := slices.IndexFunc(cands, func(c candidate) bool { return c.target == sg.target })
		if i < 0 {
			exists, ranged := tbl.HasIndex(sg.target)
			if !exists || (sg.op != algebra.OpEq && !ranged) {
				continue
			}
			cands = append(cands, candidate{target: sg.target, ranged: ranged})
			i = len(cands) - 1
		}
		cands[i].hasEq = cands[i].hasEq || sg.op == algebra.OpEq
	}
	if len(cands) == 0 {
		return indexPath{}, false
	}
	// Prefer a target with an equality sarg, else the first target, whose
	// first sarg was then a range.
	chosen := max(slices.IndexFunc(cands, func(c candidate) bool { return c.hasEq }), 0)
	target, ranged := cands[chosen].target, cands[chosen].ranged
	lo, hi := storage.Unbounded, storage.Unbounded
	var desc strings.Builder
	desc.WriteString("IndexScan(" + tbl.Schema().Name + " on " + target.String() + ": ")
	first := true
	for _, c := range conjuncts {
		sg, ok := extractSarg(c)
		if !ok || sg.target != target || sg.op == algebra.OpNe || (sg.op != algebra.OpEq && !ranged) {
			continue
		}
		switch sg.op {
		case algebra.OpEq:
			lo, hi = storage.Incl(sg.val), storage.Incl(sg.val)
		case algebra.OpGt:
			lo = tighterLow(lo, storage.Excl(sg.val))
		case algebra.OpGe:
			lo = tighterLow(lo, storage.Incl(sg.val))
		case algebra.OpLt:
			hi = tighterHigh(hi, storage.Excl(sg.val))
		case algebra.OpLe:
			hi = tighterHigh(hi, storage.Incl(sg.val))
		default:
			// OpNe never forms a sarg: an exclusion is not a range bound.
		}
		if !first {
			desc.WriteString(" AND ")
		}
		first = false
		desc.WriteString(sg.expr.String())
		if sg.op == algebra.OpEq {
			break // equality pins the range; stop accumulating
		}
	}
	return indexPath{target: target, lo: lo, hi: hi, desc: desc.String()}, true
}

func tighterLow(a, b storage.Bound) storage.Bound {
	if a.Unbounded {
		return b
	}
	if b.Unbounded {
		return a
	}
	c := value.Compare(a.Value, b.Value)
	if c > 0 || (c == 0 && !a.Inclusive) {
		return a
	}
	return b
}

func tighterHigh(a, b storage.Bound) storage.Bound {
	if a.Unbounded {
		return b
	}
	if b.Unbounded {
		return a
	}
	c := value.Compare(a.Value, b.Value)
	if c < 0 || (c == 0 && !a.Inclusive) {
		return a
	}
	return b
}

// segPrunes turns the sargable filter conjuncts into segment-skipping
// prunes for the columnar scan: column⊗constant comparisons whose
// per-segment min/max statistics can refute whole segments. Indicator
// targets carry no column statistics and a null constant never compares
// definitely-true, so both are skipped. The conjuncts are not consumed —
// pruning only drops segments where the predicate cannot hold for any
// row, and the Select above the scan still filters the survivors.
func segPrunes(conjuncts []algebra.Expr, sch *schema.Schema) []algebra.SegPrune {
	var out []algebra.SegPrune
	for _, c := range conjuncts {
		sg, ok := extractSarg(c)
		if !ok || sg.target.Indicator != "" || sg.val.IsNull() {
			continue
		}
		idx := sch.ColIndex(sg.target.Attr)
		if idx < 0 {
			continue
		}
		out = append(out, algebra.SegPrune{Col: idx, Op: sg.op, K: sg.val})
	}
	return out
}

// batchScanCols computes which base-table columns a single-table batch
// plan touches, so the columnar scan materializes only those: the filter
// conjuncts, the group keys, the select items and aggregate arguments, and
// — below the projection of a plan without aggregates — the ORDER BY keys.
// A star projection touches everything, and so does any name that resolves
// to no base column (conservative — it should not happen after prepare). A
// bare COUNT(*) legitimately requests zero columns: the batches then carry
// only their row count.
func batchScanCols(st *SelectStmt, sch *schema.Schema, conjuncts []algebra.Expr, hasAgg bool) []int {
	exprs := make([]algebra.Expr, 0, len(conjuncts)+len(st.GroupBy)+len(st.Items)+len(st.OrderBy))
	exprs = append(append(exprs, conjuncts...), st.GroupBy...)
	if !hasAgg {
		for _, o := range st.OrderBy {
			exprs = append(exprs, o.Expr)
		}
	}
	for _, item := range st.Items {
		switch {
		case item.Star:
			return sch.ColIndexes()
		case item.Agg != nil:
			if item.Agg.Arg != nil {
				exprs = append(exprs, item.Agg.Arg)
			}
		default:
			exprs = append(exprs, item.Expr)
		}
	}
	return exprCols(sch, exprs...)
}

// exprCols lists, ascending, the columns of sch that the expressions read
// — every column when a name resolves to none.
func exprCols(sch *schema.Schema, exprs ...algebra.Expr) []int {
	seen := make([]bool, len(sch.Attrs))
	n, all := 0, false
	visit := func(e algebra.Expr) {
		var name string
		switch v := e.(type) {
		case *algebra.ColRef:
			name = v.Name
		case *algebra.IndRef:
			name = v.Col
		case *algebra.MetaRef:
			name = v.Col
		case *algebra.SrcContains:
			name = v.Col
		default:
			return
		}
		switch idx := sch.ColIndex(name); {
		case idx < 0:
			all = true
		case !seen[idx]:
			seen[idx] = true
			n++
		}
	}
	for _, e := range exprs {
		e.Walk(visit)
	}
	if all {
		return sch.ColIndexes()
	}
	cols := make([]int, 0, n)
	for idx, ok := range seen {
		if ok {
			cols = append(cols, idx)
		}
	}
	return cols
}

// equiJoinKeys recognizes an equi-join condition left.col = right.col where
// the two sides resolve into the two inputs. on names columns of joined,
// the join's output schema (left's columns, then right's, renamed where
// they collide); the keys it returns name each input's own columns, found
// by position.
func equiJoinKeys(on algebra.Expr, left, right, joined *schema.Schema) (lk, rk algebra.Expr, residual algebra.Expr, ok bool) {
	// input maps a joined column to the input it comes from (0 left, 1
	// right, -1 neither) and its name there.
	input := func(name string) (int, string) {
		switch i := joined.ColIndex(name); {
		case i < 0:
			return -1, ""
		case i < len(left.Attrs):
			return 0, name
		default:
			return 1, right.Attrs[i-len(left.Attrs)].Name
		}
	}
	conjuncts := splitConjuncts(on)
	var rest []algebra.Expr
	for _, c := range conjuncts {
		if lk != nil {
			rest = append(rest, c)
			continue
		}
		cmp, isCmp := c.(*algebra.Cmp)
		if !isCmp || cmp.Op != algebra.OpEq {
			rest = append(rest, c)
			continue
		}
		lref, lok := cmp.L.(*algebra.ColRef)
		rref, rok := cmp.R.(*algebra.ColRef)
		if !lok || !rok {
			rest = append(rest, c)
			continue
		}
		li, lname := input(lref.Name)
		ri, rname := input(rref.Name)
		switch {
		case li == 0 && ri == 1:
			lk, rk = &algebra.ColRef{Name: lname}, &algebra.ColRef{Name: rname}
		case li == 1 && ri == 0:
			lk, rk = &algebra.ColRef{Name: rname}, &algebra.ColRef{Name: lname}
		default:
			rest = append(rest, c)
		}
	}
	if lk == nil {
		return nil, nil, nil, false
	}
	return lk, rk, andAll(rest), true
}

// preparedSelect is the bound-plan cache artifact: a SELECT whose names
// have been fully resolved against one generation of the referenced
// tables' schemas, plus the (catalog, table, schema version) triple that
// resolution assumed. The statement is pristine — it is never executed,
// only cloned — so a cached prepared plan can be instantiated concurrently
// by many sessions without sharing mutable expression or iterator state.
type preparedSelect struct {
	stmt     *SelectStmt // resolved; clone before building
	cat      *storage.Catalog
	tables   []string // referenced table names, FROM first
	versions []uint64 // schema versions captured atomically with the tables
}

// boundTables pairs a plan's referenced table names (FROM first) with the
// tables Catalog.Resolve returned for them, aligned by index.
type boundTables struct {
	names  []string
	tables []*storage.Table
}

// get finds a table by name. A SELECT references only its FROM table and
// its joins, so a linear scan beats building a map per execution.
func (b boundTables) get(name string) (*storage.Table, bool) {
	for i, n := range b.names {
		if n == name {
			return b.tables[i], true
		}
	}
	return nil, false
}

// referencedTables lists the distinct tables the SELECT reads, FROM first.
func referencedTables(st *SelectStmt) []string {
	names := []string{st.From.Table}
	for _, j := range st.Joins {
		if !slices.Contains(names, j.Ref.Table) {
			names = append(names, j.Ref.Table)
		}
	}
	return names
}

// aliasedSchema returns the schema under the stream name the build phase
// will give it via NewBatchRename; join collision-renaming depends on it.
func aliasedSchema(s *schema.Schema, alias string) *schema.Schema {
	if alias == "" || alias == s.Name {
		return s
	}
	c := s.Clone()
	c.Name = alias
	return c
}

// prepareSelect resolves st's names in place against the current schemas of
// every referenced table and captures those tables and their schema
// versions (read atomically, before resolution — a version read later than
// its schema could tag a plan compiled against the old schema with the new
// version, making a stale plan validate). The returned prepared plan owns
// st; the bound tables feed an immediate buildSelect of the same generation.
func (s *Session) prepareSelect(st *SelectStmt) (*preparedSelect, boundTables, error) {
	if s.analyze {
		defer func(t0 time.Time) { s.prepDur = time.Since(t0) }(time.Now())
	}
	names := referencedTables(st)
	resolved, versions, missing := s.cat.Resolve(names)
	if missing != "" {
		return nil, boundTables{}, fmt.Errorf("qql: unknown table %q", missing)
	}

	tables := boundTables{names: names, tables: resolved}
	base := resolved[0].Schema() // referencedTables lists FROM first
	res := &resolver{}
	if len(st.Joins) == 0 {
		res.addTable(st.From.Alias, base)
	} else {
		cur := aliasedSchema(base, st.From.Alias)
		res.addTable(st.From.Alias, cur)
		for _, j := range st.Joins {
			rtbl, _ := tables.get(j.Ref.Table)
			right := aliasedSchema(rtbl.Schema(), j.Ref.Alias)
			combined, err := algebra.JoinSchema(cur, right)
			if err != nil {
				return nil, boundTables{}, err
			}
			// ON resolves against the joined schema, the one the join
			// binds its residual against: a right column whose name
			// collides with an earlier one is <alias>_<col> there.
			// equiJoinKeys maps right-side keys back to the right schema.
			res.addJoined(j.Ref.Alias, right, combined)
			if err := res.rewriteNames(j.On); err != nil {
				return nil, boundTables{}, err
			}
			cur = combined
		}
	}

	if st.Where != nil {
		if err := res.rewriteNames(st.Where); err != nil {
			return nil, boundTables{}, err
		}
	}
	if st.Quality != nil {
		if err := res.rewriteNames(st.Quality); err != nil {
			return nil, boundTables{}, err
		}
	}

	hasAgg := len(st.GroupBy) > 0
	for _, item := range st.Items {
		if item.Agg != nil {
			hasAgg = true
		}
	}
	if hasAgg {
		for _, g := range st.GroupBy {
			if err := res.rewriteNames(g); err != nil {
				return nil, boundTables{}, err
			}
		}
		for _, item := range st.Items {
			switch {
			case item.Star:
				// Rejected at build time: * cannot combine with aggregates.
			case item.Agg != nil:
				if item.Agg.Arg != nil {
					if err := res.rewriteNames(item.Agg.Arg); err != nil {
						return nil, boundTables{}, err
					}
				}
			default:
				if err := res.rewriteNames(item.Expr); err != nil {
					return nil, boundTables{}, err
				}
			}
		}
		// ORDER BY in the aggregate path binds against the aggregate's
		// output columns, not the input schema: no resolution here.
	} else {
		for _, item := range st.Items {
			if item.Star {
				continue // expanded against the stream schema at build time
			}
			if err := res.rewriteNames(item.Expr); err != nil {
				return nil, boundTables{}, err
			}
		}
		// ORDER BY may reference projection aliases; substitute their
		// definitions, then resolve what remains. Star expansions are plain
		// column references and never substituted.
		pseudo := make([]algebra.ProjectItem, 0, len(st.Items))
		for _, item := range st.Items {
			if item.Star {
				continue
			}
			as := item.As
			if as == "" {
				if cr, ok := item.Expr.(*algebra.ColRef); ok {
					as = cr.Name
				}
			}
			pseudo = append(pseudo, algebra.ProjectItem{Expr: item.Expr, As: as})
		}
		for i := range st.OrderBy {
			substituteAliases(st.OrderBy[i].Expr, pseudo, &st.OrderBy[i].Expr)
			if err := res.rewriteNames(st.OrderBy[i].Expr); err != nil {
				return nil, boundTables{}, err
			}
		}
	}
	return &preparedSelect{stmt: st, cat: s.cat, tables: names, versions: versions}, tables, nil
}

// planSelect compiles a SELECT in one shot: prepare (name resolution +
// version capture) then build. Plan-cache hits skip the prepare phase and
// build straight from a clone of the cached prepared statement.
func (s *Session) planSelect(st *SelectStmt) (*plan, error) {
	prep, tables, err := s.prepareSelect(st)
	if err != nil {
		return nil, err
	}
	return s.buildSelect(prep.stmt, tables)
}

// buildSelect compiles a resolved SELECT into an iterator pipeline over the
// given tables. It never resolves names — prepareSelect has already
// rewritten every reference to an output column name — so it is re-entrant
// over clones of one cached prepared statement: each build binds its own
// private expression copies and constructs fresh iterators.
func (s *Session) buildSelect(st *SelectStmt, tables boundTables) (*plan, error) {
	if s.analyze {
		defer func(t0 time.Time) { s.buildDur = time.Since(t0) }(time.Now())
	}
	// Most plans are three or four steps.
	p := &plan{analyze: s.analyze, steps: make([]string, 0, 4)}

	baseTable, ok := tables.get(st.From.Table)
	if !ok {
		return nil, fmt.Errorf("qql: unknown table %q", st.From.Table)
	}

	hasAgg := len(st.GroupBy) > 0
	for _, item := range st.Items {
		if item.Agg != nil {
			hasAgg = true
		}
	}
	// A scan feeding a Sort or an Aggregate is always drained; under a bare
	// LIMIT the consumer stops early, and the inline scan (one window at a
	// time) beats fan-out workers (parallelDegree).
	consumesAll := st.Limit < 0 || len(st.OrderBy) > 0 || hasAgg

	whereConjuncts, whereNever := simplifyFilter(st.Where)
	qualityConjuncts, qualityNever := simplifyFilter(st.Quality)
	all := append(append([]algebra.Expr(nil), whereConjuncts...), qualityConjuncts...)

	// bit is the batch stream the plan runs on, from its source to its
	// last step.
	var bit algebra.BatchIterator
	switch {
	case whereNever || qualityNever:
		// A filter simplified to a constant that is not true keeps no rows:
		// skip the access path and any join, keeping the schema they would
		// have produced.
		sch := aliasedSchema(baseTable.Schema(), st.From.Alias)
		desc := fmt.Sprintf("EmptyScan(%s)", st.From.Table)
		for _, j := range st.Joins {
			rtbl, ok := tables.get(j.Ref.Table)
			if !ok {
				return nil, fmt.Errorf("qql: unknown table %q", j.Ref.Table)
			}
			var err error
			if sch, err = algebra.JoinSchema(sch, aliasedSchema(rtbl.Schema(), j.Ref.Alias)); err != nil {
				return nil, err
			}
			desc = "EmptyScan(join: filter is never true)"
		}
		bit = p.tap(desc, algebra.NewRelationScan(relation.New(sch), s.batchSize), 0)
	case len(st.Joins) > 0:
		// A join's filters run above it, WHERE then WITH QUALITY.
		var err error
		if bit, err = s.planJoins(st, tables, baseTable, all, hasAgg, p, consumesAll); err != nil {
			return nil, err
		}
		if pred := andAll(whereConjuncts); pred != nil {
			if bit, err = algebra.NewBatchSelect(bit, pred, s.ctx); err != nil {
				return nil, err
			}
			bit = p.tap("BatchSelect("+pred.String()+")", bit, 0)
		}
		if pred := andAll(qualityConjuncts); pred != nil {
			if bit, err = algebra.NewBatchSelect(bit, pred, s.ctx); err != nil {
				return nil, err
			}
			bit = p.tap("BatchQualitySelect("+pred.String()+")", bit, 0)
		}
	default:
		// Every single-table source is a zero-clone column read that views
		// only the columns the plan touches and carries the filters.
		// Zero-clone reads are safe because every row that reaches the
		// result passes through a projection or aggregation that rebuilds
		// its cells.
		cols := batchScanCols(st, baseTable.Schema(), all, hasAgg)
		src, desc, err := s.tableSource(baseTable, cols, whereConjuncts, qualityConjuncts, s.parallelDegree(baseTable, consumesAll))
		if err != nil {
			return nil, err
		}
		bit = p.tap(desc, src, 0)
		if st.From.Alias != st.From.Table {
			bit = algebra.NewBatchRename(bit, st.From.Alias)
		}
	}

	// The tail. ORDER BY sorts below a plain projection, so it can read
	// columns the projection drops (alias substitution and resolution
	// happened at prepare time), and above an aggregate's projection, whose
	// output columns it names.
	var items []algebra.ProjectItem
	var err error
	if hasAgg {
		if bit, items, err = s.planAggregate(st, bit, p); err != nil {
			return nil, err
		}
	} else {
		items = projectionItems(st, bit.Schema())
		if bit, err = s.planSort(st, bit, p); err != nil {
			return nil, err
		}
	}
	proj, err := algebra.NewBatchProject(bit, items, s.ctx, s.batchSize)
	if err != nil {
		return nil, err
	}
	bit = p.tap("BatchProject("+itemsDesc(items)+")", proj, 0)
	if hasAgg {
		if bit, err = s.planSort(st, bit, p); err != nil {
			return nil, err
		}
	}
	if st.Distinct {
		bit = p.tap("Distinct", algebra.NewDistinct(bit), 0)
	}
	if st.Limit >= 0 || st.Offset > 0 {
		// Stops pulling — and releases upstream buffers — the moment the
		// quota fills.
		bit = p.tap(fmt.Sprintf("Limit(%d, offset %d)", st.Limit, st.Offset), algebra.NewBatchLimit(bit, st.Limit, st.Offset), 0)
	}
	p.bit = bit
	return p, nil
}

// planSort orders the stream by the statement's ORDER BY keys, if any.
func (s *Session) planSort(st *SelectStmt, bit algebra.BatchIterator, p *plan) (algebra.BatchIterator, error) {
	if len(st.OrderBy) == 0 {
		return bit, nil
	}
	keys := make([]algebra.SortKey, len(st.OrderBy))
	for i, o := range st.OrderBy {
		keys[i] = algebra.SortKey{Expr: o.Expr, Desc: o.Desc}
	}
	sorted, err := algebra.NewSort(bit, keys, s.ctx, s.batchSize)
	if err != nil {
		return nil, err
	}
	return p.tap(fmt.Sprintf("Sort(%s)", orderDesc(st.OrderBy)), sorted, 0), nil
}

// tableSource plans the one read of a single table — a SELECT's source
// without joins and DML's collection alike — and returns it with its
// EXPLAIN step. An indexed sarg among the conjuncts makes it an index
// probe; otherwise it is a column scan at degree over one snapshot of the
// table, skipping the segments whose min/max statistics refute a
// conjunct. Either way the source carries the filters, WHERE's conjuncts
// then WITH QUALITY's: a row is kept only when both are definitely true,
// and WITH QUALITY runs only on the rows WHERE kept.
func (s *Session) tableSource(tbl *storage.Table, cols []int, where, quality []algebra.Expr, degree int) (algebra.BatchIterator, string, error) {
	all := append(slices.Clip(where), quality...)
	w, q := andAll(where), andAll(quality)
	var buf [2]algebra.Expr
	filters := buf[:0]
	if w != nil {
		filters = append(filters, w)
	}
	if q != nil {
		filters = append(filters, q)
	}
	if ip, ok := chooseIndexPath(tbl, all); ok {
		src, err := algebra.NewIndexScan(tbl, ip.target, ip.lo, ip.hi, s.batchSize, cols, filters, s.ctx)
		return src, sourceDesc(ip.desc, w, q), err
	}
	head := "BatchTableScan(" + tbl.Schema().Name
	if degree > 1 {
		head = fmt.Sprintf("ParallelScan(%s, ×%d", tbl.Schema().Name, degree)
	}
	src, err := algebra.NewTableScan(tbl, degree, s.batchSize, cols, segPrunes(all, tbl.Schema()), filters, s.ctx)
	return src, sourceDesc(head, w, q), err
}

// sourceDesc closes a source step's head with its filters.
func sourceDesc(head string, where, quality algebra.Expr) string {
	switch {
	case where != nil && quality != nil:
		return head + " WHERE " + where.String() + " WITH QUALITY " + quality.String() + ")"
	case where != nil:
		return head + " WHERE " + where.String() + ")"
	case quality != nil:
		return head + " WITH QUALITY " + quality.String() + ")"
	}
	return head + ")"
}

// parallelDegree decides the fan-out for scanning tbl: the session's
// parallelism clamped to the segment count, and 1 (inline) for a scan its
// consumer may stop early (drained false) or a table that does not span
// multiple heap segments — fan-out overhead only pays off once there is
// more than one segment's worth of rows to split, and workers would load
// and filter segments an early-stopping consumer never reads.
func (s *Session) parallelDegree(tbl *storage.Table, drained bool) int {
	if !drained || s.par <= 1 || tbl.Len() <= storage.SegmentSize {
		return 1
	}
	if n := tbl.Segments(); s.par > n {
		return n
	}
	return s.par
}

// projectionItems expands stars against the stream schema; item
// expressions were resolved at prepare time.
func projectionItems(st *SelectStmt, cur *schema.Schema) []algebra.ProjectItem {
	items := make([]algebra.ProjectItem, 0, len(st.Items))
	for _, item := range st.Items {
		if item.Star {
			for _, a := range cur.Attrs {
				items = append(items, algebra.ProjectItem{Expr: &algebra.ColRef{Name: a.Name}, As: a.Name})
			}
			continue
		}
		as := item.As
		if as == "" {
			if cr, ok := item.Expr.(*algebra.ColRef); ok {
				as = cr.Name
			}
		}
		items = append(items, algebra.ProjectItem{Expr: item.Expr, As: as})
	}
	return items
}

// substituteAliases replaces a bare ColRef matching a projection alias with
// that item's expression.
func substituteAliases(e algebra.Expr, items []algebra.ProjectItem, slot *algebra.Expr) {
	if cr, ok := e.(*algebra.ColRef); ok {
		for _, it := range items {
			if it.As == cr.Name {
				if _, isCol := it.Expr.(*algebra.ColRef); !isCol {
					*slot = it.Expr
				}
				return
			}
		}
	}
}

func orderDesc(items []OrderItem) string {
	parts := make([]string, len(items))
	for i, o := range items {
		parts[i] = o.Expr.String()
		if o.Desc {
			parts[i] += " DESC"
		}
	}
	return strings.Join(parts, ", ")
}

func itemsDesc(items []algebra.ProjectItem) string {
	parts := make([]string, len(items))
	for i, it := range items {
		parts[i] = it.As
	}
	return strings.Join(parts, ", ")
}

// collectAggSpecs gathers the aggregate specs and the final projection of
// an aggregate-path SELECT; every input-schema name was resolved at
// prepare time.
func collectAggSpecs(st *SelectStmt) (aggs []algebra.AggSpec, finalItems []algebra.ProjectItem, err error) {
	for _, item := range st.Items {
		if item.Star {
			return nil, nil, fmt.Errorf("qql: * cannot be combined with aggregates")
		}
	}
	// Compute group-by output column names exactly as the aggregate
	// operators will.
	groupNames := make([]string, len(st.GroupBy))
	for i, g := range st.GroupBy {
		name := g.String()
		if cr, ok := g.(*algebra.ColRef); ok {
			name = cr.Name
		} else if strings.ContainsAny(name, " @.()'") {
			name = fmt.Sprintf("group%d", i+1)
		}
		groupNames[i] = name
	}

	finalItems = make([]algebra.ProjectItem, 0, len(st.Items))
	aggCounter := 0
	for _, item := range st.Items {
		if item.Agg != nil {
			aggCounter++
			as := item.As
			if as == "" {
				switch {
				case item.Agg.Arg == nil:
					as = "count"
				default:
					if cr, ok := item.Agg.Arg.(*algebra.ColRef); ok {
						as = strings.ToLower([...]string{"count", "sum", "avg", "min", "max"}[item.Agg.Fn]) + "_" + cr.Name
					} else {
						as = fmt.Sprintf("agg%d", aggCounter)
					}
				}
			}
			aggs = append(aggs, algebra.AggSpec{Fn: item.Agg.Fn, Arg: item.Agg.Arg, As: as})
			finalItems = append(finalItems, algebra.ProjectItem{Expr: &algebra.ColRef{Name: as}, As: as})
			continue
		}
		// Non-aggregate item must match a group-by expression.
		matched := ""
		for i, g := range st.GroupBy {
			if g.String() == item.Expr.String() {
				matched = groupNames[i]
				break
			}
		}
		if matched == "" {
			return nil, nil, fmt.Errorf("qql: select item %s is neither aggregated nor grouped", item.Expr.String())
		}
		as := item.As
		if as == "" {
			as = matched
		}
		finalItems = append(finalItems, algebra.ProjectItem{Expr: &algebra.ColRef{Name: matched}, As: as})
	}
	return aggs, finalItems, nil
}

// planAggregate compiles the aggregate sink over a batch stream and
// returns it with the final projection of its output. Global aggregates
// sink the stream directly — COUNT(*) never touches a row. Grouped
// aggregation reads plain-column group keys and aggregate arguments
// straight off the column vectors, with no row assembled before the
// per-group fold. Both sinks drain their input on their first pull.
func (s *Session) planAggregate(st *SelectStmt, bit algebra.BatchIterator, p *plan) (algebra.BatchIterator, []algebra.ProjectItem, error) {
	aggs, finalItems, err := collectAggSpecs(st)
	if err != nil {
		return nil, nil, err
	}
	var agg algebra.BatchIterator
	var desc string
	if len(st.GroupBy) == 0 {
		agg, err = algebra.NewBatchAggregate(bit, aggs, s.ctx, s.batchSize)
		desc = fmt.Sprintf("BatchAggregate(%d aggregate(s))", len(aggs))
	} else {
		agg, err = algebra.NewBatchGroupedAggregate(bit, st.GroupBy, aggs, s.ctx, s.batchSize)
		desc = fmt.Sprintf("BatchGroupedAggregate(group by %d key(s), %d aggregate(s))", len(st.GroupBy), len(aggs))
	}
	if err != nil {
		return nil, nil, err
	}
	return p.tap(desc, agg, 0), finalItems, nil
}

// planJoins builds the join chain left-deep: the FROM table streams as
// column batches from tableSource (fanned out when the table is large
// enough and the plan drains it), and each JOIN drains its table into the
// columnar build side of one batch hash join, keyed by the equi-key
// equiJoinKeys finds against the schema joined so far. A join with no
// equi-key runs the same operator with constant true keys and the whole ON
// clause as its residual: a nested-loop join. The filters and aggregates
// above the joined stream run on batch operators too. Only the columns the
// plan reads travel: each join emits what the operators above it read —
// batchScanCols over the final joined schema, plus the ON clauses of the
// joins above — and each scan views its share of that and of its own ON
// clause.
func (s *Session) planJoins(st *SelectStmt, tables boundTables, baseTable *storage.Table, conjuncts []algebra.Expr, hasAgg bool, p *plan, consumesAll bool) (algebra.BatchIterator, error) {
	// Every joined schema is a prefix of the final one, names included
	// (only right-side columns are renamed), so ON clauses resolve there.
	// Join k's right side takes final columns [offs[k], offs[k+1]).
	rights := make([]*storage.Table, len(st.Joins))
	final := aliasedSchema(baseTable.Schema(), st.From.Alias)
	offs := []int{len(final.Attrs)}
	for i, j := range st.Joins {
		rtbl, ok := tables.get(j.Ref.Table)
		if !ok {
			return nil, fmt.Errorf("qql: unknown table %q", j.Ref.Table)
		}
		var err error
		if final, err = algebra.JoinSchema(final, aliasedSchema(rtbl.Schema(), j.Ref.Alias)); err != nil {
			return nil, err
		}
		rights[i] = rtbl
		offs = append(offs, len(final.Attrs))
	}
	// Walk the chain down from the top, marking what each join emits and
	// what each right side carries; the base scan carries what is left.
	read := make([]bool, len(final.Attrs))
	top := final.ColIndexes()
	if !s.joinAllCols {
		top = batchScanCols(st, final, conjuncts, hasAgg)
	}
	for _, c := range top {
		read[c] = true
	}
	// marked lists the marked columns in [lo, hi), shifted down by lo.
	marked := func(lo, hi int) []int {
		out := []int{}
		for c := lo; c < hi; c++ {
			if read[c] {
				out = append(out, c-lo)
			}
		}
		return out
	}
	emits := make([][]int, len(st.Joins))
	rightCols := make([][]int, len(st.Joins))
	for k := len(st.Joins) - 1; k >= 0; k-- {
		emits[k] = marked(0, offs[k+1])
		for _, c := range exprCols(final, st.Joins[k].On) {
			read[c] = true
		}
		rightCols[k] = marked(offs[k], offs[k+1])
	}

	left, desc, err := s.tableSource(baseTable, marked(0, offs[0]), nil, nil, s.parallelDegree(baseTable, consumesAll))
	if err != nil {
		return nil, err
	}
	left = p.tap(desc, left, 0)
	if st.From.Alias != st.From.Table {
		left = algebra.NewBatchRename(left, st.From.Alias)
	}
	for k, j := range st.Joins {
		right, rdesc, err := s.tableSource(rights[k], rightCols[k], nil, nil, 1)
		if err != nil {
			return nil, err
		}
		right = p.tap(rdesc, right, 0)
		if j.Ref.Alias != j.Ref.Table {
			right = algebra.NewBatchRename(right, j.Ref.Alias)
		}
		joinedSchema, err := algebra.JoinSchema(left.Schema(), right.Schema())
		if err != nil {
			return nil, err
		}
		lk, rk, residual, equi := equiJoinKeys(j.On, left.Schema(), right.Schema(), joinedSchema)
		var desc string
		if equi {
			desc = fmt.Sprintf("BatchHashJoin(%s: %s = %s)", j.Ref.Alias, lk.String(), rk.String())
		} else {
			lk, rk, residual = &algebra.Const{V: value.Bool(true)}, &algebra.Const{V: value.Bool(true)}, j.On
			desc = fmt.Sprintf("BatchNestedLoopJoin(%s ON %s)", j.Ref.Alias, j.On.String())
		}
		// The join drains and transposes its build side in the
		// constructor; charge that to the operator's actuals.
		t0 := time.Now()
		joined, err := algebra.NewBatchHashJoin(left, right, lk, rk, residual, emits[k], s.ctx, s.batchSize)
		if err != nil {
			return nil, err
		}
		left = p.tap(desc, joined, time.Since(t0))
	}
	return left, nil
}
