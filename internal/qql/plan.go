package qql

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/algebra"
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

// plan is the compiled form of a SELECT: an iterator plus the EXPLAIN text.
type plan struct {
	it    algebra.Iterator
	steps []string
	// stop releases background scan resources (parallel workers, buffered
	// segments); nil when the pipeline holds none.
	stop func()

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
	taps []any
}

// tapIt records a step produced by a row operator and, when the plan is
// analyzed, wraps the operator with a row/time counter. setup charges
// constructor work (an eager aggregate drain) to the operator's actuals.
func (p *plan) tapIt(step string, it algebra.Iterator, setup time.Duration) algebra.Iterator {
	p.steps = append(p.steps, step)
	if !p.analyze {
		return it
	}
	st := &algebra.OpStats{Nanos: int64(setup)}
	wrapped := algebra.NewInstrument(it, st)
	p.stats = append(p.stats, st)
	p.taps = append(p.taps, wrapped)
	return wrapped
}

// tapBit is tapIt for batch operators; setup charges eager constructor
// work (the hash join's build-side transpose) to the operator's actuals.
func (p *plan) tapBit(step string, bit algebra.BatchIterator, setup time.Duration) algebra.BatchIterator {
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

// release deterministically frees the plan's background resources; safe to
// call always (idempotent, nil-tolerant). Executors call it once the
// iterator will no longer be pulled — in particular after a mid-stream
// error, where relying on the finalizer would park workers until GC.
func (p *plan) release() {
	if p.stop != nil {
		p.stop()
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
// range to probe it with (storage.Table.Lookup), and the step description.
type indexPath struct {
	target storage.IndexTarget
	lo, hi storage.Bound
	desc   string
}

// chooseIndexPath picks an indexed access path from a table's filter
// conjuncts — the one access-path decision of both SELECT (which wraps it
// in algebra.NewIndexScan) and DML collection (which probes it for a
// row-ID list). ok is false when no index applies. The conjuncts it prunes
// by are not consumed: callers re-check the whole predicate on every
// fetched row, since rows are fetched after the probe and may have changed.
func chooseIndexPath(tbl *storage.Table, conjuncts []algebra.Expr) (indexPath, bool) {
	type candidate struct {
		target storage.IndexTarget
		sargs  []sarg
		ranged bool
	}
	byTarget := map[storage.IndexTarget]*candidate{}
	var order []storage.IndexTarget
	for _, c := range conjuncts {
		sg, ok := extractSarg(c)
		if !ok || sg.op == algebra.OpNe {
			continue
		}
		exists, ranged := tbl.HasIndex(sg.target)
		if !exists {
			continue
		}
		if sg.op != algebra.OpEq && !ranged {
			continue
		}
		cand, ok := byTarget[sg.target]
		if !ok {
			cand = &candidate{target: sg.target, ranged: ranged}
			byTarget[sg.target] = cand
			order = append(order, sg.target)
		}
		cand.sargs = append(cand.sargs, sg)
	}
	// Prefer a target with an equality sarg, else the first range target.
	var chosen *candidate
	for _, t := range order {
		c := byTarget[t]
		for _, sg := range c.sargs {
			if sg.op == algebra.OpEq {
				chosen = c
				break
			}
		}
		if chosen != nil {
			break
		}
	}
	if chosen == nil && len(order) > 0 {
		chosen = byTarget[order[0]]
	}
	if chosen == nil {
		return indexPath{}, false
	}
	lo, hi := storage.Unbounded, storage.Unbounded
	var descParts []string
	for _, sg := range chosen.sargs {
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
		descParts = append(descParts, sg.expr.String())
		if sg.op == algebra.OpEq {
			break // equality pins the range; stop accumulating
		}
	}
	desc := fmt.Sprintf("IndexScan(%s on %s: %s)", tbl.Schema().Name, chosen.target, strings.Join(descParts, " AND "))
	return indexPath{target: chosen.target, lo: lo, hi: hi, desc: desc}, true
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
// plan touches, so the columnar scan materializes only those. A sort
// reads whole rows (the batch section closes before ORDER BY in the
// non-aggregate path) and a star projection touches everything, so both
// request the full column list; so does any name that resolves to no base
// column (conservative — it should not happen after prepare). A bare
// COUNT(*) legitimately requests zero columns: the batches then carry
// only their row count.
func batchScanCols(st *SelectStmt, sch *schema.Schema, conjuncts []algebra.Expr, hasAgg bool) []int {
	if !hasAgg && len(st.OrderBy) > 0 {
		return sch.ColIndexes()
	}
	seen := make(map[int]bool, len(sch.Attrs))
	cols := []int{}
	all := false
	addName := func(name string) {
		idx := sch.ColIndex(name)
		if idx < 0 {
			all = true
			return
		}
		if !seen[idx] {
			seen[idx] = true
			cols = append(cols, idx)
		}
	}
	addExpr := func(e algebra.Expr) {
		e.Walk(func(n algebra.Expr) {
			switch v := n.(type) {
			case *algebra.ColRef:
				addName(v.Name)
			case *algebra.IndRef:
				addName(v.Col)
			case *algebra.MetaRef:
				addName(v.Col)
			case *algebra.SrcContains:
				addName(v.Col)
			}
		})
	}
	for _, c := range conjuncts {
		addExpr(c)
	}
	for _, g := range st.GroupBy {
		addExpr(g)
	}
	for _, item := range st.Items {
		switch {
		case item.Star:
			all = true
		case item.Agg != nil:
			if item.Agg.Arg != nil {
				addExpr(item.Agg.Arg)
			}
		default:
			addExpr(item.Expr)
		}
	}
	if all {
		return sch.ColIndexes()
	}
	sort.Ints(cols)
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

// referencedTables lists the distinct tables the SELECT reads, FROM first.
func referencedTables(st *SelectStmt) []string {
	names := []string{st.From.Table}
	seen := map[string]bool{st.From.Table: true}
	for _, j := range st.Joins {
		if !seen[j.Ref.Table] {
			seen[j.Ref.Table] = true
			names = append(names, j.Ref.Table)
		}
	}
	return names
}

// aliasedSchema returns the schema under the stream name the build phase
// will give it via NewRename; join collision-renaming depends on it.
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
// st; the table map feeds an immediate buildSelect of the same generation.
func (s *Session) prepareSelect(st *SelectStmt) (*preparedSelect, map[string]*storage.Table, error) {
	if s.analyze {
		defer func(t0 time.Time) { s.prepDur = time.Since(t0) }(time.Now())
	}
	names := referencedTables(st)
	tables, versions, missing := s.cat.Resolve(names)
	if missing != "" {
		return nil, nil, fmt.Errorf("qql: unknown table %q", missing)
	}

	res := &resolver{}
	if len(st.Joins) == 0 {
		res.addTable(st.From.Alias, tables[st.From.Table].Schema())
	} else {
		cur := aliasedSchema(tables[st.From.Table].Schema(), st.From.Alias)
		res.addTable(st.From.Alias, cur)
		for _, j := range st.Joins {
			right := aliasedSchema(tables[j.Ref.Table].Schema(), j.Ref.Alias)
			combined, err := algebra.JoinSchema(cur, right)
			if err != nil {
				return nil, nil, err
			}
			// ON resolves against the joined schema, the one the join
			// binds its residual against: a right column whose name
			// collides with an earlier one is <alias>_<col> there.
			// equiJoinKeys maps right-side keys back to the right schema.
			res.addJoined(j.Ref.Alias, right, combined)
			if err := res.rewriteNames(j.On); err != nil {
				return nil, nil, err
			}
			cur = combined
		}
	}

	if st.Where != nil {
		if err := res.rewriteNames(st.Where); err != nil {
			return nil, nil, err
		}
	}
	if st.Quality != nil {
		if err := res.rewriteNames(st.Quality); err != nil {
			return nil, nil, err
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
				return nil, nil, err
			}
		}
		for _, item := range st.Items {
			switch {
			case item.Star:
				// Rejected at build time: * cannot combine with aggregates.
			case item.Agg != nil:
				if item.Agg.Arg != nil {
					if err := res.rewriteNames(item.Agg.Arg); err != nil {
						return nil, nil, err
					}
				}
			default:
				if err := res.rewriteNames(item.Expr); err != nil {
					return nil, nil, err
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
				return nil, nil, err
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
				return nil, nil, err
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
func (s *Session) buildSelect(st *SelectStmt, tables map[string]*storage.Table) (*plan, error) {
	if s.analyze {
		defer func(t0 time.Time) { s.buildDur = time.Since(t0) }(time.Now())
	}
	p := &plan{analyze: s.analyze}

	baseTable, ok := tables[st.From.Table]
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
	// LIMIT the consumer stops early, and the lazy columnar scan (one
	// segment at a time) beats fan-out workers that would eagerly copy the
	// whole table into their output buffers.
	consumesAll := st.Limit < 0 || len(st.OrderBy) > 0 || hasAgg

	whereConjuncts, whereNever := simplifyFilter(st.Where)
	qualityConjuncts, qualityNever := simplifyFilter(st.Quality)

	// bit is the batch stream every plan runs on up to its sort/distinct
	// tail. it, the row stream, is set instead only by a non-aggregate index
	// plan: a point lookup is cheaper row-at-a-time than through batches.
	var it algebra.Iterator
	var bit algebra.BatchIterator
	switch {
	case whereNever || qualityNever:
		// A filter simplified to a constant that is not true keeps no rows:
		// skip the access path and any join, keeping the schema they would
		// have produced.
		sch := aliasedSchema(baseTable.Schema(), st.From.Alias)
		desc := fmt.Sprintf("EmptyScan(%s)", st.From.Table)
		for _, j := range st.Joins {
			rtbl, ok := tables[j.Ref.Table]
			if !ok {
				return nil, fmt.Errorf("qql: unknown table %q", j.Ref.Table)
			}
			var err error
			if sch, err = algebra.JoinSchema(sch, aliasedSchema(rtbl.Schema(), j.Ref.Alias)); err != nil {
				return nil, err
			}
			desc = "EmptyScan(join: filter is never true)"
		}
		bit = algebra.NewToBatch(p.tapIt(desc, algebra.NewEmptyScan(sch), 0), s.batchSize)
		whereConjuncts, qualityConjuncts = nil, nil
	case len(st.Joins) > 0:
		var err error
		if bit, err = s.planJoins(st, tables, baseTable, p, consumesAll); err != nil {
			return nil, err
		}
	default:
		all := append(append([]algebra.Expr(nil), whereConjuncts...), qualityConjuncts...)
		if ip, ok := chooseIndexPath(baseTable, all); ok {
			// The sarg conjuncts stay in the Select below even though the
			// index already pruned by them: the lazy index scan fetches
			// tuples at pull time, so a row updated after the index lookup
			// could otherwise slip into the result no longer satisfying the
			// predicate. Re-checking is cheap relative to the pruning win.
			ix, err := algebra.NewIndexScan(baseTable, ip.target, ip.lo, ip.hi)
			if err != nil {
				return nil, err
			}
			it = p.tapIt(ip.desc, ix, 0)
			if hasAgg {
				// Aggregates always run on the batch sinks.
				bit, it = algebra.NewToBatch(it, s.batchSize), nil
			}
		} else if degree := s.parallelDegree(baseTable); degree > 1 && consumesAll {
			// Large unindexed scan: workers filter their segments with the
			// fused WHERE and WITH QUALITY conjunction, the merge stays
			// row-ID-ordered, and batching picks up at the merge output.
			fused := andAll(all)
			pit, err := algebra.NewParallelScan(baseTable, degree, fused, s.ctx)
			if err != nil {
				return nil, err
			}
			desc := fmt.Sprintf("ParallelScan(%s, ×%d)", st.From.Table, degree)
			if fused != nil {
				desc = fmt.Sprintf("ParallelScan(%s, ×%d: %s)", st.From.Table, degree, fused.String())
			}
			bit = algebra.NewToBatch(p.tapIt(desc, pit, 0), s.batchSize)
			whereConjuncts, qualityConjuncts = nil, nil
		} else {
			// Serial columnar scan over zero-clone segment reads: materialize
			// only the columns the plan touches, and skip whole segments
			// whose min/max statistics refute a sargable conjunct. The
			// conjuncts are not consumed — pruning only removes segments
			// where the predicate cannot hold for any row, and the
			// BatchSelect below still filters the survivors. Zero-clone reads
			// are safe because every row that reaches the result passes
			// through a projection or aggregation that rebuilds its cells.
			cols := batchScanCols(st, baseTable.Schema(), all, hasAgg)
			bit = p.tapBit(fmt.Sprintf("BatchTableScan(%s)", st.From.Table), algebra.NewBatchColScan(baseTable, s.batchSize, cols, segPrunes(all, baseTable.Schema())), 0)
		}
		if st.From.Alias != st.From.Table {
			if bit != nil {
				bit = algebra.NewBatchRename(bit, st.From.Alias)
			} else {
				var err error
				if it, err = algebra.NewRename(it, st.From.Alias, nil); err != nil {
					return nil, err
				}
			}
		}
	}

	if pred := andAll(whereConjuncts); pred != nil {
		if bit != nil {
			nb, err := algebra.NewBatchSelect(bit, pred, s.ctx)
			if err != nil {
				return nil, err
			}
			bit = p.tapBit(fmt.Sprintf("BatchSelect(%s)", pred.String()), nb, 0)
		} else {
			ni, err := algebra.NewSelect(it, pred, s.ctx)
			if err != nil {
				return nil, err
			}
			it = p.tapIt(fmt.Sprintf("Select(%s)", pred.String()), ni, 0)
		}
	}
	if pred := andAll(qualityConjuncts); pred != nil {
		if bit != nil {
			nb, err := algebra.NewBatchSelect(bit, pred, s.ctx)
			if err != nil {
				return nil, err
			}
			bit = p.tapBit(fmt.Sprintf("BatchQualitySelect(%s)", pred.String()), nb, 0)
		} else {
			ni, err := algebra.NewSelect(it, pred, s.ctx)
			if err != nil {
				return nil, err
			}
			it = p.tapIt(fmt.Sprintf("QualitySelect(%s)", pred.String()), ni, 0)
		}
	}

	if hasAgg {
		return s.planAggregate(st, bit, p)
	}

	// Plain projection path. Expand stars against the current schema.
	var streamSchema *schema.Schema
	if bit != nil {
		streamSchema = bit.Schema()
	} else {
		streamSchema = it.Schema()
	}
	items := projectionItems(st, streamSchema)

	// ORDER BY runs before projection (so it can use non-projected
	// columns); alias substitution and resolution happened at prepare time.
	// Sorting is a row operator, so it closes the batch section.
	if len(st.OrderBy) > 0 && bit != nil {
		it = s.adoptFromBatch(bit, p)
		bit = nil
	}
	if len(st.OrderBy) > 0 {
		keys := make([]algebra.SortKey, len(st.OrderBy))
		for i, o := range st.OrderBy {
			keys[i] = algebra.SortKey{Expr: o.Expr, Desc: o.Desc}
		}
		ni, err := algebra.NewSort(it, keys, s.ctx)
		if err != nil {
			return nil, err
		}
		it = p.tapIt(fmt.Sprintf("Sort(%s)", orderDesc(st.OrderBy)), ni, 0)
	}

	if bit != nil {
		nb, err := algebra.NewBatchProject(bit, items, s.ctx, s.batchSize)
		if err != nil {
			return nil, err
		}
		bit = p.tapBit(fmt.Sprintf("BatchProject(%s)", itemsDesc(items)), nb, 0)
		if !st.Distinct && (st.Limit >= 0 || st.Offset > 0) {
			// Batch-native limit: stops pulling — and releases upstream
			// buffers — the moment the quota fills.
			bit = p.tapBit(fmt.Sprintf("Limit(%d, offset %d)", st.Limit, st.Offset), algebra.NewBatchLimit(bit, st.Limit, st.Offset), 0)
		}
		it = s.adoptFromBatch(bit, p)
		if st.Distinct {
			it = p.tapIt("Distinct", algebra.NewDistinct(it), 0)
			if st.Limit >= 0 || st.Offset > 0 {
				it = p.tapIt(fmt.Sprintf("Limit(%d, offset %d)", st.Limit, st.Offset), algebra.NewLimit(it, st.Limit, st.Offset), 0)
			}
		}
		p.it = it
		return p, nil
	}

	ni, err := algebra.NewProject(it, items, s.ctx)
	if err != nil {
		return nil, err
	}
	it = p.tapIt(fmt.Sprintf("Project(%s)", itemsDesc(items)), ni, 0)

	if st.Distinct {
		it = p.tapIt("Distinct", algebra.NewDistinct(it), 0)
	}
	if st.Limit >= 0 || st.Offset > 0 {
		limit := st.Limit
		if limit < 0 {
			limit = -1
		}
		it = p.tapIt(fmt.Sprintf("Limit(%d, offset %d)", st.Limit, st.Offset), algebra.NewLimit(it, limit, st.Offset), 0)
	}
	p.it = it
	return p, nil
}

// adoptFromBatch closes a plan's batch section: the adapter owns a pooled
// batch and its Stop propagates down through the batch operators to any
// scan workers, so plan.release tears the whole batch pipeline down
// deterministically.
func (s *Session) adoptFromBatch(bit algebra.BatchIterator, p *plan) algebra.Iterator {
	fb := algebra.NewFromBatch(bit, s.batchSize)
	if stopper, ok := fb.(algebra.Stopper); ok {
		p.stop = stopper.Stop
	}
	return fb
}

// parallelDegree decides the fan-out for scanning tbl: the session's
// parallelism clamped to the segment count, and 0 (serial) for tables that
// do not span multiple heap segments — fan-out overhead only pays off once
// there is more than one segment's worth of rows to split.
func (s *Session) parallelDegree(tbl *storage.Table) int {
	if s.par <= 1 || tbl.Len() <= storage.SegmentSize {
		return 0
	}
	if n := tbl.Segments(); s.par > n {
		return n
	}
	return s.par
}

// projectionItems expands stars against the stream schema; item
// expressions were resolved at prepare time.
func projectionItems(st *SelectStmt, cur *schema.Schema) []algebra.ProjectItem {
	var items []algebra.ProjectItem
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

// planAggregate compiles the aggregate path over a batch stream.
// Global aggregates sink the stream directly — COUNT(*) never touches a
// row. Grouped aggregation reads plain-column group keys and aggregate
// arguments straight off the column vectors, with no row assembled before
// the per-group fold. Both sinks drain their input in the constructor.
func (s *Session) planAggregate(st *SelectStmt, bit algebra.BatchIterator, p *plan) (*plan, error) {
	aggs, finalItems, err := collectAggSpecs(st)
	if err != nil {
		return nil, err
	}
	// Time the eager drain so the work shows up in the operator's actuals.
	t0 := time.Now()
	var agg algebra.Iterator
	var desc string
	if len(st.GroupBy) == 0 {
		agg, err = algebra.NewBatchAggregate(bit, aggs, s.ctx, s.batchSize)
		desc = fmt.Sprintf("BatchAggregate(%d aggregate(s))", len(aggs))
	} else {
		agg, err = algebra.NewBatchGroupedAggregate(bit, st.GroupBy, aggs, s.ctx, s.batchSize)
		desc = fmt.Sprintf("BatchGroupedAggregate(group by %d key(s), %d aggregate(s))", len(st.GroupBy), len(aggs))
	}
	if err != nil {
		return nil, err
	}
	return s.aggregateTail(st, p.tapIt(desc, agg, time.Since(t0)), finalItems, p)
}

// planJoins builds the join chain left-deep: the FROM table streams as
// column batches (through the parallel scan when the table is large enough
// and the plan drains it), and each JOIN drains its table into the
// columnar build side of one batch hash join, keyed by the equi-key
// equiJoinKeys finds against the schema joined so far. A join with no
// equi-key runs the same operator with constant true keys and the whole ON
// clause as its residual: a nested-loop join. The filters and aggregates
// above the joined stream run on batch operators too.
func (s *Session) planJoins(st *SelectStmt, tables map[string]*storage.Table, baseTable *storage.Table, p *plan, consumesAll bool) (algebra.BatchIterator, error) {
	// The join assembles full output rows, so every side scans every column.
	var left algebra.BatchIterator
	if degree := s.parallelDegree(baseTable); degree > 1 && consumesAll {
		pit, err := algebra.NewParallelScan(baseTable, degree, nil, s.ctx)
		if err != nil {
			return nil, err
		}
		left = algebra.NewToBatch(p.tapIt(fmt.Sprintf("ParallelScan(%s, ×%d)", st.From.Table, degree), pit, 0), s.batchSize)
	} else {
		left = p.tapBit(fmt.Sprintf("BatchTableScan(%s)", st.From.Table), algebra.NewBatchTableScan(baseTable, s.batchSize), 0)
	}
	if st.From.Alias != st.From.Table {
		left = algebra.NewBatchRename(left, st.From.Alias)
	}
	for _, j := range st.Joins {
		rtbl, ok := tables[j.Ref.Table]
		if !ok {
			return nil, fmt.Errorf("qql: unknown table %q", j.Ref.Table)
		}
		right := p.tapBit(fmt.Sprintf("BatchTableScan(%s)", j.Ref.Table), algebra.NewBatchTableScan(rtbl, s.batchSize), 0)
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
		joined, err := algebra.NewBatchHashJoin(left, right, lk, rk, residual, s.ctx, s.batchSize)
		if err != nil {
			return nil, err
		}
		left = p.tapBit(desc, joined, time.Since(t0))
	}
	return left, nil
}

// aggregateTail finishes an aggregate plan: final projection, ORDER BY,
// DISTINCT, LIMIT — row operators over at most one row per group.
func (s *Session) aggregateTail(st *SelectStmt, agg algebra.Iterator, finalItems []algebra.ProjectItem, p *plan) (*plan, error) {
	proj, err := algebra.NewProject(agg, finalItems, s.ctx)
	if err != nil {
		return nil, err
	}
	out := p.tapIt(fmt.Sprintf("Project(%s)", itemsDesc(finalItems)), proj, 0)

	if len(st.OrderBy) > 0 {
		keys := make([]algebra.SortKey, len(st.OrderBy))
		for i, o := range st.OrderBy {
			keys[i] = algebra.SortKey{Expr: o.Expr, Desc: o.Desc}
		}
		sorted, err := algebra.NewSort(out, keys, s.ctx)
		if err != nil {
			return nil, err
		}
		out = p.tapIt(fmt.Sprintf("Sort(%s)", orderDesc(st.OrderBy)), sorted, 0)
	}
	if st.Distinct {
		out = p.tapIt("Distinct", algebra.NewDistinct(out), 0)
	}
	if st.Limit >= 0 || st.Offset > 0 {
		out = p.tapIt(fmt.Sprintf("Limit(%d, offset %d)", st.Limit, st.Offset), algebra.NewLimit(out, st.Limit, st.Offset), 0)
	}
	p.it = out
	return p, nil
}
