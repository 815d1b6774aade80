package qql

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/algebra"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/tag"
	"repro/internal/value"
)

// Result is the outcome of executing one statement: a relation for queries,
// a message for DDL/DML, and a plan string for EXPLAIN.
type Result struct {
	Rel  *relation.Relation
	Msg  string
	Plan string
}

// Session executes QQL against a storage catalog. The session's Now anchors
// NOW() and AGE(): within one statement it is fixed, so results are
// internally consistent, and unless SetNow pinned it, it is re-sampled from
// the wall clock at each statement — a long-lived connection's timeliness
// checks track real time instead of freezing at accept time. A session is
// not safe for concurrent use; concurrent callers (e.g. server connections)
// each get their own session over one shared catalog, optionally sharing a
// PlanCache.
type Session struct {
	cat       *storage.Catalog
	ctx       *algebra.EvalContext
	nowPinned bool
	cache     *PlanCache
	par       int
	// batchSize is the engine's rows-per-batch, fixed at
	// algebra.DefaultBatchSize; in-package tests vary it.
	batchSize int
	// joinAllCols makes joins carry every column instead of only those the
	// plan reads; in-package tests set it as the pruning's oracle.
	joinAllCols bool

	// analyze is set while an EXPLAIN ANALYZE compiles and runs: buildSelect
	// then instruments every operator. Sessions are single-goroutine, so a
	// plain bool suffices.
	analyze bool
	// lastParse, prepDur and buildDur record phase timings for the analyze
	// report (prepDur/buildDur only while analyze is set).
	lastParse time.Duration
	prepDur   time.Duration
	buildDur  time.Duration
	// info describes the last executed statement for observers (slow-query
	// logging, per-kind metrics); see LastExecInfo.
	info ExecInfo
	// nStmts/nErrs count statements executed and errors over the session's
	// lifetime, reported by SHOW STATS.
	nStmts int64
	nErrs  int64
	// statsExtra supplies additional SHOW STATS rows; the server registers
	// its process-wide counters here so qqlsh sessions can see them.
	statsExtra func() []StatRow
	// dur, when set, write-ahead-logs every mutation (see SetDurability).
	// durDirty tracks uncommitted durable mutations; durDefer postpones
	// the end-of-script commit until CommitDurable (batch frames).
	dur      Durability
	durDefer bool
	durDirty bool
}

// ExecInfo summarizes the last statement a session executed — enough for a
// slow-query log line or per-kind accounting without re-parsing the text.
// For multi-statement scripts it reflects the script's last statement.
type ExecInfo struct {
	// Kind is the statement kind: select, insert, update, delete, create,
	// drop, explain, show, describe, tag.
	Kind string
	// CacheTier is the bound-plan cache outcome for SELECTs (hit, miss,
	// bypass); empty for non-SELECT statements.
	CacheTier string
	// PlanShape is the compact " -> "-joined operator pipeline for SELECTs,
	// and the row-collection path for UPDATE/DELETE: the source step EXPLAIN
	// prints for a SELECT with the same WHERE — IndexScan(...) for an index
	// probe, BatchTableScan(...) or ParallelScan(...) for a scan, with
	// ", segments skipped=N of M" added — or EmptyScan(...) for a WHERE that
	// is never true; empty otherwise.
	PlanShape string
	// Rows is the number of rows returned (queries) or affected (DML).
	Rows int
}

// LastExecInfo reports the ExecInfo of the most recent statement.
func (s *Session) LastExecInfo() ExecInfo { return s.info }

// StatRow is one name/value line of SHOW STATS output.
type StatRow struct {
	Name  string
	Value string
}

// SetStatsExtra registers a provider of additional SHOW STATS rows
// (typically server-wide counters); nil detaches.
func (s *Session) SetStatsExtra(fn func() []StatRow) { s.statsExtra = fn }

// NewSession creates a session over the catalog with Now tracking the wall
// clock per statement; use SetNow to pin it for reproducible runs. Scan
// parallelism defaults to one worker per schedulable core.
func NewSession(cat *storage.Catalog) *Session {
	return &Session{cat: cat, ctx: &algebra.EvalContext{Now: timeNowDefault()},
		par: algebra.DefaultParallelism(), batchSize: algebra.DefaultBatchSize}
}

// tick re-samples the statement clock unless SetNow pinned it. It swaps in
// a fresh EvalContext rather than mutating the old one: background scan
// workers of a previous statement may still hold the old context, and they
// must keep seeing the instant their statement started under.
func (s *Session) tick() {
	if !s.nowPinned {
		s.ctx = &algebra.EvalContext{Now: timeNowDefault()}
	}
}

// SetParallelism sets the fan-out degree for parallel heap scans; n <= 0
// restores the default (GOMAXPROCS). Degree 1 forces serial scans.
func (s *Session) SetParallelism(n int) {
	if n <= 0 {
		n = algebra.DefaultParallelism()
	}
	s.par = n
}

// Parallelism reports the session's scan fan-out degree.
func (s *Session) Parallelism() int { return s.par }

// SetPlanCache attaches a shared prepared-plan cache: subsequent Exec and
// Query calls skip parsing when the (normalized) statement text is cached.
// Pass nil to detach. The same cache may back many concurrent sessions.
func (s *Session) SetPlanCache(c *PlanCache) { s.cache = c }

// PlanCache returns the attached plan cache, nil when none.
func (s *Session) PlanCache() *PlanCache { return s.cache }

// parse parses a script, recording the parse time for EXPLAIN ANALYZE.
func (s *Session) parse(src string) ([]Stmt, error) {
	t0 := time.Now()
	stmts, err := Parse(src)
	s.lastParse = time.Since(t0)
	return stmts, err
}

// SetNow pins the session's current instant: every subsequent statement
// evaluates NOW() and AGE() against t until the next SetNow.
func (s *Session) SetNow(t time.Time) {
	s.ctx = &algebra.EvalContext{Now: t.UTC()}
	s.nowPinned = true
}

// Now reports the session's current instant.
func (s *Session) Now() time.Time { return s.ctx.Now }

// Catalog exposes the underlying storage catalog.
func (s *Session) Catalog() *storage.Catalog { return s.cat }

// Exec parses and executes a script, returning one Result per statement.
// Execution stops at the first error. A single-statement SELECT (or
// EXPLAIN) goes through the bound-plan cache tier when one is attached;
// statements inside multi-statement scripts bypass it.
func (s *Session) Exec(src string) ([]Result, error) {
	p, key, ok := s.fastSelect(src)
	if ok {
		rel, err := algebra.Collect(p.bit)
		s.nStmts++
		if err != nil {
			s.nErrs++
			return nil, err
		}
		s.info = ExecInfo{Kind: "select", CacheTier: planHit.String(),
			PlanShape: p.shape(), Rows: len(rel.Tuples)}
		return []Result{{Rel: rel}}, nil
	}
	stmts, err := s.parse(src)
	if err != nil {
		s.nErrs++
		return nil, err
	}
	if len(stmts) != 1 {
		key = "" // plan-tier keys address exactly one SELECT
	}
	out := make([]Result, 0, len(stmts))
	for _, st := range stmts {
		s.tick()
		s.nStmts++
		r, err := s.execStmt(st, key)
		if err != nil {
			s.nErrs++
			// Earlier statements of this script already mutated the
			// catalog; they must reach stable storage even though the
			// script as a whole failed. If that commit also fails, the
			// caller must learn the earlier results in out are not
			// durable — join it with the statement error rather than
			// leaving it invisible until a later write trips the sticky
			// error.
			if cerr := s.commitStmts(); cerr != nil {
				err = errors.Join(err, cerr)
			}
			return out, err
		}
		out = append(out, r)
	}
	// Acknowledged writes reach the WAL before the wire response: the
	// commit happens here, before results are returned.
	if err := s.commitStmts(); err != nil {
		s.nErrs++
		return out, err
	}
	return out, nil
}

// Query executes a single SELECT and returns its relation.
func (s *Session) Query(src string) (*relation.Relation, error) {
	p, key, ok := s.fastSelect(src)
	if ok {
		return algebra.Collect(p.bit)
	}
	stmts, err := s.parse(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("qql: expected one statement, got %d", len(stmts))
	}
	sel, isSel := stmts[0].(*SelectStmt)
	if !isSel {
		return nil, fmt.Errorf("qql: Query expects a SELECT statement")
	}
	s.tick()
	p, _, err = s.planSelectVia(sel, key, true)
	if err != nil {
		return nil, err
	}
	return algebra.Collect(p.bit)
}

// cachedPlan runs the bound-plan tier's hit protocol for key: lookup →
// schema-version validation → clone + build, evicting the entry when
// validation or the build fails (only plans that build belong in the
// tier). It counts a hit only on success and nothing otherwise — the
// caller accounts for the miss when it prepares. It ticks the statement
// clock just before building, so the plan's iterators capture a fresh
// instant. Both the parse-free fast path and the parsed path go through
// here; there is exactly one copy of this protocol.
func (s *Session) cachedPlan(key planKey) (*plan, bool) {
	prep, ok := s.cache.lookupPlan(key)
	if !ok {
		return nil, false
	}
	tables, valid := s.validatePlan(prep)
	if !valid {
		s.cache.invalidatePlan(key)
		return nil, false
	}
	s.tick()
	p, err := s.buildSelect(cloneSelect(prep.stmt), tables)
	if err != nil {
		s.cache.invalidatePlan(key)
		return nil, false
	}
	s.cache.notePlan(true)
	return p, true
}

// fastSelect is the parse-free hot path: when the plan cache holds a
// schema-version-valid plan for src's normalized text, the cached resolved
// statement is cloned and built directly — no parser or name resolution.
// It reports ok=false whenever the slow path must run, returning the key it
// computed (selectKey: "" unless src starts with SELECT or EXPLAIN) so the
// slow path need not lex the source again. A plan entry exists only for
// scripts that are exactly one SELECT, so a hit implies the script shape
// without parsing.
func (s *Session) fastSelect(src string) (*plan, string, bool) {
	key := s.cacheKey(src)
	if key == "" {
		return nil, "", false
	}
	p, ok := s.cachedPlan(planKey{cat: s.cat, text: key})
	return p, key, ok
}

// cacheKey is src's plan-cache key: "" when no enabled cache is attached
// or when src cannot own a plan entry (see selectKey).
func (s *Session) cacheKey(src string) string {
	if !s.cache.enabled() {
		return ""
	}
	return selectKey(src)
}

// cacheOutcome classifies how a SELECT's plan was obtained, for EXPLAIN.
type cacheOutcome uint8

const (
	// planBypass: no enabled cache applied (cache absent or disabled, or
	// statement not individually keyed).
	planBypass cacheOutcome = iota
	// planHit: a cached prepared plan passed schema-version validation.
	planHit
	// planMiss: prepared from scratch (and cached when possible).
	planMiss
)

func (o cacheOutcome) String() string {
	switch o {
	case planHit:
		return "hit"
	case planMiss:
		return "miss"
	default: // planBypass
		return "bypass"
	}
}

// validatePlan checks a cached prepared plan against the live catalog:
// every referenced table still present, every schema version unmoved. On
// success it returns the table generation the versions vouch for, captured
// atomically with them. The catalog check is defense in depth — plan keys
// are catalog-scoped, so a cross-catalog entry should be unreachable.
func (s *Session) validatePlan(prep *preparedSelect) (boundTables, bool) {
	if prep.cat != s.cat {
		return boundTables{}, false
	}
	tables, ok := s.cat.ResolveAt(prep.tables, prep.versions)
	if !ok {
		return boundTables{}, false
	}
	return boundTables{names: prep.tables, tables: tables}, true
}

// planSelectVia compiles sel through the bound-plan cache tier when key
// addresses it ("" bypasses): a validated hit clones the cached resolved
// statement and rebuilds iterators — skipping parse and name resolution — a
// miss prepares from scratch and caches the prepared plan for the next
// execution. triedFast skips the hit attempt when the caller's fastSelect
// already looked this key up and missed moments ago (the duplicate lookup
// would serialize on the cache mutex for nothing). The caller owns sel.
func (s *Session) planSelectVia(sel *SelectStmt, key string, triedFast bool) (*plan, cacheOutcome, error) {
	c := s.cache
	if key == "" || !c.enabled() {
		p, err := s.planSelect(sel)
		return p, planBypass, err
	}
	pk := planKey{cat: s.cat, text: key}
	if !triedFast {
		if p, ok := s.cachedPlan(pk); ok {
			return p, planHit, nil
		}
	}
	c.notePlan(false)
	prep, tables, err := s.prepareSelect(sel)
	if err != nil {
		return nil, planMiss, err
	}
	// Build from a clone before caching: prep.stmt must stay pristine, and
	// only a plan that actually builds is worth storing — caching a
	// build-failing statement would make every retry pay lookup + validate
	// + clone + fail on top of the fresh compile.
	p, err := s.buildSelect(cloneSelect(prep.stmt), tables)
	if err != nil {
		return nil, planMiss, err
	}
	c.storePlan(pk, prep)
	return p, planMiss, nil
}

// MustExec runs Exec and panics on error; for fixtures and examples.
func (s *Session) MustExec(src string) []Result {
	out, err := s.Exec(src)
	if err != nil {
		panic(err)
	}
	return out
}

// execStmt executes one statement; key addresses the bound-plan cache tier
// for SELECT/EXPLAIN ("" bypasses it).
func (s *Session) execStmt(st Stmt, key string) (Result, error) {
	s.info = ExecInfo{Kind: StmtKind(st)}
	switch v := st.(type) {
	case *CreateTableStmt:
		return s.execCreateTable(v)
	case *DropTableStmt:
		return s.execDropTable(v)
	case *CreateIndexStmt:
		return s.execCreateIndex(v)
	case *InsertStmt:
		return s.execInsert(v)
	case *SelectStmt:
		// When key is non-empty the script was a single SELECT, so the
		// caller's fastSelect already tried (and missed) this exact key.
		p, outcome, err := s.planSelectVia(v, key, true)
		if err != nil {
			return Result{}, err
		}
		rel, err := algebra.Collect(p.bit)
		if err != nil {
			return Result{}, err
		}
		s.info.CacheTier = outcome.String()
		s.info.PlanShape = p.shape()
		s.info.Rows = len(rel.Tuples)
		return Result{Rel: rel}, nil
	case *ExplainStmt:
		// EXPLAIN shares the bare SELECT's plan-tier entry: Normalize
		// uppercases the leading keywords, so stripping them yields exactly
		// the SELECT's own key. An EXPLAIN therefore reports — and warms —
		// the cache state its SELECT would see.
		if v.Analyze {
			return s.execAnalyze(v.Sel, strings.TrimPrefix(key, "EXPLAIN ANALYZE "))
		}
		p, outcome, err := s.planSelectVia(v.Sel, strings.TrimPrefix(key, "EXPLAIN "), false)
		if err != nil {
			return Result{}, err
		}
		p.release()
		s.info.CacheTier = outcome.String()
		s.info.PlanShape = p.shape()
		return Result{Plan: p.explain() + "plan cache: " + outcome.String() + "\n"}, nil
	case *DeleteStmt:
		return s.execDelete(v)
	case *UpdateStmt:
		return s.execUpdate(v)
	case *TagTableStmt:
		return s.execTagTable(v)
	case *ShowTagsStmt:
		return s.execShowTags(v)
	case *ShowTablesStmt:
		return s.execShowTables()
	case *ShowStatsStmt:
		return s.execShowStats()
	case *DescribeStmt:
		return s.execDescribe(v)
	}
	return Result{}, fmt.Errorf("qql: unhandled statement %T", st)
}

// StmtKinds lists every value StmtKind can return, for callers that
// pre-register per-kind accounting series (so a scrape sees every kind at
// zero before the first statement of that kind arrives).
var StmtKinds = []string{
	"select", "insert", "update", "delete", "create", "drop",
	"explain", "explain analyze", "show", "describe", "tag", "other",
}

// StmtKind names a statement's kind for accounting: select, insert, update,
// delete, create, drop, explain, show, describe, tag.
func StmtKind(st Stmt) string {
	switch v := st.(type) {
	case *SelectStmt:
		return "select"
	case *InsertStmt:
		return "insert"
	case *UpdateStmt:
		return "update"
	case *DeleteStmt:
		return "delete"
	case *CreateTableStmt, *CreateIndexStmt:
		return "create"
	case *DropTableStmt:
		return "drop"
	case *ExplainStmt:
		if v.Analyze {
			return "explain analyze"
		}
		return "explain"
	case *ShowTagsStmt, *ShowTablesStmt, *ShowStatsStmt:
		return "show"
	case *DescribeStmt:
		return "describe"
	case *TagTableStmt:
		return "tag"
	}
	return "other"
}

func (s *Session) execCreateTable(st *CreateTableStmt) (Result, error) {
	attrs := make([]schema.Attr, len(st.Cols))
	for i, c := range st.Cols {
		inds := make([]tag.Indicator, len(c.Indicators))
		for j, d := range c.Indicators {
			inds[j] = tag.Indicator{Name: d.Name, Kind: d.Kind}
		}
		attrs[i] = schema.Attr{Name: c.Name, Kind: c.Kind, Required: c.Required, Indicators: inds}
	}
	sc, err := schema.New(st.Name, attrs, st.Key...)
	if err != nil {
		return Result{}, err
	}
	if err := s.applyCreateTable(sc, st.Strict); err != nil {
		return Result{}, err
	}
	return Result{Msg: fmt.Sprintf("created table %s", st.Name)}, nil
}

func (s *Session) execDropTable(st *DropTableStmt) (Result, error) {
	if err := s.applyDropTable(st.Table); err != nil {
		return Result{}, err
	}
	return Result{Msg: fmt.Sprintf("dropped table %s", st.Table)}, nil
}

func (s *Session) execCreateIndex(st *CreateIndexStmt) (Result, error) {
	tbl, ok := s.cat.Get(st.Table)
	if !ok {
		return Result{}, fmt.Errorf("qql: unknown table %q", st.Table)
	}
	if err := s.applyCreateIndex(tbl, st.Table, st.Target, st.Kind); err != nil {
		return Result{}, err
	}
	kind := "btree"
	if st.Kind == storage.IndexHash {
		kind = "hash"
	}
	return Result{Msg: fmt.Sprintf("created %s index on %s(%s)", kind, st.Table, st.Target)}, nil
}

// evalConst evaluates an INSERT expression, which reads no row: it runs
// over the empty tuple, where a column reference is not bound. A literal
// is its own value and is not compiled.
func (s *Session) evalConst(e algebra.Expr, sc *schema.Schema) (value.Value, error) {
	if err := e.Bind(sc); err != nil {
		return value.Null, err
	}
	if c, ok := e.(*algebra.Const); ok {
		return c.V, nil
	}
	return algebra.Compile(e)(relation.Tuple{}, s.ctx)
}

func (s *Session) execInsert(st *InsertStmt) (Result, error) {
	tbl, ok := s.cat.Get(st.Table)
	if !ok {
		return Result{}, fmt.Errorf("qql: unknown table %q", st.Table)
	}
	sc := tbl.Schema()
	n := 0
	for _, row := range st.Rows {
		if len(row) != len(sc.Attrs) {
			return Result{}, fmt.Errorf("qql: insert arity %d, table %s has %d columns", len(row), st.Table, len(sc.Attrs))
		}
		cells := make([]relation.Cell, len(row))
		for i, ic := range row {
			v, err := s.evalConst(ic.Expr, sc)
			if err != nil {
				return Result{}, fmt.Errorf("qql: insert value %d: %w", i+1, err)
			}
			cell := relation.Cell{V: ownValue(v)}
			for _, ta := range ic.Tags {
				tv, err := s.evalConst(ta.Expr, sc)
				if err != nil {
					return Result{}, fmt.Errorf("qql: insert tag %s: %w", ta.Name, err)
				}
				name := ownIndicator(&sc.Attrs[i], ta.Name)
				cell.Tags = cell.Tags.With(name, ownValue(tv))
				for _, m := range ta.Meta {
					mv, err := s.evalConst(m.Expr, sc)
					if err != nil {
						return Result{}, fmt.Errorf("qql: insert meta tag %s@%s: %w", ta.Name, m.Name, err)
					}
					cell = cell.WithMetaTag(name, strings.Clone(m.Name), ownValue(mv))
				}
			}
			if len(ic.Sources) > 0 {
				cell.Sources = tag.NewSources(ic.Sources...)
				for j, src := range cell.Sources {
					cell.Sources[j] = strings.Clone(src)
				}
			}
			cells[i] = cell
		}
		if err := s.applyInsert(tbl, st.Table, relation.Tuple{Cells: cells}); err != nil {
			return Result{}, err
		}
		n++
	}
	s.info.Rows = n
	return Result{Msg: fmt.Sprintf("inserted %d row(s) into %s", n, st.Table)}, nil
}

func (s *Session) execDelete(st *DeleteStmt) (Result, error) {
	tbl, ok := s.cat.Get(st.Table)
	if !ok {
		return Result{}, fmt.Errorf("qql: unknown table %q", st.Table)
	}
	var ids []storage.RowID
	// DELETE needs no cell of the rows it collects: the scan views only
	// the columns the WHERE reads.
	shape, err := s.collectMatches(tbl, st.Where, nil, func(id storage.RowID, _ relation.Tuple) error {
		ids = append(ids, id)
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	s.info.PlanShape = shape
	for _, id := range ids {
		if err := s.applyDelete(tbl, st.Table, id); err != nil {
			return Result{}, err
		}
	}
	s.info.Rows = len(ids)
	return Result{Msg: fmt.Sprintf("deleted %d row(s) from %s", len(ids), st.Table)}, nil
}

func (s *Session) execUpdate(st *UpdateStmt) (Result, error) {
	tbl, ok := s.cat.Get(st.Table)
	if !ok {
		return Result{}, fmt.Errorf("qql: unknown table %q", st.Table)
	}
	// The SET clauses are checked, bound and compiled once per statement,
	// before any row is collected: an unknown column is an error even when
	// no row matches.
	cols, fns, err := compileSets(st.Sets, tbl.Schema())
	if err != nil {
		return Result{}, err
	}
	type change struct {
		id  storage.RowID
		tup relation.Tuple
	}
	var changes []change
	shape, err := s.collectMatches(tbl, st.Where, tbl.Schema().ColIndexes(), func(id storage.RowID, tup relation.Tuple) error {
		updated, err := s.updatedRow(st.Sets, cols, fns, tbl.Schema(), tup)
		if err != nil {
			return err
		}
		changes = append(changes, change{id: id, tup: updated})
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	s.info.PlanShape = shape
	for _, ch := range changes {
		if err := s.applyUpdate(tbl, st.Table, ch.id, ch.tup); err != nil {
			return Result{}, err
		}
	}
	s.info.Rows = len(changes)
	return Result{Msg: fmt.Sprintf("updated %d row(s) in %s", len(changes), st.Table)}, nil
}

// compileSets checks every SET column exists and binds each clause's
// value, tag and meta-tag expressions against sc. It returns the clauses'
// column indexes and the compiled forms of the expressions that are not
// literals, in the order updatedRow evaluates them: each clause's value,
// then each tag and its meta tags. A literal is its own value and takes no
// slot, so an all-literal SET compiles nothing.
func compileSets(sets []SetClause, sc *schema.Schema) ([]int, []algebra.Compiled, error) {
	cols := make([]int, len(sets))
	var fns []algebra.Compiled
	bind := func(e algebra.Expr) error {
		if err := e.Bind(sc); err != nil {
			return err
		}
		if _, ok := e.(*algebra.Const); !ok {
			fns = append(fns, algebra.Compile(e))
		}
		return nil
	}
	for i, set := range sets {
		if cols[i] = sc.ColIndex(set.Col); cols[i] < 0 {
			return nil, nil, fmt.Errorf("qql: unknown column %q in UPDATE", set.Col)
		}
		if set.Expr != nil {
			if err := bind(set.Expr); err != nil {
				return nil, nil, err
			}
		}
		for _, ta := range set.Tags {
			if err := bind(ta.Expr); err != nil {
				return nil, nil, err
			}
			for _, m := range ta.Meta {
				if err := bind(m.Expr); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	return cols, fns, nil
}

// updatedRow applies SET clauses, compiled by compileSets into cols and
// fns, to a copy of tup. Every expression reads tup as collected, so
// SET a = b, b = a swaps.
func (s *Session) updatedRow(sets []SetClause, cols []int, fns []algebra.Compiled, sc *schema.Schema, tup relation.Tuple) (relation.Tuple, error) {
	eval := func(e algebra.Expr) (value.Value, error) {
		if c, ok := e.(*algebra.Const); ok {
			return c.V, nil
		}
		f := fns[0]
		fns = fns[1:]
		return f(tup, s.ctx)
	}
	updated := tup.Clone()
	for i, set := range sets {
		cell := updated.Cells[cols[i]]
		if set.Expr != nil {
			v, err := eval(set.Expr)
			if err != nil {
				return relation.Tuple{}, err
			}
			cell.V = ownValue(v)
		}
		for _, ta := range set.Tags {
			tv, err := eval(ta.Expr)
			if err != nil {
				return relation.Tuple{}, err
			}
			name := ownIndicator(&sc.Attrs[cols[i]], ta.Name)
			cell.Tags = cell.Tags.With(name, ownValue(tv))
			for _, m := range ta.Meta {
				mv, err := eval(m.Expr)
				if err != nil {
					return relation.Tuple{}, err
				}
				cell = cell.WithMetaTag(name, strings.Clone(m.Name), ownValue(mv))
			}
		}
		updated.Cells[cols[i]] = cell
	}
	return updated, nil
}

// ownValue returns v with its string, if it holds one, copied. String
// literals and identifiers are slices of the statement text; a stored cell
// takes its own copy so that it does not keep the whole statement alive.
func ownValue(v value.Value) value.Value {
	if v.Kind() == value.KindString {
		return value.String_(strings.Clone(v.AsString()))
	}
	return v
}

// ownIndicator returns a's declared indicator name equal to name, or a
// copy of name when a declares none, for the same reason as ownValue.
func ownIndicator(a *schema.Attr, name string) string {
	for i := range a.Indicators {
		if a.Indicators[i].Name == name {
			return a.Indicators[i].Name
		}
	}
	return strings.Clone(name)
}

// collectMatches is DML's collect phase: it binds where (nil matches all)
// against tbl, calls fn for every live row it accepts, in row-ID order,
// and returns the path it took for ExecInfo.PlanShape. A WHERE that can
// never be true reads no row at all; otherwise the rows come from SELECT's
// own source, tableSource over the simplified WHERE — an index probe, or
// a column scan of one snapshot, fanned out over a large table — and the
// path is its EXPLAIN step, with the segments the scan skipped.
//
// No statement matches a row twice: the probe's row-ID list, like the
// scan's capture, is the table at one instant, so a key a concurrent
// writer deletes and reinserts cannot match at two row IDs. fn's row has
// the cells of cols filled and the rest zero; it is a scratch tuple
// refilled per row, so fn must clone whatever it keeps.
func (s *Session) collectMatches(tbl *storage.Table, where algebra.Expr, cols []int, fn func(id storage.RowID, row relation.Tuple) error) (string, error) {
	sc := tbl.Schema()
	if where != nil {
		if err := where.Bind(sc); err != nil {
			return "", err
		}
	}
	conjuncts, neverTrue := simplifyFilter(where)
	if neverTrue {
		return fmt.Sprintf("EmptyScan(%s)", sc.Name), nil
	}
	src, shape, err := s.tableSource(tbl, cols, conjuncts, nil, s.parallelDegree(tbl, true))
	if err != nil {
		return "", err
	}
	if st, ok := src.(algebra.Stopper); ok {
		defer st.Stop()
	}
	b := new(algebra.Batch)
	row := relation.Tuple{Cells: make([]relation.Cell, len(sc.Attrs))}
	for {
		ok, err := src.NextBatch(b)
		if err != nil {
			return "", err
		}
		if !ok {
			break
		}
		for i := range b.Len() {
			b.FillRow(i, cols, row.Cells)
			if err := fn(b.RowID(i), row); err != nil {
				return "", err
			}
		}
	}
	if skipped, of, ok := algebra.SegmentsSkipped(src); ok {
		shape = fmt.Sprintf("%s, segments skipped=%d of %d)", strings.TrimSuffix(shape, ")"), skipped, of)
	}
	return shape, nil
}

func (s *Session) execTagTable(st *TagTableStmt) (Result, error) {
	tbl, ok := s.cat.Get(st.Table)
	if !ok {
		return Result{}, fmt.Errorf("qql: unknown table %q", st.Table)
	}
	for _, ta := range st.Tags {
		v, err := s.evalConst(ta.Expr, tbl.Schema())
		if err != nil {
			return Result{}, fmt.Errorf("qql: table tag %s: %w", ta.Name, err)
		}
		if err := s.applyTagTable(tbl, st.Table, strings.Clone(ta.Name), ownValue(v)); err != nil {
			return Result{}, err
		}
	}
	return Result{Msg: fmt.Sprintf("tagged table %s with %d indicator(s)", st.Table, len(st.Tags))}, nil
}

func (s *Session) execShowTags(st *ShowTagsStmt) (Result, error) {
	tbl, ok := s.cat.Get(st.Table)
	if !ok {
		return Result{}, fmt.Errorf("qql: unknown table %q", st.Table)
	}
	sc := schema.MustNew("table_tags", []schema.Attr{
		{Name: "indicator", Kind: value.KindString},
		{Name: "value", Kind: value.KindNull},
	})
	rel := relation.New(sc)
	for _, tg := range tbl.TableTags().Tags() {
		rel.Tuples = append(rel.Tuples, relation.NewTuple(value.Str(tg.Indicator), tg.Value))
	}
	return Result{Rel: rel}, nil
}

func (s *Session) execShowTables() (Result, error) {
	sc := schema.MustNew("tables", []schema.Attr{
		{Name: "name", Kind: value.KindString},
		{Name: "rows", Kind: value.KindInt},
	})
	rel := relation.New(sc)
	names := s.cat.Names()
	sort.Strings(names)
	for _, n := range names {
		tbl, _ := s.cat.Get(n)
		rel.Tuples = append(rel.Tuples, relation.NewTuple(value.Str(n), value.Int(int64(tbl.Len()))))
	}
	return Result{Rel: rel}, nil
}

// execShowStats reports session-local execution counters, the attached plan
// cache's statistics, and any rows from a registered extra provider (the
// server hooks its process-wide counters in), as a (stat, value) relation.
func (s *Session) execShowStats() (Result, error) {
	sc := schema.MustNew("stats", []schema.Attr{
		{Name: "stat", Kind: value.KindString},
		{Name: "value", Kind: value.KindString},
	})
	rel := relation.New(sc)
	add := func(name, val string) {
		rel.Tuples = append(rel.Tuples, relation.NewTuple(value.Str(name), value.Str(val)))
	}
	add("session_statements", fmt.Sprintf("%d", s.nStmts))
	add("session_errors", fmt.Sprintf("%d", s.nErrs))
	add("session_parallelism", fmt.Sprintf("%d", s.par))
	if s.cache != nil {
		cs := s.cache.Stats()
		add("cache_plan_hits", fmt.Sprintf("%d", cs.PlanHits))
		add("cache_plan_misses", fmt.Sprintf("%d", cs.PlanMisses))
		add("cache_plan_invalidations", fmt.Sprintf("%d", cs.PlanInvalidations))
		add("cache_plan_entries", fmt.Sprintf("%d", cs.PlanEntries))
		add("cache_plan_hit_rate", fmt.Sprintf("%.3f", cs.PlanHitRate()))
	}
	add("storage_tuple_clones", fmt.Sprintf("%d", storage.TupleClones()))
	if s.statsExtra != nil {
		for _, row := range s.statsExtra() {
			add(row.Name, row.Value)
		}
	}
	return Result{Rel: rel}, nil
}

func (s *Session) execDescribe(st *DescribeStmt) (Result, error) {
	tbl, ok := s.cat.Get(st.Table)
	if !ok {
		return Result{}, fmt.Errorf("qql: unknown table %q", st.Table)
	}
	sc := schema.MustNew("columns", []schema.Attr{
		{Name: "column", Kind: value.KindString},
		{Name: "type", Kind: value.KindString},
		{Name: "required", Kind: value.KindBool},
		{Name: "indicators", Kind: value.KindString},
	})
	rel := relation.New(sc)
	for _, a := range tbl.Schema().Attrs {
		names := make([]string, len(a.Indicators))
		for i, ind := range a.Indicators {
			names[i] = ind.Name + " " + ind.Kind.String()
		}
		rel.Tuples = append(rel.Tuples, relation.NewTuple(
			value.Str(a.Name), value.Str(a.Kind.String()), value.Bool(a.Required),
			value.Str(joinComma(names))))
	}
	return Result{Rel: rel}, nil
}

func joinComma(parts []string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += ", "
		}
		out += p
	}
	return out
}
