package qql

import (
	"container/list"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/algebra"
	"repro/internal/storage"
)

// Normalize canonicalizes a QQL script for use as a plan-cache key: it lexes
// the source and re-renders the token stream with single spaces, uppercased
// hard keywords and re-quoted literals. Two scripts that differ only in
// layout, comments or hard-keyword case share a key. String literals keep
// their exact contents (so 'a  b' and 'a b' never collide), and soft
// keywords — which the parser accepts as identifiers in name positions —
// keep their original spelling, so a table named "source" never shares a
// key with one named "SOURCE".
func Normalize(src string) (string, error) {
	lx := NewLexer(src)
	var b strings.Builder
	b.Grow(len(src) * 3 / 2) // spaces between tokens can lengthen the text
	for i := 0; ; i++ {
		t, err := lx.Next()
		if err != nil {
			return "", err
		}
		if t.Kind == TokEOF {
			return b.String(), nil
		}
		if i > 0 {
			b.WriteByte(' ')
		}
		switch {
		case t.Kind == TokString:
			b.WriteString("'" + strings.ReplaceAll(t.Text, "'", "''") + "'")
		case t.Kind == TokTime:
			b.WriteString("t'" + t.Text + "'")
		case t.Kind == TokDuration:
			b.WriteString("d'" + t.Text + "'")
		case t.Kind == TokKeyword && softKeywords[t.Text]:
			b.WriteString(t.Val.AsString())
		default:
			b.WriteString(t.Text)
		}
	}
}

// CacheStats is a point-in-time snapshot of plan-cache effectiveness
// across both tiers: the AST tier (parsed statements) and the bound-plan
// tier (resolved, schema-versioned single-SELECT plans).
type CacheStats struct {
	// Hits and Misses count AST-tier lookups (any statement shape).
	Hits   uint64
	Misses uint64
	// Entries is the AST tier's current size.
	Entries int
	// PlanHits and PlanMisses count bound-plan-tier lookups; a lookup whose
	// entry failed schema-version validation counts as a miss plus one
	// PlanInvalidations.
	PlanHits          uint64
	PlanMisses        uint64
	PlanInvalidations uint64
	// PlanEntries is the bound-plan tier's current size.
	PlanEntries int
	// Disabled reports a cache constructed with NewPlanCache(n <= 0):
	// attached sessions bypass both tiers entirely.
	Disabled bool
}

// HitRate reports AST-tier hits / (hits + misses), 0 when cold.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// PlanHitRate reports bound-plan-tier hits / (hits + misses), 0 when cold.
func (s CacheStats) PlanHitRate() float64 {
	total := s.PlanHits + s.PlanMisses
	if total == 0 {
		return 0
	}
	return float64(s.PlanHits) / float64(total)
}

type cacheEntry struct {
	key   string
	stmts []Stmt // pristine parse; never executed, only cloned
}

// planKey addresses the bound-plan tier: normalized statement text scoped
// to one catalog, so sessions over different catalogs sharing a cache get
// independent entries instead of evicting each other's.
type planKey struct {
	cat  *storage.Catalog
	text string
}

type planCacheEntry struct {
	key  planKey
	prep *preparedSelect // pristine resolved plan; cloned per execution
}

// PlanCache memoizes query compilation across sessions in two tiers, both
// keyed by normalized statement text and bounded by one LRU cap each.
//
// The AST tier holds parsed statement lists for whole scripts, so hot
// statements skip the lexer and parser; lookups hand out deep clones
// because binding and planning mutate expression nodes in place.
//
// The bound-plan tier holds fully resolved single-SELECT plans
// (preparedSelect) tagged with the schema version of every referenced
// table. Lookups validate those versions against the live catalog; an
// entry whose tables moved — CREATE/DROP TABLE, CREATE INDEX, TAG TABLE —
// is evicted on sight, so a stale plan is unreachable, not merely
// unlikely. Hits skip parsing *and* name resolution; only per-execution
// clone + bind + iterator construction remain.
//
// The cache is safe for concurrent use. A cache constructed with
// NewPlanCache(n <= 0) is disabled: sessions treat it as absent and Stats
// reports Disabled.
type PlanCache struct {
	mu       sync.Mutex
	max      int
	disabled bool
	byKey    map[string]*list.Element
	lru      *list.List // front = most recent; values are *cacheEntry
	hits     uint64
	misses   uint64

	// The bound-plan tier's flag and counters are atomics so the warm-query
	// hot path takes the mutex exactly once (lookupPlan); with them folded
	// into mu, every hit would serialize three times on one global lock.
	planTier    atomic.Bool // bound-plan tier on (default); off = AST-only
	planByKey   map[planKey]*list.Element
	planLRU     *list.List // values are *planCacheEntry
	planHits    atomic.Uint64
	planMisses  atomic.Uint64
	planInvalid atomic.Uint64
}

// DefaultCacheSize is the conventional per-tier entry cap. It is a
// sentinel callers pass explicitly for "the default" (the qqld -cache flag
// defaults to it; server.Config.CacheSize 0 maps to it) — NewPlanCache
// itself treats n <= 0 as disabled, not as this default.
const DefaultCacheSize = 256

// NewPlanCache creates a cache holding at most max entries per tier.
// max <= 0 returns a disabled cache: attached sessions parse and plan
// every statement from scratch, and Stats reports Disabled.
func NewPlanCache(max int) *PlanCache {
	if max <= 0 {
		return &PlanCache{disabled: true}
	}
	c := &PlanCache{
		max:   max,
		byKey: make(map[string]*list.Element), lru: list.New(),
		planByKey: make(map[planKey]*list.Element), planLRU: list.New(),
	}
	c.planTier.Store(true)
	return c
}

// Disabled reports whether the cache was constructed disabled.
func (c *PlanCache) Disabled() bool { return c.disabled }

// SetPlanTier toggles the bound-plan tier; off leaves the AST tier only.
// It exists for benchmarks and A/B comparison, not as a tuning knob.
func (c *PlanCache) SetPlanTier(on bool) {
	c.planTier.Store(on && !c.disabled)
}

// planTierOn reports whether bound-plan caching is active.
func (c *PlanCache) planTierOn() bool {
	return c != nil && !c.disabled && c.planTier.Load()
}

// Stats snapshots the hit/miss counters and current sizes of both tiers.
func (c *PlanCache) Stats() CacheStats {
	st := CacheStats{
		PlanHits:          c.planHits.Load(),
		PlanMisses:        c.planMisses.Load(),
		PlanInvalidations: c.planInvalid.Load(),
		Disabled:          c.disabled,
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st.Hits, st.Misses = c.hits, c.misses
	if c.lru != nil {
		st.Entries = c.lru.Len()
	}
	if c.planLRU != nil {
		st.PlanEntries = c.planLRU.Len()
	}
	return st
}

// lookup returns the pristine statements for key, recording a hit or miss.
// Callers must clone before executing.
func (c *PlanCache) lookup(key string) ([]Stmt, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).stmts, true
}

// store inserts the pristine statements under key, evicting the LRU entry
// when full. Storing an existing key refreshes its recency.
func (c *PlanCache) store(key string, stmts []Stmt) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(el)
		el.Value.(*cacheEntry).stmts = stmts
		return
	}
	c.byKey[key] = c.lru.PushFront(&cacheEntry{key: key, stmts: stmts})
	for c.lru.Len() > c.max {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.byKey, oldest.Value.(*cacheEntry).key)
	}
}

// parseCached parses a script through the AST tier under its normalized
// key (computed by the caller, which may already hold it from a bound-plan
// lookup — the key also addresses that tier). On a hit the cached AST is
// cloned; on a miss the source is parsed and a pristine clone is stored —
// unless the script contains a statement kind cloneStmt cannot deep-copy,
// in which case it is served uncached: caching it would alias the pristine
// AST into the planner, which mutates expression nodes in place.
func (c *PlanCache) parseCached(src, key string) ([]Stmt, string, error) {
	if pristine, ok := c.lookup(key); ok {
		clones, _ := cloneStmts(pristine) // entries hold only clonable kinds
		return clones, key, nil
	}
	stmts, err := Parse(src)
	if err != nil {
		return nil, "", err
	}
	if clones, ok := cloneStmts(stmts); ok {
		c.store(key, clones)
	}
	return stmts, key, nil
}

// ---- Bound-plan tier ----

// lookupPlan returns the prepared plan cached under key and refreshes its
// recency. It does not touch the hit/miss counters: the caller classifies
// the outcome after schema-version validation via notePlan.
func (c *PlanCache) lookupPlan(key planKey) (*preparedSelect, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.planByKey == nil {
		return nil, false
	}
	el, ok := c.planByKey[key]
	if !ok {
		return nil, false
	}
	c.planLRU.MoveToFront(el)
	return el.Value.(*planCacheEntry).prep, true
}

// notePlan records a bound-plan-tier lookup outcome.
func (c *PlanCache) notePlan(hit bool) {
	if hit {
		c.planHits.Add(1)
	} else {
		c.planMisses.Add(1)
	}
}

// storePlan inserts a prepared plan under key, evicting the LRU entry when
// full. Storing an existing key replaces it (the newly prepared plan is at
// least as fresh as the cached one).
func (c *PlanCache) storePlan(key planKey, prep *preparedSelect) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.planByKey == nil || !c.planTier.Load() {
		return
	}
	if el, ok := c.planByKey[key]; ok {
		c.planLRU.MoveToFront(el)
		el.Value.(*planCacheEntry).prep = prep
		return
	}
	c.planByKey[key] = c.planLRU.PushFront(&planCacheEntry{key: key, prep: prep})
	for c.planLRU.Len() > c.max {
		oldest := c.planLRU.Back()
		c.planLRU.Remove(oldest)
		delete(c.planByKey, oldest.Value.(*planCacheEntry).key)
	}
}

// invalidatePlan evicts the entry under key after a failed schema-version
// validation, so the stale plan cannot be returned again.
func (c *PlanCache) invalidatePlan(key planKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.planByKey == nil {
		return
	}
	if el, ok := c.planByKey[key]; ok {
		c.planLRU.Remove(el)
		delete(c.planByKey, key)
		c.planInvalid.Add(1)
	}
}

// cloneStmts deep-copies a statement list; ok is false when any statement
// is of a kind cloneStmt cannot copy (such a list must not be cached).
func cloneStmts(stmts []Stmt) (out []Stmt, ok bool) {
	out = make([]Stmt, len(stmts))
	ok = true
	for i, st := range stmts {
		c, cok := cloneStmt(st)
		if !cok {
			ok = false
		}
		out[i] = c
	}
	return out, ok
}

func cloneExpr(e algebra.Expr) algebra.Expr { return algebra.CloneExpr(e) }

func cloneTagAssigns(tags []TagAssign) []TagAssign {
	if tags == nil {
		return nil
	}
	out := make([]TagAssign, len(tags))
	for i, t := range tags {
		out[i] = TagAssign{Name: t.Name, Expr: cloneExpr(t.Expr), Meta: cloneTagAssigns(t.Meta)}
	}
	return out
}

func cloneSelect(st *SelectStmt) *SelectStmt {
	out := &SelectStmt{
		Distinct: st.Distinct,
		From:     st.From,
		Limit:    st.Limit,
		Offset:   st.Offset,
	}
	out.Items = make([]SelectItem, len(st.Items))
	for i, it := range st.Items {
		ci := SelectItem{Star: it.Star, Expr: cloneExpr(it.Expr), As: it.As}
		if it.Agg != nil {
			ci.Agg = &AggItem{Fn: it.Agg.Fn, Arg: cloneExpr(it.Agg.Arg)}
		}
		out.Items[i] = ci
	}
	if st.Joins != nil {
		out.Joins = make([]JoinClause, len(st.Joins))
		for i, j := range st.Joins {
			out.Joins[i] = JoinClause{Ref: j.Ref, On: cloneExpr(j.On)}
		}
	}
	out.Where = cloneExpr(st.Where)
	out.Quality = cloneExpr(st.Quality)
	if st.GroupBy != nil {
		out.GroupBy = make([]algebra.Expr, len(st.GroupBy))
		for i, g := range st.GroupBy {
			out.GroupBy[i] = cloneExpr(g)
		}
	}
	if st.OrderBy != nil {
		out.OrderBy = make([]OrderItem, len(st.OrderBy))
		for i, o := range st.OrderBy {
			out.OrderBy[i] = OrderItem{Expr: cloneExpr(o.Expr), Desc: o.Desc}
		}
	}
	return out
}

// cloneStmt deep-copies a parsed statement, detaching every expression node
// the planner or executor might mutate. ok is false for a statement kind it
// does not know how to copy: the original is returned and must not be
// cached (executing it still works; replaying a cached alias of it would
// leak one execution's in-place rewrites into the next).
func cloneStmt(st Stmt) (Stmt, bool) {
	switch v := st.(type) {
	case *SelectStmt:
		return cloneSelect(v), true
	case *ExplainStmt:
		return &ExplainStmt{Sel: cloneSelect(v.Sel), Analyze: v.Analyze}, true
	case *InsertStmt:
		out := &InsertStmt{Table: v.Table, Rows: make([][]InsertCell, len(v.Rows))}
		for i, row := range v.Rows {
			cells := make([]InsertCell, len(row))
			for j, c := range row {
				cells[j] = InsertCell{
					Expr:    cloneExpr(c.Expr),
					Tags:    cloneTagAssigns(c.Tags),
					Sources: append([]string(nil), c.Sources...),
				}
			}
			out.Rows[i] = cells
		}
		return out, true
	case *UpdateStmt:
		out := &UpdateStmt{Table: v.Table, Where: cloneExpr(v.Where)}
		out.Sets = make([]SetClause, len(v.Sets))
		for i, s := range v.Sets {
			out.Sets[i] = SetClause{Col: s.Col, Expr: cloneExpr(s.Expr), Tags: cloneTagAssigns(s.Tags)}
		}
		return out, true
	case *DeleteStmt:
		return &DeleteStmt{Table: v.Table, Where: cloneExpr(v.Where)}, true
	case *TagTableStmt:
		return &TagTableStmt{Table: v.Table, Tags: cloneTagAssigns(v.Tags)}, true
	case *CreateTableStmt:
		out := &CreateTableStmt{Name: v.Name, Strict: v.Strict, Key: append([]string(nil), v.Key...)}
		out.Cols = make([]ColDef, len(v.Cols))
		for i, c := range v.Cols {
			out.Cols[i] = ColDef{Name: c.Name, Kind: c.Kind, Required: c.Required,
				Indicators: append([]IndDef(nil), c.Indicators...)}
		}
		return out, true
	case *DropTableStmt:
		c := *v
		return &c, true
	case *CreateIndexStmt:
		c := *v
		return &c, true
	case *ShowTagsStmt:
		c := *v
		return &c, true
	case *ShowTablesStmt:
		return &ShowTablesStmt{}, true
	case *ShowStatsStmt:
		return &ShowStatsStmt{}, true
	case *DescribeStmt:
		c := *v
		return &c, true
	}
	// Unknown statement kinds pass through uncloned; execution still works,
	// and parseCached refuses to cache a script containing one.
	return st, false
}
