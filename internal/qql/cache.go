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

// selectKey returns the plan-cache key of src when its first statement
// token is SELECT or EXPLAIN, and "" otherwise. Only a script that is
// exactly one SELECT (or EXPLAIN of one) can own a plan entry, so writes,
// DDL and SHOW skip Normalize entirely. Leading semicolons, which Parse
// skips, are skipped here and trimmed from the key, so ";SELECT ..." shares
// the entry of "SELECT ..." and EXPLAIN's prefix strips cleanly.
func selectKey(src string) string {
	lx := NewLexer(src)
	t, err := lx.Next()
	for err == nil && t.Kind == TokPunct && t.Text == ";" {
		t, err = lx.Next()
	}
	if err != nil || t.Kind != TokKeyword || (t.Text != "SELECT" && t.Text != "EXPLAIN") {
		return ""
	}
	key, err := Normalize(src)
	if err != nil {
		return "" // the parse path reports the lex error
	}
	return strings.TrimLeft(key, "; ")
}

// CacheStats is a point-in-time snapshot of plan-cache effectiveness.
type CacheStats struct {
	// PlanHits and PlanMisses count plan lookups; a lookup whose entry
	// failed schema-version validation counts as a miss plus one
	// PlanInvalidations.
	PlanHits          uint64
	PlanMisses        uint64
	PlanInvalidations uint64
	// Hits and Misses equal PlanHits and PlanMisses. They remain from the
	// cache's former parsed-statement tier so that existing readers of
	// either pair see the one cache.
	Hits   uint64
	Misses uint64
	// PlanEntries is the cache's current size.
	PlanEntries int
	// Disabled reports a cache constructed with NewPlanCache(n <= 0):
	// attached sessions bypass it entirely.
	Disabled bool
}

// PlanHitRate reports hits / (hits + misses), 0 when cold.
func (s CacheStats) PlanHitRate() float64 {
	total := s.PlanHits + s.PlanMisses
	if total == 0 {
		return 0
	}
	return float64(s.PlanHits) / float64(total)
}

// planKey addresses a plan entry: normalized statement text scoped to one
// catalog, so sessions over different catalogs sharing a cache get
// independent entries instead of evicting each other's.
type planKey struct {
	cat  *storage.Catalog
	text string
}

type planCacheEntry struct {
	key  planKey
	prep *preparedSelect // pristine resolved plan; cloned per execution
}

// PlanCache memoizes query compilation across sessions: one LRU of fully
// resolved single-SELECT plans (preparedSelect), keyed by normalized
// statement text and tagged with the schema version of every referenced
// table. Lookups validate those versions against the live catalog; an
// entry whose tables moved — CREATE/DROP TABLE, CREATE INDEX, TAG TABLE —
// is evicted on sight, so a stale plan is unreachable, not merely
// unlikely. Hits skip parsing *and* name resolution; only per-execution
// clone + bind + iterator construction remain. Every other statement is
// parsed and executed uncached.
//
// The cache is safe for concurrent use. A cache constructed with
// NewPlanCache(n <= 0) is disabled: sessions treat it as absent and Stats
// reports Disabled.
type PlanCache struct {
	mu       sync.Mutex
	max      int
	disabled bool
	byKey    map[planKey]*list.Element
	lru      *list.List // front = most recent; values are *planCacheEntry

	// The counters are atomics so the warm-query hot path takes the mutex
	// exactly once (lookupPlan); with them folded into mu, every hit would
	// serialize twice on one global lock.
	hits    atomic.Uint64
	misses  atomic.Uint64
	invalid atomic.Uint64
}

// DefaultCacheSize is the conventional entry cap. It is a sentinel callers
// pass explicitly for "the default" (the qqld -cache flag defaults to it;
// server.Config.CacheSize 0 maps to it) — NewPlanCache itself treats
// n <= 0 as disabled, not as this default.
const DefaultCacheSize = 256

// NewPlanCache creates a cache holding at most max plans. max <= 0 returns
// a disabled cache: attached sessions parse and plan every statement from
// scratch, and Stats reports Disabled.
func NewPlanCache(max int) *PlanCache {
	if max <= 0 {
		return &PlanCache{disabled: true}
	}
	return &PlanCache{max: max, byKey: make(map[planKey]*list.Element), lru: list.New()}
}

// Disabled reports whether the cache was constructed disabled.
func (c *PlanCache) Disabled() bool { return c.disabled }

// enabled reports whether c is attached and not disabled.
func (c *PlanCache) enabled() bool { return c != nil && !c.disabled }

// Stats snapshots the hit/miss counters and the current size.
func (c *PlanCache) Stats() CacheStats {
	st := CacheStats{
		PlanHits:          c.hits.Load(),
		PlanMisses:        c.misses.Load(),
		PlanInvalidations: c.invalid.Load(),
		Disabled:          c.disabled,
	}
	st.Hits, st.Misses = st.PlanHits, st.PlanMisses
	if c.lru != nil {
		c.mu.Lock()
		st.PlanEntries = c.lru.Len()
		c.mu.Unlock()
	}
	return st
}

// lookupPlan returns the prepared plan cached under key and refreshes its
// recency. It does not touch the hit/miss counters: the caller classifies
// the outcome after schema-version validation via notePlan.
func (c *PlanCache) lookupPlan(key planKey) (*preparedSelect, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*planCacheEntry).prep, true
}

// notePlan records a lookup outcome.
func (c *PlanCache) notePlan(hit bool) {
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
}

// storePlan inserts a prepared plan under key, evicting the LRU entry when
// full. Storing an existing key replaces it (the newly prepared plan is at
// least as fresh as the cached one).
func (c *PlanCache) storePlan(key planKey, prep *preparedSelect) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(el)
		el.Value.(*planCacheEntry).prep = prep
		return
	}
	c.byKey[key] = c.lru.PushFront(&planCacheEntry{key: key, prep: prep})
	for c.lru.Len() > c.max {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.byKey, oldest.Value.(*planCacheEntry).key)
	}
}

// invalidatePlan evicts the entry under key after a failed schema-version
// validation, so the stale plan cannot be returned again.
func (c *PlanCache) invalidatePlan(key planKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.lru.Remove(el)
		delete(c.byKey, key)
		c.invalid.Add(1)
	}
}

func cloneExpr(e algebra.Expr) algebra.Expr { return algebra.CloneExpr(e) }

// cloneSelect deep-copies a resolved SELECT, detaching every expression
// node the planner or executor might mutate: a plan hit builds from a
// clone so the cached statement stays pristine.
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
