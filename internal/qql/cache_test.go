package qql

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
)

func TestNormalize(t *testing.T) {
	cases := []struct {
		a, b string
		same bool
	}{
		{"SELECT * FROM t", "select  *\n\tfrom t", true},
		{"SELECT * FROM t", "SELECT * FROM t -- trailing comment", true},
		{"SELECT * FROM t WHERE a = 'x y'", "SELECT * FROM t WHERE a='x y'", true},
		// String literal contents must survive exactly: different inner
		// whitespace means a different key.
		{"SELECT * FROM t WHERE a = 'x  y'", "SELECT * FROM t WHERE a = 'x y'", false},
		{"SELECT * FROM t WHERE a = 1", "SELECT * FROM t WHERE a = 2", false},
		// Identifiers are case-sensitive, hard keywords are not.
		{"select a from t", "SELECT a FROM t", true},
		{"SELECT a FROM t", "SELECT A FROM t", false},
		// Soft keywords double as identifiers, so their spelling is part of
		// the key: a table named "source" is not a table named "SOURCE".
		{"SELECT * FROM source", "SELECT * FROM SOURCE", false},
		{"CREATE TABLE source (a int)", "CREATE TABLE SOURCE (a int)", false},
	}
	for _, c := range cases {
		ka, err := Normalize(c.a)
		if err != nil {
			t.Fatalf("Normalize(%q): %v", c.a, err)
		}
		kb, err := Normalize(c.b)
		if err != nil {
			t.Fatalf("Normalize(%q): %v", c.b, err)
		}
		if (ka == kb) != c.same {
			t.Errorf("Normalize(%q)=%q vs Normalize(%q)=%q; want same=%v", c.a, ka, c.b, kb, c.same)
		}
	}
}

func TestNormalizeQuoting(t *testing.T) {
	key, err := Normalize(`SELECT * FROM t WHERE a = 'it''s' AND b > t'1991-10-03T00:00:00Z' AND c <= d'720h'`)
	if err != nil {
		t.Fatal(err)
	}
	want := `SELECT * FROM t WHERE a = 'it''s' AND b > t'1991-10-03T00:00:00Z' AND c <= d'720h'`
	if key != want {
		t.Errorf("key = %q, want %q", key, want)
	}
}

// TestSelectKeySpellings: every legal spelling of one SELECT or EXPLAIN
// gets the bare statement's key, so none silently loses plan caching, and
// no other script gets a key at all.
func TestSelectKeySpellings(t *testing.T) {
	for src, want := range map[string]string{
		"SELECT a FROM t":                       "SELECT a FROM t",
		"select a\n\tfrom t":                    "SELECT a FROM t",
		"  \n -- lead\nSELECT a FROM t -- tail": "SELECT a FROM t",
		";SELECT a FROM t":                      "SELECT a FROM t",
		" ; ;\nselect a FROM t":                 "SELECT a FROM t",
		"explain select a from t":               "EXPLAIN SELECT a FROM t",
		";EXPLAIN ANALYZE SELECT a FROM t":      "EXPLAIN ANALYZE SELECT a FROM t",
		"INSERT INTO t VALUES (1)":              "",
		"UPDATE t SET a = 1":                    "",
		"CREATE TABLE selects (a int)":          "",
		"selects":                               "",
		"SHOW TABLES; SELECT a FROM t":          "",
		"":                                      "",
		";":                                     "",
		"SELECT 'unterminated":                  "",
	} {
		if got := selectKey(src); got != want {
			t.Errorf("selectKey(%q) = %q, want %q", src, got, want)
		}
	}
}

func newCachedSession(t *testing.T, cache *PlanCache) *Session {
	t.Helper()
	sess := NewSession(storage.NewCatalog())
	sess.SetNow(time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC))
	sess.SetPlanCache(cache)
	return sess
}

const cacheFixture = `
CREATE TABLE customer (
    co_name string REQUIRED,
    employees int QUALITY (creation_time time, source string)
) KEY (co_name) STRICT;
INSERT INTO customer VALUES
    ('Fruit Co', 4004 @ {creation_time: t'1991-10-03T00:00:00Z', source: 'Nexis'}),
    ('Nut Co', 700 @ {creation_time: t'1991-10-09T00:00:00Z', source: 'estimate'});
`

func TestPlanCacheHitsAndResults(t *testing.T) {
	cache := NewPlanCache(16)
	sess := newCachedSession(t, cache)
	sess.MustExec(cacheFixture)

	q := `SELECT co_name FROM customer WITH QUALITY employees@source != 'estimate'`
	for i := 0; i < 3; i++ {
		rel, err := sess.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if rel.Len() != 1 || rel.Tuples[0].Cells[0].V.AsString() != "Fruit Co" {
			t.Fatalf("iteration %d: unexpected result %v", i, rel)
		}
	}
	// Layout-insensitive: same key, so another hit.
	if _, err := sess.Query("select co_name\nfrom customer WITH QUALITY employees@source != 'estimate'"); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	// The first SELECT misses (parse + prepare); repeats are plan hits
	// served without parsing. The fixture script never touches the cache.
	if st.PlanHits != 3 {
		t.Errorf("plan hits = %d, want 3", st.PlanHits)
	}
	if st.PlanMisses != 1 {
		t.Errorf("plan misses = %d, want 1", st.PlanMisses)
	}
	if st.Hits != st.PlanHits || st.Misses != st.PlanMisses {
		t.Errorf("Hits/Misses = %d/%d, want the plan counters %d/%d", st.Hits, st.Misses, st.PlanHits, st.PlanMisses)
	}
	if st.PlanHitRate() <= 0 {
		t.Errorf("plan hit rate = %v, want > 0", st.PlanHitRate())
	}
	if st.PlanEntries != 1 {
		t.Errorf("plan entries = %d, want 1", st.PlanEntries)
	}
}

func TestPlanCacheClonesAreIsolated(t *testing.T) {
	// Planning rewrites alias-qualified names in place; executing the same
	// cached statement twice must not observe the first run's rewrites.
	cache := NewPlanCache(16)
	sess := newCachedSession(t, cache)
	sess.MustExec(cacheFixture)
	q := `SELECT c.co_name FROM customer c WHERE c.co_name LIKE 'Fruit%'`
	for i := 0; i < 3; i++ {
		rel, err := sess.Query(q)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if rel.Len() != 1 {
			t.Fatalf("iteration %d: got %d rows, want 1", i, rel.Len())
		}
	}
	// Repeated UPDATE with a cache attached keeps binding correctly; DML
	// is parsed afresh every time.
	for i := 0; i < 2; i++ {
		if _, err := sess.Exec(`UPDATE customer SET employees = employees + 1 WHERE co_name = 'Nut Co'`); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	rel, err := sess.Query(`SELECT employees FROM customer WHERE co_name = 'Nut Co'`)
	if err != nil {
		t.Fatal(err)
	}
	if got := rel.Tuples[0].Cells[0].V.AsInt(); got != 702 {
		t.Errorf("employees = %d, want 702", got)
	}
}

func TestPlanCacheSoftKeywordIdentifiers(t *testing.T) {
	// Regression: "source" is a soft keyword; a table of that name must not
	// share a cache key with a table named "SOURCE".
	cache := NewPlanCache(16)
	sess := newCachedSession(t, cache)
	sess.MustExec(`CREATE TABLE source (a int)`)
	if _, err := sess.Exec(`CREATE TABLE SOURCE (a int)`); err != nil {
		t.Fatalf("distinct spelling replayed the cached AST: %v", err)
	}
	sess.MustExec(`INSERT INTO source VALUES (1)`)
	sess.MustExec(`INSERT INTO SOURCE VALUES (1), (2)`)
	for spelling, want := range map[string]int64{"source": 1, "SOURCE": 2} {
		rel, err := sess.Query(`SELECT COUNT(*) AS n FROM ` + spelling)
		if err != nil {
			t.Fatal(err)
		}
		if got := rel.Tuples[0].Cells[0].V.AsInt(); got != want {
			t.Errorf("count(%s) = %d, want %d", spelling, got, want)
		}
	}
}

func TestPlanCacheEviction(t *testing.T) {
	cache := NewPlanCache(2)
	sess := newCachedSession(t, cache)
	sess.MustExec(`CREATE TABLE t (a int); INSERT INTO t VALUES (1), (2), (3)`)
	run := func(a int) {
		t.Helper()
		rel, err := sess.Query(fmt.Sprintf(`SELECT a FROM t WHERE a = %d`, a))
		if err != nil {
			t.Fatal(err)
		}
		if rel.Len() != 1 {
			t.Fatalf("a = %d: %d rows, want 1", a, rel.Len())
		}
	}
	want := func(hits, misses uint64) {
		t.Helper()
		st := cache.Stats()
		if st.PlanHits != hits || st.PlanMisses != misses || st.PlanEntries != 2 {
			t.Fatalf("stats = %+v, want %d hits, %d misses, 2 entries", st, hits, misses)
		}
	}
	run(1)
	run(2)
	run(3) // evicts a = 1, the least recently used
	want(0, 3)
	run(3)
	run(2) // recency now 2, 3
	want(2, 3)
	run(1) // evicted above, so a miss; storing it evicts 3
	want(2, 4)
	run(2)
	want(3, 4)
	run(3)
	want(3, 5)
}

// TestWritesBypassPlanCache: only a script whose first statement token is
// SELECT or EXPLAIN can own a plan entry, so DDL, writes and SHOW neither
// store an entry nor count a lookup.
func TestWritesBypassPlanCache(t *testing.T) {
	cache := NewPlanCache(16)
	sess := newCachedSession(t, cache)
	for _, src := range []string{
		cacheFixture,
		`CREATE INDEX ON customer (employees)`,
		`INSERT INTO customer VALUES ('Pit Co', 12 @ {creation_time: t'1991-11-01T00:00:00Z', source: 'Nexis'})`,
		`UPDATE customer SET employees = employees + 1 WHERE co_name = 'Nut Co'`,
		`UPDATE customer SET employees = employees + 1 WHERE co_name = 'Nut Co'`,
		`DELETE FROM customer WHERE co_name = 'Pit Co'`,
		`DESCRIBE customer; SHOW TABLES; SHOW TAGS customer`,
		`CREATE TABLE scratch (a int); DROP TABLE scratch`,
	} {
		sess.MustExec(src)
		if st := cache.Stats(); st != (CacheStats{}) {
			t.Fatalf("after %q: stats = %+v, want untouched", src, st)
		}
	}
}

func TestPlanCacheConcurrent(t *testing.T) {
	cache := NewPlanCache(32)
	cat := storage.NewCatalog()
	boot := NewSession(cat)
	boot.SetPlanCache(cache)
	boot.MustExec(cacheFixture)

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := NewSession(cat)
			sess.SetPlanCache(cache)
			for i := 0; i < 50; i++ {
				rel, err := sess.Query(`SELECT co_name FROM customer WITH QUALITY employees@source != 'estimate'`)
				if err != nil {
					errs <- err
					return
				}
				if rel.Len() != 1 {
					errs <- fmt.Errorf("got %d rows, want 1", rel.Len())
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.PlanHits == 0 {
		t.Error("expected cache hits under concurrent load")
	}
}
