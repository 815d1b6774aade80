package server_test

import (
	"strings"
	"testing"

	"repro/internal/server"
)

// TestServerDropTableOverWire exercises DROP TABLE end-to-end through the
// wire protocol: drop, error on the gone table, recreate under a new
// schema, and correct answers afterwards — against the shared plan cache.
func TestServerDropTableOverWire(t *testing.T) {
	srv := startServer(t, server.Config{})
	a := dial(t, srv)
	b := dial(t, srv)

	if _, err := a.Exec(`CREATE TABLE t (a int, b int); INSERT INTO t VALUES (1, 10)`); err != nil {
		t.Fatal(err)
	}
	q := `SELECT b FROM t WHERE a = 1`
	// Warm the bound-plan cache from both connections.
	for i := 0; i < 2; i++ {
		if n, err := a.QueryInt(q); err != nil || n != 10 {
			t.Fatalf("warm query = %d, %v", n, err)
		}
		if n, err := b.QueryInt(q); err != nil || n != 10 {
			t.Fatalf("warm query (conn b) = %d, %v", n, err)
		}
	}

	msg, err := a.Exec(`DROP TABLE t`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(msg, "dropped table t") {
		t.Errorf("drop msg = %q", msg)
	}
	// The other connection sees the drop — and its cached plan must not
	// resurrect the old table.
	if _, _, err := b.Query(q); err == nil || !strings.Contains(err.Error(), "unknown table") {
		t.Fatalf("query after drop on second conn: err = %v", err)
	}

	// Recreate with b renamed away: the cached plan must re-bind and fail
	// on the missing column rather than replay stale column indexes.
	if _, err := a.Exec(`CREATE TABLE t (a int, c int); INSERT INTO t VALUES (1, 99)`); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Query(q); err == nil || !strings.Contains(err.Error(), "unknown column b") {
		t.Fatalf("stale plan survived drop/recreate over the wire: err = %v", err)
	}
	if n, err := b.QueryInt(`SELECT c FROM t WHERE a = 1`); err != nil || n != 99 {
		t.Fatalf("recreated-table query = %d, %v", n, err)
	}
	if st := srv.Stats(); st.Cache.PlanInvalidations == 0 {
		t.Errorf("drop/recreate caused no plan invalidations: %+v", st.Cache)
	}
}

// TestServerCacheDisabled verifies a negative CacheSize genuinely turns the
// shared cache off instead of silently meaning "default".
func TestServerCacheDisabled(t *testing.T) {
	srv := startServer(t, server.Config{CacheSize: -1})
	c := dial(t, srv)
	if _, err := c.Exec(`CREATE TABLE t (a int); INSERT INTO t VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if n, err := c.QueryInt(`SELECT COUNT(*) AS n FROM t`); err != nil || n != 1 {
			t.Fatalf("query %d = %d, %v", i, n, err)
		}
	}
	st := srv.Stats()
	if !st.Cache.Disabled {
		t.Errorf("Stats.Cache.Disabled = false with CacheSize -1: %+v", st.Cache)
	}
	if st.Cache.Hits+st.Cache.Misses+st.Cache.PlanHits+st.Cache.PlanMisses != 0 {
		t.Errorf("disabled cache saw traffic: %+v", st.Cache)
	}

	// EXPLAIN reports the bypass.
	resp, err := c.Do(`EXPLAIN SELECT a FROM t`)
	if err != nil || resp.Err != "" {
		t.Fatalf("explain: %v %q", err, resp.Err)
	}
	if !strings.Contains(resp.Plan, "plan cache: bypass") {
		t.Errorf("EXPLAIN plan = %q, want bypass line", resp.Plan)
	}
}

// TestServerPlanTierStats checks the server reports its one plan cache: a
// repeated SELECT hits it, repeated INSERT and UPDATE never touch it, and
// the Hits/Misses pair mirrors the plan counters.
func TestServerPlanTierStats(t *testing.T) {
	srv := startServer(t, server.Config{})
	c := dial(t, srv)
	if _, err := c.Exec(`CREATE TABLE t (a int) KEY (a)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := c.Exec(`INSERT INTO t VALUES (` + string(rune('1'+i)) + `)`); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Exec(`UPDATE t SET a = a WHERE a < 0`); err != nil {
			t.Fatal(err)
		}
		if _, err := c.QueryInt(`SELECT COUNT(*) AS n FROM t`); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats().Cache
	if st.PlanHits != 3 || st.PlanMisses != 1 || st.PlanEntries != 1 {
		t.Errorf("plan cache = %d hits, %d misses, %d entries; want 3, 1, 1 (writes uncached): %+v",
			st.PlanHits, st.PlanMisses, st.PlanEntries, st)
	}
	if st.Hits != st.PlanHits || st.Misses != st.PlanMisses {
		t.Errorf("Hits/Misses = %d/%d, want the plan counters %d/%d", st.Hits, st.Misses, st.PlanHits, st.PlanMisses)
	}
	if st.PlanHitRate() <= 0 {
		t.Errorf("hit rate = %v, want > 0", st.PlanHitRate())
	}
}
