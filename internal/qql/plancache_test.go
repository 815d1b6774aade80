package qql

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/value"
)

// ---- DROP TABLE ----

func TestDropTable(t *testing.T) {
	sess := newCachedSession(t, NewPlanCache(16))
	sess.MustExec(cacheFixture)

	res := sess.MustExec(`DROP TABLE customer`)
	if res[0].Msg != "dropped table customer" {
		t.Errorf("drop message = %q", res[0].Msg)
	}
	if _, err := sess.Query(`SELECT * FROM customer`); err == nil {
		t.Fatal("query on dropped table succeeded")
	}
	if _, err := sess.Exec(`DROP TABLE customer`); err == nil {
		t.Fatal("double drop succeeded")
	}
	// The name is reusable with a brand-new schema.
	sess.MustExec(`CREATE TABLE customer (x int); INSERT INTO customer VALUES (7)`)
	rel, err := sess.Query(`SELECT x FROM customer`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 || rel.Tuples[0].Cells[0].V.AsInt() != 7 {
		t.Fatalf("recreated table result = %v", rel.Tuples)
	}
}

func TestCatalogSchemaVersions(t *testing.T) {
	sess := newCachedSession(t, NewPlanCache(16))
	cat := sess.Catalog()
	if v := cat.Version("t"); v != 0 {
		t.Fatalf("version of never-created table = %d, want 0", v)
	}
	sess.MustExec(`CREATE TABLE t (a int)`)
	v1 := cat.Version("t")
	sess.MustExec(`CREATE INDEX ON t (a) USING BTREE`)
	v2 := cat.Version("t")
	sess.MustExec(`TAG TABLE t @ {method: 'census'}`)
	v3 := cat.Version("t")
	sess.MustExec(`DROP TABLE t`)
	v4 := cat.Version("t")
	sess.MustExec(`CREATE TABLE t (b string)`)
	v5 := cat.Version("t")
	vs := []uint64{v1, v2, v3, v4, v5}
	for i := 1; i < len(vs); i++ {
		if vs[i] <= vs[i-1] {
			t.Fatalf("versions not strictly monotonic across DDL: %v", vs)
		}
	}
}

// ---- EXPLAIN plan-cache outcome ----

func explainLine(t *testing.T, sess *Session, q string) string {
	t.Helper()
	res, err := sess.Exec(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	for _, line := range strings.Split(res[0].Plan, "\n") {
		if strings.HasPrefix(line, "plan cache: ") {
			return strings.TrimPrefix(line, "plan cache: ")
		}
	}
	t.Fatalf("no plan cache line in:\n%s", res[0].Plan)
	return ""
}

func TestExplainPlanCacheOutcome(t *testing.T) {
	// No cache attached: bypass.
	bare := NewSession(storage.NewCatalog())
	bare.SetNow(time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC))
	bare.MustExec(`CREATE TABLE t (a int)`)
	if got := explainLine(t, bare, `EXPLAIN SELECT a FROM t`); got != "bypass" {
		t.Errorf("uncached EXPLAIN outcome = %q, want bypass", got)
	}

	sess := newCachedSession(t, NewPlanCache(16))
	sess.MustExec(`CREATE TABLE t (a int); INSERT INTO t VALUES (1), (2)`)
	q := `SELECT a FROM t WHERE a >= 1`
	if got := explainLine(t, sess, `EXPLAIN `+q); got != "miss" {
		t.Errorf("first EXPLAIN outcome = %q, want miss", got)
	}
	if got := explainLine(t, sess, `EXPLAIN `+q); got != "hit" {
		t.Errorf("second EXPLAIN outcome = %q, want hit", got)
	}
	// EXPLAIN warmed the entry the bare SELECT uses: executing it is a hit.
	before := sess.PlanCache().Stats().PlanHits
	if _, err := sess.Query(q); err != nil {
		t.Fatal(err)
	}
	if after := sess.PlanCache().Stats().PlanHits; after != before+1 {
		t.Errorf("SELECT after EXPLAIN: plan hits went %d -> %d, want +1", before, after)
	}
	// A statement inside a multi-statement script bypasses the plan tier.
	res, err := sess.Exec(`EXPLAIN ` + q + `; SHOW TABLES`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res[0].Plan, "plan cache: bypass") {
		t.Errorf("multi-statement EXPLAIN should bypass:\n%s", res[0].Plan)
	}
}

// ---- schema-version invalidation ----

func TestPlanTierInvalidationOnDDL(t *testing.T) {
	cache := NewPlanCache(16)
	sess := newCachedSession(t, cache)
	sess.MustExec(`CREATE TABLE t (a int, b int) KEY (a);
		INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)`)

	q := `SELECT b FROM t WHERE a = 2`
	if got := explainLine(t, sess, `EXPLAIN `+q); got != "miss" {
		t.Fatalf("cold outcome = %q, want miss", got)
	}
	res := sess.MustExec(`EXPLAIN ` + q)
	if !strings.Contains(res[0].Plan, "TableScan") {
		t.Fatalf("unindexed plan should TableScan:\n%s", res[0].Plan)
	}

	// CREATE INDEX bumps the version: the cached plan must be re-optimized,
	// not replayed — the new plan uses the index.
	sess.MustExec(`CREATE INDEX ON t (a) USING BTREE`)
	res = sess.MustExec(`EXPLAIN ` + q)
	if !strings.Contains(res[0].Plan, "IndexScan") {
		t.Fatalf("post-CREATE INDEX plan still table-scans (stale plan replayed):\n%s", res[0].Plan)
	}
	if !strings.Contains(res[0].Plan, "plan cache: miss") {
		t.Fatalf("post-DDL EXPLAIN should miss:\n%s", res[0].Plan)
	}
	if inv := cache.Stats().PlanInvalidations; inv != 1 {
		t.Errorf("invalidations = %d, want 1", inv)
	}

	// TAG TABLE invalidates too (conservative: any DDL-adjacent change).
	if got := explainLine(t, sess, `EXPLAIN `+q); got != "hit" {
		t.Fatalf("warm outcome = %q, want hit", got)
	}
	sess.MustExec(`TAG TABLE t @ {method: 'census'}`)
	if got := explainLine(t, sess, `EXPLAIN `+q); got != "miss" {
		t.Errorf("post-TAG TABLE outcome = %q, want miss", got)
	}

	// DROP + recreate under a different schema: the cached plan must not
	// resolve against the old schema — the query re-binds and errors
	// because column b is gone.
	sess.MustExec(`DROP TABLE t; CREATE TABLE t (a int, c int)`)
	sess.MustExec(`INSERT INTO t VALUES (2, 200)`)
	if _, err := sess.Query(q); err == nil || !strings.Contains(err.Error(), "unknown column b") {
		t.Fatalf("stale plan survived drop/recreate: err = %v", err)
	}
	rel, err := sess.Query(`SELECT c FROM t WHERE a = 2`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 || rel.Tuples[0].Cells[0].V.AsInt() != 200 {
		t.Fatalf("recreated-table query = %v", rel.Tuples)
	}
}

// TestDirectStorageDDLInvalidates: version bumps live in the storage
// layer, so a CreateIndex or SetTableTag issued through the storage API
// directly — bypassing QQL entirely, as embedded facade users do — still
// invalidates cached bound plans.
func TestDirectStorageDDLInvalidates(t *testing.T) {
	cache := NewPlanCache(16)
	sess := newCachedSession(t, cache)
	sess.MustExec(`CREATE TABLE t (a int, b int); INSERT INTO t VALUES (1, 10)`)
	q := `SELECT b FROM t WHERE a = 1`
	if got := explainLine(t, sess, `EXPLAIN `+q); got != "miss" {
		t.Fatalf("cold outcome = %q, want miss", got)
	}
	tbl, _ := sess.Catalog().Get("t")
	if err := tbl.CreateIndex(storage.IndexTarget{Attr: "a"}, storage.IndexBTree); err != nil {
		t.Fatal(err)
	}
	res := sess.MustExec(`EXPLAIN ` + q)
	if !strings.Contains(res[0].Plan, "IndexScan") || !strings.Contains(res[0].Plan, "plan cache: miss") {
		t.Fatalf("direct CreateIndex did not invalidate the cached plan:\n%s", res[0].Plan)
	}
	if got := explainLine(t, sess, `EXPLAIN `+q); got != "hit" {
		t.Fatalf("warm outcome = %q, want hit", got)
	}
	tbl.SetTableTag("method", value.Str("census"))
	if got := explainLine(t, sess, `EXPLAIN `+q); got != "miss" {
		t.Errorf("direct SetTableTag did not invalidate: outcome = %q", got)
	}
}

// TestBuildFailingSelectNotCached: a SELECT that survives prepare but
// fails at build (star + aggregate is rejected at build time) must not
// enter the bound-plan tier — caching it would make every retry pay
// lookup + validate + clone + fail on top of the fresh compile, and count
// failing executions as hits.
func TestBuildFailingSelectNotCached(t *testing.T) {
	cache := NewPlanCache(16)
	sess := newCachedSession(t, cache)
	sess.MustExec(`CREATE TABLE t (a int); INSERT INTO t VALUES (1)`)
	q := `SELECT *, COUNT(*) AS n FROM t`
	for i := 0; i < 3; i++ {
		if _, err := sess.Query(q); err == nil {
			t.Fatal("star + aggregate should fail")
		}
	}
	st := cache.Stats()
	if st.PlanEntries != 0 {
		t.Errorf("build-failing SELECT was cached: %+v", st)
	}
	if st.PlanHits != 0 {
		t.Errorf("failing executions counted as plan hits: %+v", st)
	}
}

// ---- session clock ----

func TestSessionClockAdvancesPerStatement(t *testing.T) {
	sess := NewSession(storage.NewCatalog())
	sess.MustExec(`CREATE TABLE t (a int); INSERT INTO t VALUES (1)`)
	now := func() time.Time {
		rel, err := sess.Query(`SELECT NOW() AS n FROM t`)
		if err != nil {
			t.Fatal(err)
		}
		return rel.Tuples[0].Cells[0].V.AsTime()
	}
	first := now()
	time.Sleep(5 * time.Millisecond)
	second := now()
	if !second.After(first) {
		t.Fatalf("session clock frozen across Execs: %v then %v", first, second)
	}
}

func TestSetNowPinsClock(t *testing.T) {
	sess := NewSession(storage.NewCatalog())
	pin := time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC)
	sess.SetNow(pin)
	sess.MustExec(`CREATE TABLE t (a int); INSERT INTO t VALUES (1)`)
	time.Sleep(2 * time.Millisecond)
	rel, err := sess.Query(`SELECT NOW() AS n FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if got := rel.Tuples[0].Cells[0].V.AsTime(); !got.Equal(pin) {
		t.Fatalf("pinned clock drifted: %v, want %v", got, pin)
	}
	if sess.Now() != pin {
		t.Errorf("Now() = %v, want pin", sess.Now())
	}
}

// ---- clone enforcement ----

// collectReproPtrs walks v and records the addresses of every pointer to a
// struct defined in this module, plus every non-empty slice backing array —
// the shapes a shallow statement copy would alias into the planner.
func collectReproPtrs(v reflect.Value, out map[uintptr]string) {
	switch v.Kind() {
	case reflect.Ptr:
		if v.IsNil() {
			return
		}
		// Zero-sized structs all live at the runtime's zero base; their
		// "sharing" is an artifact, not aliasing.
		if e := v.Type().Elem(); e.Kind() == reflect.Struct && e.Size() > 0 && strings.HasPrefix(e.PkgPath(), "repro/") {
			out[v.Pointer()] = e.String()
		}
		collectReproPtrs(v.Elem(), out)
	case reflect.Interface:
		if !v.IsNil() {
			collectReproPtrs(v.Elem(), out)
		}
	case reflect.Slice:
		if v.Len() > 0 {
			out[v.Pointer()] = "[]" + v.Type().Elem().String()
		}
		for i := 0; i < v.Len(); i++ {
			collectReproPtrs(v.Index(i), out)
		}
	case reflect.Struct:
		// Skip foreign structs (time.Time's *Location is legitimately
		// shared); repro structs are walked field by field.
		if pkg := v.Type().PkgPath(); pkg != "" && !strings.HasPrefix(pkg, "repro/") {
			return
		}
		for i := 0; i < v.NumField(); i++ {
			collectReproPtrs(v.Field(i), out)
		}
	}
}

// selectSamples are SELECTs exercising every expression-bearing field a
// resolved statement carries: joins, WHERE, quality clauses, GROUP BY,
// aggregates, ORDER BY, DISTINCT and LIMIT/OFFSET.
var selectSamples = []string{
	`SELECT DISTINCT a, a + 1 AS b FROM t x JOIN u y ON x.a = y.a
		WHERE a > 1 AND a IN (1, 2) WITH QUALITY a@src != 'estimate'
		ORDER BY a DESC LIMIT 3 OFFSET 1`,
	`SELECT x.g, COUNT(*) AS n, SUM(y.v) AS s FROM t x JOIN u y ON x.k = y.k
		JOIN w z ON y.k = z.k AND z.v > 0
		WITH QUALITY x.g@creation_time >= t'1991-01-01T00:00:00Z'
		GROUP BY x.g ORDER BY n DESC, x.g`,
	`SELECT * FROM t WHERE NOT (a = 1 OR a LIKE 'x%') AND b IS NOT NULL LIMIT 5`,
}

// TestCloneStmtExhaustive checks cloneSelect hands back a deep copy of
// each sample sharing no module-defined pointers or slice backings with
// the original: a plan hit builds from such a clone, and the planner
// mutates expression nodes in place.
func TestCloneStmtExhaustive(t *testing.T) {
	for _, src := range selectSamples {
		st, err := ParseOne(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		sel, ok := st.(*SelectStmt)
		if !ok {
			t.Fatalf("sample %q parsed to %T, want *SelectStmt", src, st)
		}
		clone := cloneSelect(sel)
		if !reflect.DeepEqual(clone, sel) {
			t.Errorf("%q: clone differs from the original", src)
		}
		orig, cloned := map[uintptr]string{}, map[uintptr]string{}
		collectReproPtrs(reflect.ValueOf(sel), orig)
		collectReproPtrs(reflect.ValueOf(clone), cloned)
		for addr, what := range cloned {
			if _, shared := orig[addr]; shared {
				t.Errorf("%q: clone shares %s with the original", src, what)
			}
		}
	}
}

// ---- disabled cache ----

func TestPlanCacheDisabled(t *testing.T) {
	cache := NewPlanCache(0)
	if !cache.Disabled() {
		t.Fatal("NewPlanCache(0) not disabled")
	}
	st := cache.Stats()
	if !st.Disabled {
		t.Error("Stats().Disabled = false")
	}
	sess := newCachedSession(t, cache)
	sess.MustExec(cacheFixture)
	q := `SELECT co_name FROM customer WITH QUALITY employees@source != 'estimate'`
	for i := 0; i < 3; i++ {
		rel, err := sess.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if rel.Len() != 1 {
			t.Fatalf("iteration %d: %d rows, want 1", i, rel.Len())
		}
	}
	st = cache.Stats()
	if st.Hits+st.Misses+st.PlanHits+st.PlanMisses != 0 || st.PlanEntries != 0 {
		t.Errorf("disabled cache saw traffic: %+v", st)
	}
	if got := explainLine(t, sess, `EXPLAIN `+q); got != "bypass" {
		t.Errorf("EXPLAIN outcome with disabled cache = %q, want bypass", got)
	}
}

// TestSharedCacheAcrossCatalogs: plan-tier keys are catalog-scoped, so two
// sessions over different catalogs sharing one cache each keep their own
// entries — neither evicts the other's, and no spurious invalidations are
// recorded.
func TestSharedCacheAcrossCatalogs(t *testing.T) {
	cache := NewPlanCache(16)
	mk := func(marker int) *Session {
		sess := NewSession(storage.NewCatalog())
		sess.SetNow(time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC))
		sess.SetPlanCache(cache)
		sess.MustExec(fmt.Sprintf(`CREATE TABLE t (a int); INSERT INTO t VALUES (%d)`, marker))
		return sess
	}
	a, b := mk(1), mk(2)
	q := `SELECT a FROM t`
	for i := 0; i < 3; i++ {
		for want, sess := range map[int64]*Session{1: a, 2: b} {
			rel, err := sess.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if got := rel.Tuples[0].Cells[0].V.AsInt(); got != want {
				t.Fatalf("cross-catalog mixup: got %d, want %d", got, want)
			}
		}
	}
	st := cache.Stats()
	if st.PlanInvalidations != 0 {
		t.Errorf("cross-catalog sharing caused %d invalidations (thrash)", st.PlanInvalidations)
	}
	if st.PlanEntries != 2 {
		t.Errorf("plan entries = %d, want 2 (one per catalog)", st.PlanEntries)
	}
	if st.PlanHits < 4 {
		t.Errorf("plan hits = %d, want >= 4", st.PlanHits)
	}
}

// ---- DDL vs cache race ----

// TestDDLVsPlanCacheRace is the acceptance-criteria stress test: 32
// concurrent sessions hammer a hot cached SELECT while the table is
// dropped, recreated and re-tagged between rounds. After each round's DDL
// completes, every session must see the new generation — a replayed stale
// plan would return the previous round's marker. Run under -race.
func TestDDLVsPlanCacheRace(t *testing.T) {
	const workers = 32
	rounds := 30
	if testing.Short() {
		rounds = 8
	}
	cache := NewPlanCache(64)
	cat := storage.NewCatalog()
	ddl := NewSession(cat)
	ddl.SetPlanCache(cache)

	sessions := make([]*Session, workers)
	for i := range sessions {
		sessions[i] = NewSession(cat)
		sessions[i].SetPlanCache(cache)
	}

	q := `SELECT marker FROM hot WHERE gate = 1`
	for round := 0; round < rounds; round++ {
		if round > 0 {
			ddl.MustExec(`DROP TABLE hot`)
		}
		ddl.MustExec(fmt.Sprintf(
			`CREATE TABLE hot (gate int, marker int) KEY (gate);
			 INSERT INTO hot VALUES (1, %d);
			 TAG TABLE hot @ {round: %d}`, round, round))
		if round%3 == 1 {
			ddl.MustExec(`CREATE INDEX ON hot (gate) USING HASH`)
		}

		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(sess *Session, want int64) {
				defer wg.Done()
				for i := 0; i < 5; i++ {
					rel, err := sess.Query(q)
					if err != nil {
						errs <- fmt.Errorf("round %d: %w", want, err)
						return
					}
					if rel.Len() != 1 {
						errs <- fmt.Errorf("round %d: %d rows, want 1", want, rel.Len())
						return
					}
					if got := rel.Tuples[0].Cells[0].V.AsInt(); got != want {
						errs <- fmt.Errorf("round %d: stale plan returned marker %d", want, got)
						return
					}
				}
			}(sessions[w], int64(round))
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	st := cache.Stats()
	if st.PlanHits == 0 {
		t.Errorf("stress ran entirely cold: %+v", st)
	}
	if st.PlanInvalidations == 0 {
		t.Errorf("DDL between rounds never invalidated a cached plan: %+v", st)
	}
}

// TestDDLVsPlanCacheChaos overlaps queries and DDL with no barrier: results
// must come from some committed generation (any marker, one row) and the
// engine must not panic or race. Errors from the drop window ("unknown
// table", "unknown column") are expected and tolerated.
func TestDDLVsPlanCacheChaos(t *testing.T) {
	const workers = 16
	cache := NewPlanCache(64)
	cat := storage.NewCatalog()
	boot := NewSession(cat)
	boot.SetPlanCache(cache)
	boot.MustExec(`CREATE TABLE hot (gate int, marker int); INSERT INTO hot VALUES (1, 0)`)

	stop := make(chan struct{})
	ddlDone := make(chan struct{})
	go func() {
		defer close(ddlDone)
		ddl := NewSession(cat)
		ddl.SetPlanCache(cache)
		for round := 1; ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			_, _ = ddl.Exec(`DROP TABLE hot`)
			_, _ = ddl.Exec(fmt.Sprintf(`CREATE TABLE hot (gate int, marker int); INSERT INTO hot VALUES (1, %d)`, round))
			_, _ = ddl.Exec(fmt.Sprintf(`TAG TABLE hot @ {round: %d}`, round))
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := NewSession(cat)
			sess.SetPlanCache(cache)
			for i := 0; i < 200; i++ {
				rel, err := sess.Query(`SELECT marker FROM hot WHERE gate = 1`)
				if err != nil {
					continue // racing the drop window
				}
				if rel.Len() > 1 {
					t.Errorf("%d rows from a single-row table", rel.Len())
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-ddlDone
}
