package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/storage"
	"repro/internal/tag"
	"repro/internal/value"
)

// scrapeMetrics GETs /metrics from the server's observability handler and
// returns the Prometheus text body.
func scrapeMetrics(t *testing.T, srv *server.Server) string {
	t.Helper()
	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	srv.MetricsHandler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("/metrics status = %d", rec.Code)
	}
	return rec.Body.String()
}

func TestMetricsEndpoint(t *testing.T) {
	srv := startServer(t, server.Config{})
	c := dial(t, srv)

	if _, err := c.Exec(`CREATE TABLE customer (
		co_name string REQUIRED,
		employees int QUALITY (creation_time time, source string)
	) KEY (co_name) STRICT`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`INSERT INTO customer VALUES
		('Fruit Co', 4004 @ {creation_time: t'1991-10-03T00:00:00Z', source: 'Nexis'}),
		('Nut Co', 700 @ {creation_time: t'1991-10-09T00:00:00Z', source: 'estimate'})`); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Query(`SELECT co_name FROM customer ORDER BY co_name`); err != nil {
		t.Fatal(err)
	}

	body := scrapeMetrics(t, srv)
	for _, want := range []string{
		// Request accounting, per kind and per protocol.
		`qqld_statements_total{kind="select"} 1`,
		`qqld_statements_total{kind="insert"} 1`,
		`qqld_statements_total{kind="create"} 1`,
		`qqld_requests_total{proto="v2"} 3`,
		// Latency histogram with quantiles.
		`qqld_query_seconds{quantile="0.5"}`,
		`qqld_query_seconds_count 3`,
		// Pre-registered kinds exist at zero before any such statement.
		`qqld_statements_total{kind="delete"} 0`,
		// Plan cache and connection series.
		`qqld_plan_cache_hits_total{tier="plan"}`,
		`qqld_connections_active 1`,
		// Quality-of-data gauges from tags.
		`qqld_table_rows{table="customer"} 2`,
		`qqld_table_source_rows{table="customer",source="Nexis"} 1`,
		`qqld_table_source_rows{table="customer",source="estimate"} 1`,
		`qqld_table_oldest_creation_seconds{table="customer"} 686448000`,
		`qqld_table_newest_creation_seconds{table="customer"} 686966400`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// One plan cache: every cache series carries tier="plan".
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "qqld_plan_cache_") && strings.Contains(line, "tier=") && !strings.Contains(line, `tier="plan"`) {
			t.Errorf("/metrics exposes a second cache tier: %q", line)
		}
	}
	if t.Failed() {
		t.Logf("body:\n%s", body)
	}

	// DML bumps the data version; the next scrape sees the new profile.
	if _, err := c.Exec(`DELETE FROM customer WHERE co_name = 'Nut Co'`); err != nil {
		t.Fatal(err)
	}
	body = scrapeMetrics(t, srv)
	if !strings.Contains(body, `qqld_table_rows{table="customer"} 1`) {
		t.Errorf("quality gauges not refreshed after DELETE:\n%s", body)
	}
	if strings.Contains(body, `source="estimate"`) {
		t.Errorf("vanished source still exposed after DELETE:\n%s", body)
	}
}

// qualityGaugeCatalog builds the storage shapes the quality gauges must
// read through: a table spanning two segments with deletes and
// copy-on-write updates in both, nulls, source/creation_time tags, polygen
// sources and meta tags, beside an untagged table.
func qualityGaugeCatalog(t *testing.T) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog()
	sc := schema.MustNew("golden", []schema.Attr{
		{Name: "co_name", Kind: value.KindString, Required: true},
		{Name: "employees", Kind: value.KindInt, Indicators: []tag.Indicator{
			{Name: "creation_time", Kind: value.KindTime}, {Name: "source", Kind: value.KindString}}},
		{Name: "address", Kind: value.KindString, Indicators: []tag.Indicator{{Name: "source", Kind: value.KindString}}},
	}, "co_name")
	tbl, err := cat.Create(sc, false)
	if err != nil {
		t.Fatal(err)
	}
	epoch := time.Date(1991, 1, 1, 0, 0, 0, 0, time.UTC)
	row := func(i int, src string) relation.Tuple {
		emp := relation.Cell{V: value.Int(int64(i))}
		if i%4 != 0 {
			emp.Tags = tag.NewSet(
				tag.Tag{Indicator: "creation_time", Value: value.Time(epoch.Add(time.Duration(i) * time.Hour))},
				tag.Tag{Indicator: "source", Value: value.Str(src)})
		}
		if i%6 == 0 {
			emp.V = value.Null
		}
		if i%9 == 0 && !emp.Tags.IsEmpty() {
			emp = emp.WithMetaTag("source", "credibility", value.Str("high"))
		}
		addr := relation.Cell{V: value.Str(fmt.Sprintf("%d Main St", i))}
		if i%5 == 0 {
			addr.Sources = tag.NewSources("census", []string{"feed", src}[i%2])
		}
		if i%7 == 0 {
			addr.Tags = tag.NewSet(tag.Tag{Indicator: "source", Value: value.Str("Nexis")})
		}
		if i%10 == 7 {
			addr.V = value.Null
		}
		return relation.Tuple{Cells: []relation.Cell{{V: value.Str(fmt.Sprintf("co-%05d", i))}, emp, addr}}
	}
	srcs := []string{"Nexis", "estimate", "sales"}
	const n = storage.SegmentSize + 40
	for i := 0; i < n; i++ {
		if _, err := tbl.Insert(row(i, srcs[i%3])); err != nil {
			t.Fatal(err)
		}
	}
	for i := 2; i < n; i += 11 {
		if err := tbl.Delete(storage.RowID(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range []int{3, 1000, storage.SegmentSize + 5, n - 1} {
		if err := tbl.Update(storage.RowID(i), row(i, "audit")); err != nil {
			t.Fatal(err)
		}
	}
	plain, err := cat.Create(schema.MustNew("plain", []schema.Attr{{Name: "x", Kind: value.KindInt}}), false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := plain.Insert(relation.NewTuple(value.Int(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := plain.Delete(2); err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestQualityGaugesPinned pins every qqld_table_* series for
// qualityGaugeCatalog. The expected lines were produced by the
// row-materialising gauge pass; walking the column runs must agree exactly.
func TestQualityGaugesPinned(t *testing.T) {
	srv := server.New(qualityGaugeCatalog(t), server.Config{})
	var got []string
	for _, line := range strings.Split(scrapeMetrics(t, srv), "\n") {
		if strings.HasPrefix(line, "qqld_table_") {
			got = append(got, line)
		}
	}
	sort.Strings(got)
	want := []string{
		`qqld_table_cells{table="golden"} 11280`,
		`qqld_table_cells{table="plain"} 4`,
		`qqld_table_newest_creation_seconds{table="golden"} 677574000`,
		`qqld_table_oldest_creation_seconds{table="golden"} 662691600`,
		`qqld_table_rows{table="golden"} 3760`,
		`qqld_table_rows{table="plain"} 4`,
		`qqld_table_source_rows{table="golden",source="Nexis"} 1342`,
		`qqld_table_source_rows{table="golden",source="audit"} 3`,
		`qqld_table_source_rows{table="golden",source="census"} 753`,
		`qqld_table_source_rows{table="golden",source="estimate"} 939`,
		`qqld_table_source_rows{table="golden",source="feed"} 377`,
		`qqld_table_source_rows{table="golden",source="sales"} 939`,
		`qqld_table_tag_completeness{table="golden"} 0.2976063829787234`,
		`qqld_table_tag_completeness{table="plain"} 0`,
		`qqld_table_tagged_cells{table="golden"} 3357`,
		`qqld_table_tagged_cells{table="plain"} 0`,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("qqld_table_* gauges:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestStatsEndpointJSON(t *testing.T) {
	srv := startServer(t, server.Config{})
	c := dial(t, srv)
	if _, _, err := c.Query(`SHOW TABLES`); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("GET", "/stats", nil)
	rec := httptest.NewRecorder()
	srv.MetricsHandler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("/stats status = %d", rec.Code)
	}
	var got struct {
		Server  server.Stats     `json:"server"`
		Metrics []map[string]any `json:"metrics"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("bad /stats JSON: %v\n%s", err, rec.Body.String())
	}
	if got.Server.Queries != 1 {
		t.Errorf("server.queries = %d, want 1", got.Server.Queries)
	}
	if len(got.Metrics) == 0 {
		t.Error("empty metrics snapshot")
	}
}

func TestPprofEndpoint(t *testing.T) {
	srv := startServer(t, server.Config{})
	req := httptest.NewRequest("GET", "/debug/pprof/heap?debug=1", nil)
	rec := httptest.NewRecorder()
	srv.MetricsHandler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("/debug/pprof/heap status = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "heap profile") {
		t.Errorf("unexpected heap profile body: %.100s", rec.Body.String())
	}
}

// TestMetricsScrapeUnderLoad hammers the server with 8 connections of mixed
// DML and queries while concurrently scraping /metrics — the -race check
// that every counter, gauge and histogram on the hot path is safe.
func TestMetricsScrapeUnderLoad(t *testing.T) {
	srv := startServer(t, server.Config{})
	setup := dial(t, srv)
	if _, err := setup.Exec(`CREATE TABLE load (id int REQUIRED, grp string QUALITY (source string)) KEY (id)`); err != nil {
		t.Fatal(err)
	}

	const conns, iters = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(srv.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < iters; i++ {
				id := w*iters + i
				if _, err := c.Exec(fmt.Sprintf(
					`INSERT INTO load VALUES (%d, 'g' @ {source: 'w%d'})`, id, w)); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := c.Query(`SELECT COUNT(*) AS n FROM load`); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Exec(`EXPLAIN ANALYZE SELECT id FROM load WHERE id >= 0`); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			body := scrapeMetrics(t, srv)
			want := fmt.Sprintf(`qqld_table_rows{table="load"} %d`, conns*iters)
			if !strings.Contains(body, want) {
				t.Errorf("final scrape missing %q", want)
			}
			if !strings.Contains(body, `qqld_statements_total{kind="explain analyze"} 200`) {
				t.Errorf("explain analyze count off:\n%s", body)
			}
			return
		default:
			scrapeMetrics(t, srv)
			time.Sleep(time.Millisecond)
		}
	}
}

func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	srv := startServer(t, server.Config{SlowQuery: time.Nanosecond, SlowQueryLog: &buf})
	c := dial(t, srv)
	if _, err := c.Exec(`CREATE TABLE slow (id int REQUIRED) KEY (id)`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`INSERT INTO slow VALUES (1), (2), (3)`); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Query(`SELECT id FROM slow WHERE id >= 2 ORDER BY id`); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "slow query") {
		t.Fatalf("no slow-query lines logged:\n%s", out)
	}
	// The SELECT's line carries normalized text, row count, cache tier and
	// plan shape.
	var line string
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, "SELECT") {
			line = l
		}
	}
	if line == "" {
		t.Fatalf("no SELECT slow-query line:\n%s", out)
	}
	for _, want := range []string{
		"rows=2", "cache=", "plan=", "stmt=SELECT id FROM slow WHERE id >= 2 ORDER BY id",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("slow-query line missing %q: %s", want, line)
		}
	}
}

// TestSlowQueryLogNamesDMLPath checks an UPDATE's slow-query line says how
// it collected its rows: an index probe when a sarg has an index, a snapshot
// scan otherwise.
func TestSlowQueryLogNamesDMLPath(t *testing.T) {
	var buf bytes.Buffer
	srv := startServer(t, server.Config{SlowQuery: time.Nanosecond, SlowQueryLog: &buf})
	c := dial(t, srv)
	for _, q := range []string{
		`CREATE TABLE slow (id int REQUIRED, n int) KEY (id)`,
		`CREATE INDEX ON slow (id) USING HASH`,
		`INSERT INTO slow VALUES (1, 0), (2, 0), (3, 0)`,
		`UPDATE slow SET n = 1 WHERE id = 2`,
		`UPDATE slow SET n = 2 WHERE n = 1`,
	} {
		if _, err := c.Exec(q); err != nil {
			t.Fatal(err)
		}
	}
	lines := map[string]string{}
	for _, l := range strings.Split(buf.String(), "\n") {
		if i := strings.Index(l, "stmt=UPDATE"); i >= 0 {
			lines[l[i+len("stmt="):]] = l
		}
	}
	for stmt, want := range map[string]string{
		"UPDATE slow SET n = 1 WHERE id = 2": `plan="IndexScan(slow on id: (id = 2) WHERE (id = 2))"`,
		"UPDATE slow SET n = 2 WHERE n = 1":  `plan="BatchTableScan(slow WHERE (n = 1), segments skipped=0 of 1)"`,
	} {
		line, ok := lines[stmt]
		if !ok {
			t.Fatalf("no slow-query line for %s:\n%s", stmt, buf.String())
		}
		if !strings.Contains(line, want) || !strings.Contains(line, "rows=1") {
			t.Errorf("slow-query line missing %s or rows=1: %s", want, line)
		}
	}
}

func TestShowStatsOverWire(t *testing.T) {
	srv := startServer(t, server.Config{})
	c := dial(t, srv)
	if _, _, err := c.Query(`SHOW TABLES`); err != nil {
		t.Fatal(err)
	}
	cols, rows, err := c.QueryValues(`SHOW STATS`)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 2 || cols[0] != "stat" {
		t.Fatalf("cols = %v", cols)
	}
	stats := map[string]string{}
	for _, r := range rows {
		stats[r[0].AsString()] = r[1].AsString()
	}
	// The server registers its counters as extra rows, so clients see both
	// session- and server-level stats over the wire.
	for _, want := range []string{"session_statements", "server_queries", "server_connections_active"} {
		if _, ok := stats[want]; !ok {
			t.Errorf("SHOW STATS missing %q (got %v)", want, stats)
		}
	}
	if stats["server_connections_active"] != "1" {
		t.Errorf("server_connections_active = %q, want 1", stats["server_connections_active"])
	}
}
