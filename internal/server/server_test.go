package server_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/storage"
)

// startServer spins up a server on a random localhost port and returns it
// with a cleanup that shuts it down.
func startServer(t *testing.T, cfg server.Config) *server.Server {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	if cfg.Now.IsZero() {
		cfg.Now = time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC)
	}
	srv := server.New(storage.NewCatalog(), cfg)
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveErr; err != nil && !strings.Contains(err.Error(), "closed") {
			t.Errorf("serve: %v", err)
		}
	})
	return srv
}

func dial(t *testing.T, srv *server.Server) *client.Client {
	t.Helper()
	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestServerBasicRoundtrip(t *testing.T) {
	srv := startServer(t, server.Config{})
	c := dial(t, srv)

	msg, err := c.Exec(`CREATE TABLE customer (
		co_name string REQUIRED,
		employees int QUALITY (creation_time time, source string)
	) KEY (co_name) STRICT`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(msg, "created table customer") {
		t.Errorf("msg = %q", msg)
	}
	if _, err := c.Exec(`INSERT INTO customer VALUES
		('Fruit Co', 4004 @ {creation_time: t'1991-10-03T00:00:00Z', source: 'Nexis'}),
		('Nut Co', 700 @ {creation_time: t'1991-10-09T00:00:00Z', source: 'estimate'})`); err != nil {
		t.Fatal(err)
	}

	cols, rows, err := c.Query(`SELECT co_name, employees FROM customer
		WITH QUALITY employees@source != 'estimate' ORDER BY co_name`)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 2 || cols[0] != "co_name" || cols[1] != "employees" {
		t.Errorf("cols = %v", cols)
	}
	if len(rows) != 1 || rows[0][0] != "'Fruit Co'" || rows[0][1] != "4004" {
		t.Errorf("rows = %v", rows)
	}

	// EXPLAIN comes back in the plan field.
	resp, err := c.Do(`EXPLAIN SELECT co_name FROM customer WHERE co_name = 'Nut Co'`)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err != "" || !strings.Contains(resp.Plan, "customer") {
		t.Errorf("explain response = %+v", resp)
	}

	// Server-side errors arrive as Err, and the connection survives them.
	if _, _, err := c.Query(`SELECT * FROM nonexistent`); err == nil ||
		!strings.Contains(err.Error(), "unknown table") {
		t.Errorf("err = %v", err)
	}
	n, err := c.QueryInt(`SELECT COUNT(*) AS n FROM customer`)
	if err != nil || n != 2 {
		t.Errorf("count = %d, %v", n, err)
	}

	st := srv.Stats()
	if st.Queries < 5 || st.Errors != 1 || st.Accepted != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.TotalLatency <= 0 {
		t.Errorf("latency not measured: %+v", st)
	}
}

func TestServerSessionIsolationAndSharedData(t *testing.T) {
	srv := startServer(t, server.Config{})
	a := dial(t, srv)
	b := dial(t, srv)
	if _, err := a.Exec(`CREATE TABLE t (a int); INSERT INTO t VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	// A second connection sees data created by the first: one catalog.
	n, err := b.QueryInt(`SELECT COUNT(*) AS n FROM t`)
	if err != nil || n != 1 {
		t.Fatalf("count over second conn = %d, %v", n, err)
	}
}

func TestServerMaxConns(t *testing.T) {
	srv := startServer(t, server.Config{MaxConns: 2})
	a := dial(t, srv)
	b := dial(t, srv)
	// Exercise both admitted conns so the accept loop has registered them
	// before the third dial arrives.
	if _, err := a.Exec(`SHOW TABLES`); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Exec(`SHOW TABLES`); err != nil {
		t.Fatal(err)
	}
	// The third connection is refused with an ID-0 error frame, and the
	// server's reason reaches the client's error.
	c3, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	_, err = c3.Do(`SHOW TABLES`)
	if !errors.Is(err, client.ErrConnClosed) || !strings.Contains(err.Error(), "too many connections") {
		t.Fatalf("rejected client err = %v, want ErrConnClosed carrying the server's reason", err)
	}
	// Do may redial once the refusal has landed, and the redial is refused
	// too; no refused connection is ever admitted.
	if st := srv.Stats(); st.Rejected < 1 || st.Accepted != 2 {
		t.Errorf("rejected = %d, accepted = %d; want >= 1 and 2", st.Rejected, st.Accepted)
	}
}

func TestServerPlanCacheShared(t *testing.T) {
	srv := startServer(t, server.Config{})
	a := dial(t, srv)
	b := dial(t, srv)
	if _, err := a.Exec(`CREATE TABLE t (a int); INSERT INTO t VALUES (1), (2)`); err != nil {
		t.Fatal(err)
	}
	q := `SELECT COUNT(*) AS n FROM t WHERE a >= 1`
	if _, err := a.QueryInt(q); err != nil {
		t.Fatal(err)
	}
	// The second session reuses the first session's prepared plan.
	if _, err := b.QueryInt(q); err != nil {
		t.Fatal(err)
	}
	st := srv.Cache().Stats()
	if st.PlanHits == 0 {
		t.Errorf("plan cache hits = 0 (stats %+v)", st)
	}
}

// TestServerConcurrentStress is the acceptance-criteria test: >= 32
// concurrent client connections hammering one table with mixed
// INSERT/SELECT/UPDATE under -race, ending with a consistent row count and
// plan-cache hits on the hot statements.
func TestServerConcurrentStress(t *testing.T) {
	srv := startServer(t, server.Config{MaxConns: 128})
	boot := dial(t, srv)
	if _, err := boot.Exec(`CREATE TABLE stress (
		id string REQUIRED,
		n int,
		note string QUALITY (source string)
	) KEY (id) STRICT;
	CREATE INDEX ON stress (n) USING BTREE`); err != nil {
		t.Fatal(err)
	}

	const (
		workers       = 32
		rowsPerWorker = 25
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(srv.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < rowsPerWorker; i++ {
				id := fmt.Sprintf("w%02d-%03d", w, i)
				if _, err := c.Exec(fmt.Sprintf(
					`INSERT INTO stress VALUES ('%s', %d, 'x' @ {source: 'w%02d'})`,
					id, i, w)); err != nil {
					errs <- fmt.Errorf("insert %s: %w", id, err)
					return
				}
				// Hot statement: identical text across all workers, so the
				// plan cache serves every worker after the first parse.
				if _, err := c.QueryInt(`SELECT COUNT(*) AS n FROM stress WHERE n >= 0`); err != nil {
					errs <- fmt.Errorf("select: %w", err)
					return
				}
				if i%5 == 0 {
					if _, err := c.Exec(fmt.Sprintf(
						`UPDATE stress SET n = n + 1000 WHERE id = '%s'`, id)); err != nil {
						errs <- fmt.Errorf("update %s: %w", id, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	total, err := boot.QueryInt(`SELECT COUNT(*) AS n FROM stress`)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(workers * rowsPerWorker); total != want {
		t.Errorf("row count = %d, want %d", total, want)
	}
	// Every worker bumped ceil(25/5) = 5 rows by 1000.
	bumped, err := boot.QueryInt(`SELECT COUNT(*) AS n FROM stress WHERE n >= 1000`)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(workers * 5); bumped != want {
		t.Errorf("bumped rows = %d, want %d", bumped, want)
	}
	st := srv.Stats()
	if st.Cache.Hits+st.Cache.PlanHits == 0 {
		t.Errorf("plan cache hits = 0 under stress; stats %+v", st.Cache)
	}
	if st.Errors != 0 {
		t.Errorf("server errors = %d, want 0", st.Errors)
	}
	if st.Accepted < workers {
		t.Errorf("accepted = %d, want >= %d", st.Accepted, workers)
	}
}

func TestServerGracefulShutdown(t *testing.T) {
	srv := server.New(storage.NewCatalog(), server.Config{Addr: "127.0.0.1:0"})
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()
	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`CREATE TABLE t (a int)`); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveErr; err == nil || !strings.Contains(err.Error(), "closed") {
		t.Errorf("serve returned %v, want wrapped net.ErrClosed", err)
	}
	// The connection is closed; further calls fail with a transport error.
	if _, err := c.Do(`SHOW TABLES`); err == nil {
		t.Error("expected transport error after shutdown")
	}
	c.Close()
	// Shutdown is idempotent.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Errorf("second shutdown: %v", err)
	}
}
