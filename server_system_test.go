// End-to-end test of the server access path through the public facade:
// NewDatabase -> NewServer -> Dial -> query over the wire, with the same
// quality-filtering semantics as the embedded path.
package repro_test

import (
	"context"
	"testing"
	"time"

	"repro"
)

func TestServerAccessPathThroughFacade(t *testing.T) {
	now := time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC)
	// DefaultPlanCacheSize is the explicit "default" sentinel;
	// WithPlanCache(0) attaches a disabled cache.
	db := repro.NewDatabase().At(now).WithPlanCache(repro.DefaultPlanCacheSize)
	db.Session.MustExec(`CREATE TABLE customer (
		co_name string REQUIRED,
		employees int QUALITY (creation_time time, source string)
	) KEY (co_name) STRICT`)
	db.Session.MustExec(`INSERT INTO customer VALUES
		('Fruit Co', 4004 @ {creation_time: t'1991-10-03T00:00:00Z', source: 'Nexis'}),
		('Nut Co', 700 @ {creation_time: t'1991-10-09T00:00:00Z', source: 'estimate'})`)

	srv := repro.NewServer(db, repro.ServerConfig{Addr: "127.0.0.1:0", Now: now})
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	c, err := repro.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The wire result matches the embedded result.
	embedded, err := db.Session.Query(`SELECT co_name FROM customer
		WITH QUALITY employees@source != 'estimate'`)
	if err != nil {
		t.Fatal(err)
	}
	_, rows, err := c.Query(`SELECT co_name FROM customer
		WITH QUALITY employees@source != 'estimate'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != embedded.Len() || len(rows) != 1 {
		t.Fatalf("wire %d rows, embedded %d rows, want 1", len(rows), embedded.Len())
	}
	if rows[0][0] != embedded.Tuples[0].Cells[0].V.Literal() {
		t.Errorf("wire %q != embedded %q", rows[0][0], embedded.Tuples[0].Cells[0].V.Literal())
	}

	// Writes over the wire land in the shared catalog.
	if _, err := c.Exec(`INSERT INTO customer VALUES
		('Seed Co', 12 @ {creation_time: t'1991-12-01T00:00:00Z', source: 'sales'})`); err != nil {
		t.Fatal(err)
	}
	rel, err := db.Session.Query(`SELECT COUNT(*) AS n FROM customer`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Tuples[0].Cells[0].V.AsInt() != 3 {
		t.Errorf("embedded session sees %v rows, want 3", rel.Tuples[0].Cells[0].V)
	}

	// The batch API ships several statements in one frame with
	// per-statement results, and a JSON-encoding client shares the catalog.
	resps, err := c.ExecBatch([]string{
		`INSERT INTO customer VALUES ('Batch Co', 9 @ {creation_time: t'1991-12-02T00:00:00Z', source: 'sales'})`,
		`SELECT COUNT(*) AS n FROM customer`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 2 || resps[0].Err != "" || resps[1].Rows[0][0] != "4" {
		t.Fatalf("batch resps = %+v", resps)
	}
	jc, err := repro.DialOptions(srv.Addr().String(), repro.ClientOptions{Encoding: repro.WireEncodingJSON})
	if err != nil {
		t.Fatal(err)
	}
	defer jc.Close()
	if n, err := jc.QueryInt(`SELECT COUNT(*) AS n FROM customer`); err != nil || n != 4 {
		t.Errorf("JSON client count = %d, %v, want 4", n, err)
	}
}
