package client

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/value"
)

func TestDoAsyncPipeline(t *testing.T) {
	addr := startServer(t)
	c, err := DialOptions(addr, Options{MaxInFlight: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(`CREATE TABLE p (id string REQUIRED, n int) KEY (id) STRICT`); err != nil {
		t.Fatal(err)
	}
	// Queue a burst without waiting, then collect: responses must match
	// their requests by ID, in order.
	const n = 50
	pend := make([]*Pending, n)
	for i := range pend {
		p, err := c.DoAsync(fmt.Sprintf(`INSERT INTO p VALUES ('k%03d', %d)`, i, i))
		if err != nil {
			t.Fatal(err)
		}
		pend[i] = p
	}
	for i, p := range pend {
		resp, err := p.Wait()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if resp.Err != "" {
			t.Fatalf("request %d: %s", i, resp.Err)
		}
	}
	count, err := c.QueryInt(`SELECT COUNT(*) AS n FROM p`)
	if err != nil || count != n {
		t.Errorf("count = %d, %v", count, err)
	}
}

// TestDoContextTimeoutDoesNotStrandConnection: a caller that gives up on a
// slow statement must get ctx's error promptly, and the same connection
// must then serve fresh requests with correctly-matched responses (the
// late response is dropped by ID, not misdelivered).
func TestDoContextTimeoutDoesNotStrandConnection(t *testing.T) {
	addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(`CREATE TABLE slow (a int, g int)`); err != nil {
		t.Fatal(err)
	}
	// 4000 rows over 5 join-key groups: the skewed self-join COUNT below
	// produces 4000*800 = 3.2M pairs, comfortably slower than the 5ms
	// deadline (800k pairs took ≈ 4 ms on a 2-core host, inside it).
	ins := make([]string, 0, 80)
	for i := 0; i < 80; i++ {
		vals := make([]string, 50)
		for j := range vals {
			n := i*50 + j
			vals[j] = fmt.Sprintf("(%d, %d)", n, n%5)
		}
		ins = append(ins, `INSERT INTO slow VALUES `+strings.Join(vals, ", "))
	}
	if resps, err := c.ExecBatch(ins); err != nil {
		t.Fatal(err)
	} else {
		for _, r := range resps {
			if r.Err != "" {
				t.Fatal(r.Err)
			}
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err = c.DoContext(ctx, `SELECT COUNT(*) AS n FROM slow a JOIN slow b ON a.g = b.g`)
	if err == nil {
		t.Skip("join finished inside the deadline; timeout path not exercised on this host")
	}
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	// The connection still works, and the next response is the right one —
	// not the abandoned cross-join's.
	n, err := c.QueryInt(`SELECT COUNT(*) AS n FROM slow`)
	if err != nil || n != 4000 {
		t.Fatalf("after timeout: count = %d, %v (want 4000)", n, err)
	}
	// An already-expired context fails fast without touching the wire.
	done, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := c.DoContext(done, `SELECT COUNT(*) AS n FROM slow`); err != context.Canceled {
		t.Errorf("pre-cancelled ctx err = %v", err)
	}
}

func TestQueryValuesTypedCells(t *testing.T) {
	addr := startServer(t)
	c, err := Dial(addr) // default: binary encoding
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(`CREATE TABLE ty (s string, n int, f float, w time)`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`INSERT INTO ty VALUES ('it''s', 42, 1.5, t'1991-10-03T00:00:00Z')`); err != nil {
		t.Fatal(err)
	}
	cols, rows, err := c.QueryValues(`SELECT s, n, f, w FROM ty`)
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 4 || len(rows) != 1 {
		t.Fatalf("shape = %v x %d", cols, len(rows))
	}
	want := []value.Value{
		value.Str("it's"),
		value.Int(42),
		value.Float(1.5),
		value.Time(time.Date(1991, 10, 3, 0, 0, 0, 0, time.UTC)),
	}
	for i, w := range want {
		if rows[0][i].Kind() != w.Kind() || !value.Equal(rows[0][i], w) {
			t.Errorf("cell %d = %v (%v), want %v (%v)", i, rows[0][i], rows[0][i].Kind(), w, w.Kind())
		}
	}
	// The string API renders the same typed cells as QQL literals.
	_, srows, err := c.Query(`SELECT s FROM ty`)
	if err != nil || srows[0][0] != "'it''s'" {
		t.Errorf("literal rendering = %v, %v", srows, err)
	}

	// Under the JSON encoding QueryValues refuses rather than guessing.
	cj, err := DialOptions(addr, Options{Encoding: "json"})
	if err != nil {
		t.Fatal(err)
	}
	defer cj.Close()
	if _, _, err := cj.QueryValues(`SELECT s FROM ty`); err == nil {
		t.Error("QueryValues over JSON encoding should fail")
	}
}

func TestExecBatchPerStatementResults(t *testing.T) {
	addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	resps, err := c.ExecBatch([]string{
		`CREATE TABLE eb (id string REQUIRED, n int) KEY (id) STRICT`,
		`INSERT INTO eb VALUES ('a', 1)`,
		`INSERT INTO eb VALUES ('a', 2)`, // dup key
		`SELECT COUNT(*) AS n FROM eb`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 4 {
		t.Fatalf("got %d responses", len(resps))
	}
	if resps[0].Err != "" || resps[1].Err != "" {
		t.Errorf("setup statements failed: %+v %+v", resps[0], resps[1])
	}
	if resps[2].Err == "" {
		t.Error("duplicate key did not error")
	}
	if resps[3].Err != "" || resps[3].Rows[0][0] != "1" {
		t.Errorf("final count = %+v", resps[3])
	}
	// Empty batch is a no-op.
	if resps, err := c.ExecBatch(nil); err != nil || resps != nil {
		t.Errorf("empty batch = %v, %v", resps, err)
	}
}
