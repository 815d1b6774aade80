package server_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/server/wire"
)

// TestLineJSONClientRefused: a client that writes a line of JSON instead
// of frames gets exactly one ID-0 JSON error frame naming the bad magic,
// then EOF — even when the line is shorter than a frame header — and the
// server goes on serving frame clients.
func TestLineJSONClientRefused(t *testing.T) {
	srv := startServer(t, server.Config{})
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// 13 bytes: shorter than a frame header, so the refusal must come from
	// the first byte alone.
	if _, err := conn.Write([]byte(`{"q":"SHOW"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	f, err := wire.ReadFrame(br, wire.MaxFrameBytes)
	if err != nil {
		t.Fatalf("no refusal frame: %v", err)
	}
	if f.ID != 0 || f.Type != wire.FrameResult || f.Encoding != wire.EncJSON {
		t.Fatalf("refusal frame = id %d type 0x%02x encoding %d, want an ID-0 JSON result", f.ID, f.Type, f.Encoding)
	}
	var resp wire.Response
	if err := json.Unmarshal(f.Payload, &resp); err != nil {
		t.Fatalf("refusal payload %q: %v", f.Payload, err)
	}
	if !strings.Contains(resp.Err, wire.ErrBadMagic.Error()) {
		t.Errorf("refusal err = %q, want it to name %q", resp.Err, wire.ErrBadMagic)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Errorf("after the refusal frame: %v, want EOF", err)
	}

	c := dial(t, srv)
	if _, err := c.Exec(`CREATE TABLE t (a int)`); err != nil {
		t.Fatalf("frame client after a refused line client: %v", err)
	}
}

// TestJSONAndBinaryClientsShareAServer drives both payload encodings
// against one server over the same catalog.
func TestJSONAndBinaryClientsShareAServer(t *testing.T) {
	srv := startServer(t, server.Config{})
	bin := dial(t, srv)
	js, err := client.DialOptions(srv.Addr().String(), client.Options{Encoding: "json"})
	if err != nil {
		t.Fatal(err)
	}
	defer js.Close()

	if _, err := bin.Exec(`CREATE TABLE t (a int); INSERT INTO t VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	if _, err := js.Exec(`INSERT INTO t VALUES (2)`); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*client.Client{"binary": bin, "json": js} {
		n, err := c.QueryInt(`SELECT COUNT(*) AS n FROM t`)
		if err != nil || n != 2 {
			t.Errorf("%s count = %d, %v", name, n, err)
		}
	}
}

// TestOversizedResultStructuredError: a result bigger than the server's
// response cap must come back as a structured wire error — not a broken
// write — and the connection must keep working. Regression test for the
// old behavior of failing mid-write.
func TestOversizedResultStructuredError(t *testing.T) {
	srv := startServer(t, server.Config{MaxResultBytes: 4096})
	js, err := client.DialOptions(srv.Addr().String(), client.Options{Encoding: "json"})
	if err != nil {
		t.Fatal(err)
	}
	defer js.Close()
	for name, c := range map[string]*client.Client{"v2": dial(t, srv), "v2-json": js} {
		t.Run(name, func(t *testing.T) {
			tbl := "big_" + strings.ReplaceAll(name, "-", "_")
			if _, err := c.Exec(fmt.Sprintf(`CREATE TABLE %s (id string REQUIRED, payload string) KEY (id)`, tbl)); err != nil {
				t.Fatal(err)
			}
			long := strings.Repeat("x", 2000)
			for i := 0; i < 4; i++ {
				if _, err := c.Exec(fmt.Sprintf(`INSERT INTO %s VALUES ('k%d', '%s')`, tbl, i, long)); err != nil {
					t.Fatal(err)
				}
			}
			// ~8KB result > 4096 cap: structured error, not a dead conn.
			_, _, err := c.Query(fmt.Sprintf(`SELECT * FROM %s`, tbl))
			if err == nil || !strings.Contains(err.Error(), "result too large") {
				t.Fatalf("oversized query err = %v, want 'result too large'", err)
			}
			// The connection is still usable and small results still flow.
			n, err := c.QueryInt(fmt.Sprintf(`SELECT COUNT(*) AS n FROM %s`, tbl))
			if err != nil || n != 4 {
				t.Fatalf("after oversized: count = %d, %v", n, err)
			}
		})
	}
}

// TestPipelinedHalfCloseDeliversAllResponses: a client that pipelines N
// frames and half-closes its write side must still receive all N
// responses — the terminal read error must not discard the server's
// buffered output. Regression test for the exit path skipping the flush.
func TestPipelinedHalfCloseDeliversAllResponses(t *testing.T) {
	srv := startServer(t, server.Config{MaxInFlight: 16})
	boot := dial(t, srv)
	if _, err := boot.Exec(`CREATE TABLE hc (id string REQUIRED, n int) KEY (id) STRICT`); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const n = 8
	var buf []byte
	for i := 0; i < n; i++ {
		buf = wire.AppendFrame(buf, &wire.Frame{
			Version: wire.V2, Encoding: wire.EncBinary, Type: wire.FrameExec, ID: uint64(i + 1),
			Payload: wire.AppendRequest(nil, fmt.Sprintf(`INSERT INTO hc VALUES ('k%d', %d)`, i, i)),
		})
	}
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	for i := 0; i < n; i++ {
		f, err := wire.ReadFrame(br, wire.MaxFrameBytes)
		if err != nil {
			t.Fatalf("response %d never arrived: %v", i, err)
		}
		if f.ID != uint64(i+1) {
			t.Errorf("response %d has ID %d", i, f.ID)
		}
		tr, err := wire.DecodeTypedResponse(f.Payload)
		if err != nil || tr.Err != "" {
			t.Errorf("response %d: %+v, %v", i, tr, err)
		}
	}
	cnt, err := boot.QueryInt(`SELECT COUNT(*) AS n FROM hc`)
	if err != nil || cnt != n {
		t.Errorf("count = %d, %v", cnt, err)
	}
}

// TestBatchOversizedStatementKeepsPerStatementResults: when one statement
// of a batch produces an over-cap result, only that statement's response
// becomes a structured error — Resps[i] still answers Qs[i] and the other
// results survive intact.
func TestBatchOversizedStatementKeepsPerStatementResults(t *testing.T) {
	srv := startServer(t, server.Config{MaxResultBytes: 4096})
	c := dial(t, srv)
	if _, err := c.Exec(`CREATE TABLE bo (id string REQUIRED, payload string) KEY (id)`); err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("x", 2000)
	for i := 0; i < 4; i++ {
		if _, err := c.Exec(fmt.Sprintf(`INSERT INTO bo VALUES ('k%d', '%s')`, i, long)); err != nil {
			t.Fatal(err)
		}
	}
	resps, err := c.ExecBatch([]string{
		`SELECT COUNT(*) AS n FROM bo`,
		`SELECT * FROM bo`, // ~8KB result: over the 4096 cap
		`SELECT id FROM bo WHERE id = 'k0'`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 3 {
		t.Fatalf("got %d responses for 3 statements: %+v", len(resps), resps)
	}
	if resps[0].Err != "" || resps[0].Rows[0][0] != "4" {
		t.Errorf("stmt 0 = %+v", resps[0])
	}
	if !strings.Contains(resps[1].Err, "result too large") {
		t.Errorf("stmt 1 err = %q, want 'result too large'", resps[1].Err)
	}
	if resps[2].Err != "" || len(resps[2].Rows) != 1 || resps[2].Rows[0][0] != "'k0'" {
		t.Errorf("stmt 2 = %+v", resps[2])
	}
}

func TestBatchExecution(t *testing.T) {
	srv := startServer(t, server.Config{})
	c := dial(t, srv)
	if _, err := c.Exec(`CREATE TABLE b (id string REQUIRED, n int) KEY (id) STRICT`); err != nil {
		t.Fatal(err)
	}
	qs := make([]string, 0, 21)
	for i := 0; i < 10; i++ {
		qs = append(qs, fmt.Sprintf(`INSERT INTO b VALUES ('k%02d', %d)`, i, i))
	}
	qs = append(qs, `INSERT INTO b VALUES ('k00', 99)`) // duplicate key: fails
	for i := 10; i < 20; i++ {
		qs = append(qs, fmt.Sprintf(`INSERT INTO b VALUES ('k%02d', %d)`, i, i))
	}
	resps, err := c.ExecBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != len(qs) {
		t.Fatalf("got %d responses for %d statements", len(resps), len(qs))
	}
	for i, r := range resps {
		wantErr := i == 10
		if (r.Err != "") != wantErr {
			t.Errorf("stmt %d: err = %q, want error %v", i, r.Err, wantErr)
		}
	}
	// The failing middle statement did not stop the rest.
	n, err := c.QueryInt(`SELECT COUNT(*) AS n FROM b`)
	if err != nil || n != 20 {
		t.Errorf("count = %d, %v, want 20", n, err)
	}
	if srv.Stats().Batches != 1 {
		t.Errorf("batches = %d, want 1", srv.Stats().Batches)
	}
}

// TestServerPipelinedStress is the acceptance-criteria stress test: 32
// concurrent connections, each keeping a deep pipeline of mixed DoAsync
// inserts, batched inserts and reads in flight, under -race.
func TestServerPipelinedStress(t *testing.T) {
	srv := startServer(t, server.Config{MaxConns: 64, MaxInFlight: 8})
	boot := dial(t, srv)
	if _, err := boot.Exec(`CREATE TABLE stress2 (
		id string REQUIRED,
		n int,
		note string QUALITY (source string)
	) KEY (id) STRICT`); err != nil {
		t.Fatal(err)
	}

	const (
		workers   = 32
		perWorker = 48 // half pipelined singles, half batched
		depth     = 8
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.DialOptions(srv.Addr().String(), client.Options{MaxInFlight: depth})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			// First half: pipelined singles with a window of `depth`.
			pend := make([]*client.Pending, 0, depth)
			drainOne := func() error {
				p := pend[0]
				pend = pend[1:]
				resp, err := p.Wait()
				if err != nil {
					return err
				}
				if resp.Err != "" {
					return fmt.Errorf("statement error: %s", resp.Err)
				}
				return nil
			}
			for i := 0; i < perWorker/2; i++ {
				if len(pend) == depth {
					if err := drainOne(); err != nil {
						errs <- fmt.Errorf("worker %d: %w", w, err)
						return
					}
				}
				p, err := c.DoAsync(fmt.Sprintf(
					`INSERT INTO stress2 VALUES ('w%02d-%03d', %d, 'x' @ {source: 'w%02d'})`, w, i, i, w))
				if err != nil {
					errs <- fmt.Errorf("worker %d send: %w", w, err)
					return
				}
				pend = append(pend, p)
			}
			for len(pend) > 0 {
				if err := drainOne(); err != nil {
					errs <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
			}
			// Second half: one batch frame.
			qs := make([]string, 0, perWorker/2)
			for i := perWorker / 2; i < perWorker; i++ {
				qs = append(qs, fmt.Sprintf(
					`INSERT INTO stress2 VALUES ('w%02d-%03d', %d, 'x' @ {source: 'w%02d'})`, w, i, i, w))
			}
			resps, err := c.ExecBatch(qs)
			if err != nil {
				errs <- fmt.Errorf("worker %d batch: %w", w, err)
				return
			}
			for i, r := range resps {
				if r.Err != "" {
					errs <- fmt.Errorf("worker %d batch stmt %d: %s", w, i, r.Err)
					return
				}
			}
			// Interleaved hot read on the same pipelined conn.
			if _, err := c.QueryInt(`SELECT COUNT(*) AS n FROM stress2 WHERE n >= 0`); err != nil {
				errs <- fmt.Errorf("worker %d read: %w", w, err)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	total, err := boot.QueryInt(`SELECT COUNT(*) AS n FROM stress2`)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(workers * perWorker); total != want {
		t.Errorf("row count = %d, want %d", total, want)
	}
	st := srv.Stats()
	if st.Errors != 0 {
		t.Errorf("server errors = %d, want 0", st.Errors)
	}
	if st.Batches != int64(workers) {
		t.Errorf("batches = %d, want %d", st.Batches, workers)
	}
	if st.Cache.Hits+st.Cache.PlanHits == 0 {
		t.Errorf("plan cache hits = 0 under stress; stats %+v", st.Cache)
	}
}

// TestForcedResponseEncoding: with Encoding "json" the server answers
// binary requests with JSON payloads, and the client decodes them by the
// frame header.
func TestForcedResponseEncoding(t *testing.T) {
	srv := startServer(t, server.Config{Encoding: "json"})
	c := dial(t, srv) // binary-encoding client
	if _, err := c.Exec(`CREATE TABLE t (a int); INSERT INTO t VALUES (7)`); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Do(`SELECT a FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Err != "" || len(resp.Rows) != 1 || resp.Rows[0][0] != "7" {
		t.Fatalf("resp = %+v", resp)
	}
	if resp.Values != nil {
		t.Errorf("JSON-forced response should carry no typed values, got %+v", resp.Values)
	}
}
