package server_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/storage"
	"repro/internal/storage/wal"
)

// startDurableServer boots a server whose catalog is recovered from (and
// written through) a WAL in dir.
func startDurableServer(t *testing.T, dir string) (*server.Server, *wal.Log) {
	t.Helper()
	l, err := wal.Open(dir, wal.Options{Fsync: wal.FsyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	cfg := server.Config{
		Addr:     "127.0.0.1:0",
		MaxConns: 8,
		Now:      time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC),
		WAL:      l,
	}
	srv := server.New(l.Catalog(), cfg)
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	go srv.Serve()
	return srv, l
}

// TestServerDurableRestart: a server writing through a WAL is stopped and
// a second one recovered over the same directory; every query the first
// answered must come back byte-identical from the second.
func TestServerDurableRestart(t *testing.T) {
	dir := t.TempDir()
	srv, l := startDurableServer(t, dir)
	c := dial(t, srv)
	script := []string{
		`CREATE TABLE emp (id int REQUIRED, name string QUALITY (source string)) KEY (id)`,
		`INSERT INTO emp VALUES (1, 'ada' @ {source: 'hr'} SOURCE 'hr_db'), (2, 'grace')`,
		`CREATE INDEX ON emp (id) USING HASH`,
		`UPDATE emp SET name = 'alan' WHERE id = 2`,
	}
	for _, q := range script {
		if _, err := c.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	queries := []string{
		`SELECT id, name FROM emp ORDER BY id`,
		`SELECT COUNT(*) AS n FROM emp`,
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		want[i] = renderQuery(t, c, q)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, l2 := startDurableServer(t, dir)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv2.Shutdown(ctx)
		l2.Close()
	})
	if l2.RecoveryStats().Replayed == 0 && l2.RecoveryStats().CheckpointSeq == 0 {
		t.Fatal("second boot recovered nothing")
	}
	c2 := dial(t, srv2)
	for i, q := range queries {
		if got := renderQuery(t, c2, q); got != want[i] {
			t.Fatalf("%s diverged after restart:\ngot:\n%s\nwant:\n%s", q, got, want[i])
		}
	}
}

// TestRecoveryMetrics: /metrics reports how the boot's recovery split
// between loading the checkpoint and replaying the log, and whether the
// checkpoint was a JSON document: not for the binary file a checkpoint
// writes, but for a hand-edited JSON one put in its place.
func TestRecoveryMetrics(t *testing.T) {
	dir := t.TempDir()
	stop := func(srv *server.Server, l *wal.Log) {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	srv, l := startDurableServer(t, dir)
	c := dial(t, srv)
	if _, err := c.Exec(`CREATE TABLE emp (id int REQUIRED, name string QUALITY (source string)) KEY (id)`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`INSERT INTO emp VALUES (1, 'ada' @ {source: 'hr'} SOURCE 'hr_db')`); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`INSERT INTO emp VALUES (2, 'grace')`); err != nil {
		t.Fatal(err)
	}
	stop(srv, l)

	for _, edit := range []bool{false, true} {
		if edit {
			ckpts, err := filepath.Glob(filepath.Join(dir, "checkpoint-*"))
			if err != nil || len(ckpts) != 1 {
				t.Fatalf("checkpoints %v, %v", ckpts, err)
			}
			// Install the checkpoint's catalog as a hand-edited JSON
			// document, the format checkpoints had before they were
			// binary.
			data, err := os.ReadFile(ckpts[0])
			if err != nil {
				t.Fatal(err)
			}
			cat, err := storage.LoadCheckpoint(data)
			if err != nil {
				t.Fatal(err)
			}
			var doc bytes.Buffer
			if err := cat.Save(&doc); err != nil {
				t.Fatal(err)
			}
			data = bytes.Replace(doc.Bytes(), []byte(`"format"`), []byte(`"note": "edited by hand", "format"`), 1)
			if err := os.WriteFile(ckpts[0], data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		srv, l := startDurableServer(t, dir)
		body := scrapeMetrics(t, srv)
		fallback := "0"
		if edit {
			fallback = "1"
		}
		for _, want := range []string{
			"qqld_wal_recovery_replayed 1\n",
			"qqld_wal_recovery_snapshot_fallback " + fallback + "\n",
			"\nqqld_wal_recovery_snapshot_seconds ",
		} {
			if !strings.Contains(body, want) {
				t.Errorf("edited=%v: /metrics missing %q", edit, want)
			}
		}
		if rs := l.RecoveryStats(); rs.SnapshotLoad <= 0 || rs.SnapshotLoad > rs.Duration || rs.SnapshotFallback != edit {
			t.Errorf("edited=%v: recovery stats %+v", edit, rs)
		}
		if got := renderQuery(t, dial(t, srv), `SELECT COUNT(*) AS n FROM emp`); !strings.Contains(got, "2") {
			t.Errorf("edited=%v: recovered count %q", edit, got)
		}
		stop(srv, l)
	}
}

// TestServerBatchFrameOneCommit: a whole batch frame is made durable by a
// single commit — the group-commit contract the bench relies on.
func TestServerBatchFrameOneCommit(t *testing.T) {
	dir := t.TempDir()
	srv, l := startDurableServer(t, dir)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		l.Close()
	})
	c := dial(t, srv)
	if _, err := c.Exec(`CREATE TABLE t (a int)`); err != nil {
		t.Fatal(err)
	}
	base := l.Stats().Commits
	qs := make([]string, 50)
	for i := range qs {
		qs[i] = fmt.Sprintf(`INSERT INTO t VALUES (%d)`, i)
	}
	resps, err := c.ExecBatch(qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resps {
		if r.Err != "" {
			t.Fatalf("statement %d: %s", i, r.Err)
		}
	}
	st := l.Stats()
	if got := st.Commits - base; got != 1 {
		t.Fatalf("batch of %d issued %d commits, want 1", len(qs), got)
	}
	if st.DurableSeq != st.AppendedSeq {
		t.Fatalf("batch acknowledged with durable horizon %d behind appended %d",
			st.DurableSeq, st.AppendedSeq)
	}
	n, err := c.QueryInt(`SELECT COUNT(*) AS n FROM t`)
	if err != nil || n != int64(len(qs)) {
		t.Fatalf("count = %d, %v", n, err)
	}
}

// renderQuery flattens a query result to a stable string.
func renderQuery(t *testing.T, c *client.Client, q string) string {
	t.Helper()
	cols, rows, err := c.Query(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	var b strings.Builder
	b.WriteString(strings.Join(cols, "\t"))
	b.WriteString("\n")
	for _, r := range rows {
		b.WriteString(strings.Join(r, "\t"))
		b.WriteString("\n")
	}
	return b.String()
}
