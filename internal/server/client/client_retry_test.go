package client

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/storage"
)

// freeAddr reserves a TCP port and immediately releases it, returning the
// address: a place nothing is listening right now but a later listener
// can bind.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestDialRetryExhausted: with nothing listening, dial retries the
// configured number of times with backoff between attempts, then reports
// the attempt count.
func TestDialRetryExhausted(t *testing.T) {
	addr := freeAddr(t)
	start := time.Now()
	_, err := DialOptions(addr, Options{Retry: Retry{Attempts: 3, Backoff: 20 * time.Millisecond}})
	if err == nil {
		t.Fatal("dial to a dead port succeeded")
	}
	if !strings.Contains(err.Error(), "3 attempts") {
		t.Errorf("error %q does not report the attempt count", err)
	}
	// Two backoff waits of 20ms and 40ms, each jittered down to no less
	// than half: at least 30ms must have passed.
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Errorf("3 attempts finished in %v; backoff not applied", elapsed)
	}
}

// TestDialRetrySucceedsOnceServerUp: the server comes up between
// attempts; the dial's retry loop finds it.
func TestDialRetrySucceedsOnceServerUp(t *testing.T) {
	addr := freeAddr(t)
	go func() {
		time.Sleep(50 * time.Millisecond)
		srv := server.New(storage.NewCatalog(), server.Config{Addr: addr, MaxConns: 8})
		if err := srv.Listen(); err != nil {
			t.Errorf("late listen: %v", err)
			return
		}
		go srv.Serve()
	}()
	c, err := DialOptions(addr, Options{Retry: Retry{Attempts: 40, Backoff: 10 * time.Millisecond, MaxBackoff: 50 * time.Millisecond}})
	if err != nil {
		t.Fatalf("dial never reached the late server: %v", err)
	}
	defer c.Close()
	if _, err := c.Exec(`CREATE TABLE t (a int)`); err != nil {
		t.Fatal(err)
	}
}

// TestReconnectAfterServerRestart: a v2 client outlives its server. The
// call that catches the broken connection fails with an error typed
// ErrConnClosed (it is never replayed); subsequent calls transparently
// dial the restarted server.
func TestReconnectAfterServerRestart(t *testing.T) {
	srv1 := server.New(storage.NewCatalog(), server.Config{Addr: "127.0.0.1:0", MaxConns: 8})
	if err := srv1.Listen(); err != nil {
		t.Fatal(err)
	}
	go srv1.Serve()
	addr := srv1.Addr().String()

	c, err := DialOptions(addr, Options{Retry: Retry{Attempts: 20, Backoff: 10 * time.Millisecond, MaxBackoff: 100 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(`CREATE TABLE t (a int)`); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := srv1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()

	srv2 := server.New(storage.NewCatalog(), server.Config{Addr: addr, MaxConns: 8})
	if err := srv2.Listen(); err != nil {
		t.Fatal(err)
	}
	go srv2.Serve()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv2.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.Do(`CREATE TABLE t2 (a int)`)
		if err == nil && resp != nil {
			break // transport works again; server-side Err is irrelevant here
		}
		if !errors.Is(err, ErrConnClosed) {
			t.Fatalf("interim failure not typed ErrConnClosed: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("never reconnected: %v", err)
		}
	}
	// The reconnected client is fully functional.
	if _, err := c.Exec(`INSERT INTO t2 VALUES (7)`); err != nil {
		t.Fatal(err)
	}
	n, err := c.QueryInt(`SELECT COUNT(*) AS n FROM t2`)
	if err != nil || n != 1 {
		t.Fatalf("count after reconnect: %d, %v", n, err)
	}
}

// TestConnClosedTyped: a server that drops the connection mid-request
// surfaces an error matching errors.Is(err, ErrConnClosed).
func TestConnClosedTyped(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			buf := make([]byte, 64)
			conn.Read(buf)
			conn.Close()
		}
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Do(`SELECT 1`); !errors.Is(err, ErrConnClosed) {
		t.Fatalf("want ErrConnClosed, got %v", err)
	}
}
