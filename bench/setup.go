package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"time"

	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/storage"
	"repro/internal/storage/wal"
	"repro/internal/value"
)

// env is one system under test: a durable in-process qqld (write-ahead log
// in its own temp dir, fsync group, every other setting the server's zero
// value, clock pinned to the epoch) and the client connections that load it.
type env struct {
	dir     string
	opts    wal.Options
	log     *wal.Log
	srv     *server.Server
	served  chan error
	clients []*client.Client
}

// startEnv loads rows (and emp_dim when withDim) through the log exactly as
// recovery would replay them, checkpoints, starts the server on a loopback
// port and dials nClients connections. Everything here is set-up time.
func startEnv(tmpRoot string, rows []custRow, withDim bool, opts wal.Options, nClients int) (*env, error) {
	dir, err := os.MkdirTemp(tmpRoot, "wal-")
	if err != nil {
		return nil, err
	}
	e := &env{dir: dir, opts: opts}
	if err := e.load(rows, withDim); err != nil {
		e.stop()
		return nil, err
	}
	e.srv = server.New(e.log.Catalog(), server.Config{Addr: "127.0.0.1:0", Now: epoch, WAL: e.log})
	if err := e.srv.Listen(); err != nil {
		e.stop()
		return nil, err
	}
	e.served = make(chan error, 1)
	go func() { e.served <- e.srv.Serve() }()
	for i := 0; i < nClients; i++ {
		cl, err := client.Dial(e.srv.Addr().String())
		if err != nil {
			e.stop()
			return nil, err
		}
		e.clients = append(e.clients, cl)
	}
	return e, nil
}

func (e *env) load(rows []custRow, withDim bool) error {
	l, err := wal.Open(e.dir, e.opts)
	if err != nil {
		return err
	}
	e.log = l
	if err := l.CreateTable(customerSchema(), false); err != nil {
		return err
	}
	for i := range rows {
		if err := l.Insert("customer", rows[i].tuple()); err != nil {
			return err
		}
	}
	if err := l.CreateIndex("customer", storage.IndexTarget{Attr: "co_name"}, storage.IndexHash); err != nil {
		return err
	}
	if withDim {
		if err := l.CreateTable(dimSchema(), false); err != nil {
			return err
		}
		for e := int64(1); e <= dimRows; e++ {
			if err := l.Insert("emp_dim", relation.NewTuple(value.Int(e), value.Str(band(e)))); err != nil {
				return err
			}
		}
	}
	if len(rows) > 0 {
		// A loaded server starts from a snapshot, not from a 100k-record
		// tail. Checkpoint before the first Commit: a Commit wakes the
		// flusher, whose own automatic checkpoint would otherwise race this
		// one and finish at some point after set-up.
		if err := l.Checkpoint(); err != nil {
			return err
		}
	}
	return l.Commit()
}

// stopServing closes the connections and shuts the server down; the log
// stays open so the caller can read its counters or close it.
func (e *env) stopServing() error {
	for _, cl := range e.clients {
		cl.Close()
	}
	e.clients = nil
	if e.srv == nil || e.served == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	if serr := <-e.served; err == nil && !errors.Is(serr, net.ErrClosed) {
		err = serr
	}
	e.srv, e.served = nil, nil
	return err
}

// stop tears the whole environment down and removes its directory.
func (e *env) stop() error {
	err := e.stopServing()
	if e.log != nil {
		if cerr := e.log.Close(); err == nil {
			err = cerr
		}
		e.log = nil
	}
	if rerr := os.RemoveAll(e.dir); err == nil {
		err = rerr
	}
	return err
}

// recovered is what a restart of the finished directory found.
type recovered struct {
	seconds   float64 // median wal.Open wall time
	diskBytes int64   // segments + checkpoint after a clean close
	rows      int     // customer rows in the reopened catalog
	sum       uint64  // their checksum over values and tags
	allRows   int     // rows in every table
	replayed  int
}

const recoveryReps = 3

// restart closes the log and reopens the directory recoveryReps times. A
// cleanly closed log reopens without rewriting anything, so every repeat
// recovers the same bytes; a collection before each one makes it start from
// the same heap, without the previous catalog as garbage.
func (e *env) restart() (recovered, error) {
	var rec recovered
	if err := e.stopServing(); err != nil {
		return rec, err
	}
	if err := e.log.Close(); err != nil {
		return rec, err
	}
	e.log = nil
	ents, err := os.ReadDir(e.dir)
	if err != nil {
		return rec, err
	}
	for _, ent := range ents {
		info, err := ent.Info()
		if err != nil {
			return rec, err
		}
		rec.diskBytes += info.Size()
	}
	var secs []float64
	for i := 0; i < recoveryReps; i++ {
		runtime.GC()
		t0 := time.Now()
		l, err := wal.Open(e.dir, e.opts)
		if err != nil {
			return rec, fmt.Errorf("reopen: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		if i == 0 {
			cat := l.Catalog()
			rec.replayed = l.RecoveryStats().Replayed
			rec.rows, rec.sum, err = tableSum(cat)
			for _, name := range cat.Names() {
				if tbl, ok := cat.Get(name); ok {
					rec.allRows += tbl.Len()
				}
			}
		}
		if cerr := l.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return rec, err
		}
	}
	rec.seconds = median(secs)
	return rec, nil
}

// tmpRoot makes this process's directory for log directories: inside the
// output directory, so the benchmark writes nowhere outside its checkout.
func tmpRoot(outDir string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, "tmp-")
}
