// Command qqld serves QQL over TCP: the network daemon in front of the
// quality-tagged store. Clients speak the wire protocol of
// internal/server/wire — v2 length-prefixed frames with pipelined request
// IDs and JSON or binary payloads — via internal/server/client (or
// cmd/qqlload from the shell). A connection that does not open with a
// frame gets one error frame and is closed.
//
//	qqld                                # listen on :7583
//	qqld -addr 127.0.0.1:9000           # custom address
//	qqld -seed demo.qql                 # run a script before serving
//	qqld -now 1992-01-01T00:00:00Z      # fix every session's clock
//	qqld -max-conns 256 -cache 1024     # scale knobs
//	qqld -inflight 64                   # per-conn pipeline depth bound
//	qqld -encoding json                 # force response payload encoding
//	qqld -metrics 127.0.0.1:7584        # /metrics, /stats, /debug/pprof/
//	qqld -slow-query 50ms               # log statements at or over 50ms
//	qqld -data /var/lib/qqld            # durable: WAL + checkpoints in dir
//	qqld -data d -fsync group           # group commit (default; also always, off)
//
// SIGINT/SIGTERM trigger a graceful shutdown: in-flight statements finish,
// connections close, and the final serving stats are printed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/qql"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/storage/wal"
)

func main() {
	addr := flag.String("addr", ":7583", "TCP listen address")
	maxConns := flag.Int("max-conns", 64, "maximum concurrent connections")
	cacheSize := flag.Int("cache", qql.DefaultCacheSize, "shared plan cache entries (0 disables caching)")
	nowFlag := flag.String("now", "", "fix the session clock (RFC3339); default wall clock")
	seedPath := flag.String("seed", "", "QQL script to execute before serving")
	parallel := flag.Int("parallel", 0, "scan fan-out degree for large unindexed scans (0 = GOMAXPROCS, 1 = serial)")
	inflight := flag.Int("inflight", 0, "per-connection pipeline depth: wire v2 frames read but not yet answered (0 = default 32)")
	encoding := flag.String("encoding", "auto", "wire v2 response payload encoding: auto (mirror request), json, binary")
	maxResult := flag.Int("max-result-bytes", 0, "per-response size cap; larger results become structured errors (0 = protocol cap)")
	metricsAddr := flag.String("metrics", "", "observability HTTP listen address serving /metrics, /stats and /debug/pprof/ (empty disables)")
	slowQuery := flag.Duration("slow-query", 0, "log statements executing at least this long, e.g. 50ms (0 disables)")
	dataDir := flag.String("data", "", "durability directory: write-ahead log + snapshot checkpoints (empty = in-memory only)")
	fsyncMode := flag.String("fsync", "group", "WAL commit mode with -data: group (coalesce concurrent commits into one fsync), always (fsync per commit), off (no fsync; crash may lose acknowledged writes)")
	flag.Parse()

	switch *encoding {
	case "auto", "json", "binary":
	default:
		fmt.Fprintf(os.Stderr, "qqld: bad -encoding %q (want auto, json or binary)\n", *encoding)
		os.Exit(2)
	}
	cfg := server.Config{
		Addr: *addr, MaxConns: *maxConns, CacheSize: *cacheSize, Parallelism: *parallel,
		MaxInFlight: *inflight, Encoding: *encoding, MaxResultBytes: *maxResult,
		SlowQuery: *slowQuery,
	}
	if *cacheSize <= 0 {
		// -cache 0 genuinely disables caching; Config reserves 0 for "the
		// default" (its zero value), so disabled travels as a negative.
		cfg.CacheSize = -1
	}
	if *nowFlag != "" {
		t, err := time.Parse(time.RFC3339, *nowFlag)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qqld: bad -now: %v\n", err)
			os.Exit(2)
		}
		cfg.Now = t
	}

	cat := storage.NewCatalog()
	var wlog *wal.Log
	if *dataDir != "" {
		mode, err := wal.ParseFsyncMode(*fsyncMode)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qqld: bad -fsync: %v\n", err)
			os.Exit(2)
		}
		wlog, err = wal.Open(*dataDir, wal.Options{Fsync: mode})
		if err != nil {
			fmt.Fprintln(os.Stderr, "qqld:", err)
			os.Exit(1)
		}
		cat = wlog.Catalog()
		cfg.WAL = wlog
		rs := wlog.RecoveryStats()
		fmt.Printf("qqld: recovered %s in %v: checkpoint seq %d, %d record(s) replayed, %d table(s), %d torn byte(s) truncated; snapshot load %v (fallback %t), replay %v\n",
			*dataDir, rs.Duration.Round(time.Microsecond), rs.CheckpointSeq, rs.Replayed, rs.Tables, rs.TornBytes,
			rs.SnapshotLoad.Round(time.Microsecond), rs.SnapshotFallback, rs.Replay.Round(time.Microsecond))
	} else if *fsyncMode != "group" {
		fmt.Fprintln(os.Stderr, "qqld: -fsync requires -data")
		os.Exit(2)
	}
	if *seedPath != "" {
		raw, err := os.ReadFile(*seedPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qqld:", err)
			os.Exit(1)
		}
		sess := qql.NewSession(cat)
		if wlog != nil {
			sess.SetDurability(wlog)
		}
		if !cfg.Now.IsZero() {
			sess.SetNow(cfg.Now)
		}
		if _, err := sess.Exec(string(raw)); err != nil {
			fmt.Fprintf(os.Stderr, "qqld: seed %s: %v\n", *seedPath, err)
			os.Exit(1)
		}
		fmt.Printf("qqld: seeded from %s (%d table(s))\n", *seedPath, len(cat.Names()))
	}

	srv := server.New(cat, cfg)
	if err := srv.Listen(); err != nil {
		fmt.Fprintln(os.Stderr, "qqld:", err)
		os.Exit(1)
	}
	cacheDesc := fmt.Sprintf("cache %d entries", *cacheSize)
	if *cacheSize <= 0 {
		cacheDesc = "cache disabled"
	}
	fmt.Printf("qqld: listening on %s (max %d conns, %s)\n", srv.Addr(), *maxConns, cacheDesc)

	var msrv *http.Server
	if *metricsAddr != "" {
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qqld: metrics:", err)
			os.Exit(1)
		}
		msrv = &http.Server{Handler: srv.MetricsHandler()}
		go func() {
			if err := msrv.Serve(mln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "qqld: metrics:", err)
			}
		}()
		fmt.Printf("qqld: metrics on http://%s/metrics (also /stats, /debug/pprof/)\n", mln.Addr())
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()

	var err error
	select {
	case sig := <-sigc:
		fmt.Printf("qqld: %v, shutting down\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if serr := srv.Shutdown(ctx); serr != nil {
			fmt.Fprintln(os.Stderr, "qqld: shutdown:", serr)
		}
		cancel()
		err = <-serveErr
	case err = <-serveErr:
	}
	if msrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_ = msrv.Shutdown(ctx)
		cancel()
	}
	if wlog != nil {
		if werr := wlog.Close(); werr != nil {
			fmt.Fprintln(os.Stderr, "qqld: wal close:", werr)
		}
	}
	st := srv.Stats()
	if st.Cache.Disabled {
		fmt.Printf("qqld: served %d queries (%d errors) over %d connections; plan cache disabled\n",
			st.Queries, st.Errors, st.Accepted)
	} else {
		fmt.Printf("qqld: served %d queries (%d errors) over %d connections; plan cache %d/%d hits (%.0f%%, %d invalidations)\n",
			st.Queries, st.Errors, st.Accepted,
			st.Cache.PlanHits, st.Cache.PlanHits+st.Cache.PlanMisses, 100*st.Cache.PlanHitRate(),
			st.Cache.PlanInvalidations)
	}
	// Serve wraps net.ErrClosed after a clean Shutdown; that's success.
	if err != nil && !errors.Is(err, net.ErrClosed) {
		fmt.Fprintln(os.Stderr, "qqld:", err)
		os.Exit(1)
	}
}
