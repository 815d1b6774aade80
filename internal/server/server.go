// Package server implements qqld, the QQL network daemon: a TCP server
// speaking the wire protocol of package wire — v2 length-prefixed frames
// with pipelined request IDs and a JSON or binary payload encoding. Each
// accepted connection gets its own qql.Session — sessions
// are single-threaded by design, so a connection's requests execute in
// arrival order — while all sessions share one storage.Catalog and one
// qql.PlanCache, so concurrent clients see the same data and hot statements
// are parsed once. This is the serving layer the paper's embedded model
// lacks: the quality-tagged store behind a wire instead of a library call.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/qql"
	"repro/internal/relation"
	"repro/internal/server/wire"
	"repro/internal/storage"
	"repro/internal/storage/wal"
	"repro/internal/value"
)

// Config tunes a Server.
type Config struct {
	// Addr is the listen address, e.g. ":7583" or "127.0.0.1:0".
	Addr string
	// MaxConns caps concurrently served connections; excess connections are
	// sent one ID-0 error frame and closed. Default 64.
	MaxConns int
	// CacheSize is the shared plan cache's entry cap; 0 (the zero
	// value) means the default, a negative value disables caching entirely
	// (every statement is parsed and planned from scratch; Stats.Cache
	// reports Disabled).
	CacheSize int
	// Now, when non-zero, fixes every session's clock for reproducible
	// results (NOW() and AGE()).
	Now time.Time
	// Parallelism is the per-session scan fan-out degree for large
	// unindexed table scans; 0 means one worker per schedulable core, 1
	// forces serial scans.
	Parallelism int
	// MaxInFlight bounds the v2 frames a connection may have read but not
	// yet answered (the pipeline depth the server buffers per connection);
	// beyond it the server stops reading the socket until responses drain.
	// Default 32.
	MaxInFlight int
	// MaxResultBytes caps one encoded response (per statement); a larger
	// result is replaced by a structured error response and the connection
	// stays usable. 0 means the protocol cap, wire.MaxFrameBytes, which
	// always applies as a ceiling.
	MaxResultBytes int
	// Encoding selects the v2 response payload encoding: "auto" (default)
	// mirrors each request's encoding, "json" or "binary" force one.
	// Clients decode whatever arrives (the frame header names it).
	Encoding string
	// SlowQuery, when positive, logs every request whose execution takes at
	// least this long: normalized statement text, duration, row count,
	// plan-cache tier and plan shape.
	SlowQuery time.Duration
	// SlowQueryLog receives slow-query lines; default os.Stderr.
	SlowQueryLog io.Writer
	// WAL, when non-nil, write-ahead-logs every mutation: each session
	// routes DML/DDL through it and commits before its response is
	// written, so an acknowledged write survives a crash. The server's
	// catalog must be the log's recovered catalog (wal.Log.Catalog).
	WAL *wal.Log
}

// Stats is a point-in-time snapshot of server counters.
type Stats struct {
	// Accepted counts connections ever admitted; Active is current.
	Accepted int64
	Active   int64
	// Rejected counts connections turned away by the MaxConns cap.
	Rejected int64
	// Queries and Errors count statements/scripts served and the subset
	// that failed (parse, plan or execution error). Each statement of a
	// batch counts once.
	Queries int64
	Errors  int64
	// Batches counts v2 batch frames served.
	Batches int64
	// TotalLatency is the summed wall time spent executing requests; mean
	// latency is TotalLatency / Queries.
	TotalLatency time.Duration
	// Cache reports shared plan-cache effectiveness.
	Cache qql.CacheStats
}

// Server serves QQL over TCP. Create with New, start with Listen + Serve
// (or ListenAndServe), stop with Shutdown.
type Server struct {
	cfg   Config
	cat   *storage.Catalog
	cache *qql.PlanCache

	ln     net.Listener
	mu     sync.Mutex // guards conns
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	closed atomic.Bool

	accepted atomic.Int64
	active   atomic.Int64
	rejected atomic.Int64
	queries  atomic.Int64
	errs     atomic.Int64
	batches  atomic.Int64
	latNanos atomic.Int64

	reg     *metrics.Registry
	quality *qualityCollector
	slowLog *log.Logger
}

// New creates a server over the catalog. The zero Config is usable: it
// listens on ":7583" with the default connection cap and cache size.
func New(cat *storage.Catalog, cfg Config) *Server {
	if cfg.Addr == "" {
		cfg.Addr = ":7583"
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 64
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 32
	}
	// CacheSize 0 is the config zero value, meaning "default"; negative
	// disables (qql.NewPlanCache treats <= 0 as disabled, so map the
	// default explicitly).
	size := cfg.CacheSize
	if size == 0 {
		size = qql.DefaultCacheSize
	}
	slowOut := cfg.SlowQueryLog
	if slowOut == nil {
		slowOut = os.Stderr
	}
	s := &Server{
		cfg:     cfg,
		cat:     cat,
		cache:   qql.NewPlanCache(size),
		conns:   make(map[net.Conn]struct{}),
		reg:     metrics.NewRegistry(),
		quality: newQualityCollector(cat),
		slowLog: log.New(slowOut, "", log.LstdFlags|log.Lmicroseconds),
	}
	s.registerMetrics()
	return s
}

// registerMetrics pre-creates the request-path series so a scrape before
// any traffic still exposes every per-kind and per-protocol series at zero
// — dashboards and the CI smoke grep never race the first statement.
func (s *Server) registerMetrics() {
	r := s.reg
	r.Help("qqld_requests_total", "Requests served per wire protocol version.")
	r.Help("qqld_statements_total", "Requests served per statement kind (a script counts as its last statement).")
	r.Help("qqld_statement_errors_total", "Failed requests per statement kind.")
	r.Help("qqld_statement_seconds", "Request execution latency per statement kind.")
	r.Help("qqld_query_seconds", "Request execution latency across all statement kinds.")
	r.Help("qqld_plan_cache_hits_total", "Plan-cache hits (tier=plan, the one cache).")
	r.Help("qqld_plan_cache_misses_total", "Plan-cache misses (tier=plan, the one cache).")
	r.Help("qqld_plan_cache_invalidations_total", "Bound plans evicted by schema-version validation.")
	r.Help("qqld_plan_cache_entries", "Plan-cache resident entries.")
	r.Help("qqld_connections_active", "Connections currently being served.")
	r.Help("qqld_connections_accepted_total", "Connections ever admitted.")
	r.Help("qqld_connections_rejected_total", "Connections turned away by the MaxConns cap.")
	r.Help("qqld_queries_total", "Requests served (each batch statement counts once).")
	r.Help("qqld_query_errors_total", "Requests that failed (parse, plan or execution error).")
	r.Help("qqld_batches_total", "v2 batch frames served.")
	r.Help("qqld_tuple_clones_total", "Process-wide defensive tuple clones in the storage layer.")
	if s.cfg.WAL != nil {
		r.Help("qqld_wal_appends_total", "Records appended to the write-ahead log.")
		r.Help("qqld_wal_commits_total", "Durable commits requested by sessions.")
		r.Help("qqld_wal_fsyncs_total", "fsync syscalls issued on log segments.")
		r.Help("qqld_wal_bytes_total", "Record bytes written to log segments.")
		r.Help("qqld_wal_group_max", "Largest record group made durable by one fsync.")
		r.Help("qqld_wal_checkpoints_total", "Snapshot checkpoints taken.")
		r.Help("qqld_wal_checkpoint_errors_total", "Failed checkpoint attempts; the log stays writable.")
		r.Help("qqld_wal_durable_seq", "Highest sequence on stable storage.")
		r.Help("qqld_wal_appended_seq", "Highest sequence appended to the log.")
		r.Help("qqld_wal_segments", "Live log segment files.")
		r.Help("qqld_wal_recovery_seconds", "Duration of crash recovery at boot.")
		r.Help("qqld_wal_recovery_snapshot_seconds", "Time crash recovery spent reading and decoding the checkpoint.")
		r.Help("qqld_wal_recovery_snapshot_fallback", "1 if the checkpoint recovery read was a JSON document (written before checkpoints were binary, or by hand); the next checkpoint rewrites it in the binary format.")
		r.Help("qqld_wal_recovery_replayed", "Log records replayed by crash recovery at boot.")
	}
	registerQualityHelp(r)
	r.Counter("qqld_requests_total", metrics.L("proto", "v2"))
	for _, kind := range qql.StmtKinds {
		r.Counter("qqld_statements_total", metrics.L("kind", kind))
		r.Counter("qqld_statement_errors_total", metrics.L("kind", kind))
		r.Histogram("qqld_statement_seconds", metrics.L("kind", kind))
	}
	r.Histogram("qqld_query_seconds")
}

// Metrics returns the server's metrics registry. Callers may add their own
// series; the registry is safe for concurrent use.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Catalog returns the shared storage catalog.
func (s *Server) Catalog() *storage.Catalog { return s.cat }

// Cache returns the shared prepared-plan cache.
func (s *Server) Cache() *qql.PlanCache { return s.cache }

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	return Stats{
		Accepted:     s.accepted.Load(),
		Active:       s.active.Load(),
		Rejected:     s.rejected.Load(),
		Queries:      s.queries.Load(),
		Errors:       s.errs.Load(),
		Batches:      s.batches.Load(),
		TotalLatency: time.Duration(s.latNanos.Load()),
		Cache:        s.cache.Stats(),
	}
}

// Listen binds the configured address. It must be called before Serve; it
// is separate so callers can learn the bound address (Addr) when listening
// on port 0.
func (s *Server) Listen() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	return nil
}

// Addr reports the bound listen address, nil before Listen.
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve accepts connections until Shutdown closes the listener. It always
// returns a non-nil error; after a clean Shutdown that error is
// net.ErrClosed (wrapped), which callers should treat as success.
func (s *Server) Serve() error {
	if s.ln == nil {
		return errors.New("server: Serve before Listen")
	}
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return fmt.Errorf("server: closed: %w", net.ErrClosed)
			}
			return err
		}
		if s.active.Load() >= int64(s.cfg.MaxConns) {
			s.rejected.Add(1)
			// One parting ID-0 error frame, then close: clients get a
			// reason instead of a silent RST.
			s.refuse(bufio.NewWriter(conn), "server: too many connections")
			conn.Close()
			continue
		}
		s.accepted.Add(1)
		s.active.Add(1)
		s.track(conn, true)
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// ListenAndServe is Listen followed by Serve.
func (s *Server) ListenAndServe() error {
	if err := s.Listen(); err != nil {
		return err
	}
	return s.Serve()
}

func (s *Server) track(conn net.Conn, add bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if add {
		s.conns[conn] = struct{}{}
	} else {
		delete(s.conns, conn)
	}
}

// Shutdown stops the server: it closes the listener, interrupts idle reads
// so in-flight statements finish and their responses are delivered, then
// waits for handlers to exit. If they do not drain before ctx expires,
// remaining connections are force-closed and ctx's error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	if s.ln != nil {
		s.ln.Close()
	}
	// Expire reads rather than closing conns: a handler blocked reading
	// exits at once, while a handler mid-statement finishes executing,
	// writes its response (writes are unaffected), and exits on its next
	// read. Queued pipelined frames are drained and answered before the
	// handler exits. This is the graceful drain.
	//
	// The syscalls happen on a snapshot, outside s.mu: every handler's
	// read loop takes the lock to register and deregister, so one stuck
	// TCP stack (SetReadDeadline and Close can both block in the kernel)
	// must not wedge the whole server. Connections that appear after the
	// snapshot were accepted before the listener closed and still drain
	// through the wg wait below.
	now := time.Now()
	for _, conn := range s.snapshotConns() {
		_ = conn.SetReadDeadline(now)
	}
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	for _, conn := range s.snapshotConns() {
		_ = conn.Close()
	}
	<-done
	return ctx.Err()
}

// snapshotConns copies the live connection set under s.mu so callers can
// run syscalls against the connections without holding the lock.
func (s *Server) snapshotConns() []net.Conn {
	s.mu.Lock()
	defer s.mu.Unlock()
	conns := make([]net.Conn, 0, len(s.conns))
	for conn := range s.conns {
		conns = append(conns, conn)
	}
	return conns
}

// newSession builds the per-connection session over the shared catalog and
// plan cache.
func (s *Server) newSession() *qql.Session {
	sess := qql.NewSession(s.cat)
	sess.SetPlanCache(s.cache)
	if s.cfg.WAL != nil {
		sess.SetDurability(s.cfg.WAL)
	}
	if !s.cfg.Now.IsZero() {
		sess.SetNow(s.cfg.Now)
	}
	if s.cfg.Parallelism > 0 {
		sess.SetParallelism(s.cfg.Parallelism)
	}
	sess.SetStatsExtra(s.statRows)
	return sess
}

// statRows contributes the server's counters to SHOW STATS, so any client
// can read them over the wire without the metrics endpoint.
func (s *Server) statRows() []qql.StatRow {
	st := s.Stats()
	return []qql.StatRow{
		{Name: "server_connections_active", Value: strconv.FormatInt(st.Active, 10)},
		{Name: "server_connections_accepted", Value: strconv.FormatInt(st.Accepted, 10)},
		{Name: "server_connections_rejected", Value: strconv.FormatInt(st.Rejected, 10)},
		{Name: "server_queries", Value: strconv.FormatInt(st.Queries, 10)},
		{Name: "server_errors", Value: strconv.FormatInt(st.Errors, 10)},
		{Name: "server_batches", Value: strconv.FormatInt(st.Batches, 10)},
		{Name: "server_total_latency", Value: st.TotalLatency.Round(time.Microsecond).String()},
	}
}

// frameItem is one unit handed from the connection's reader goroutine to
// its executor: a well-formed frame, or a frame header whose payload was
// discarded (oversized), or a terminal read error.
type frameItem struct {
	f   *wire.Frame
	err error
}

// handle serves one connection. A reader goroutine pulls frames off the
// socket into a bounded queue — the per-connection in-flight bound — while
// this goroutine executes them in arrival order and writes responses
// tagged with their request IDs. The output buffer is flushed only when the
// queue is momentarily empty, so a pipelined burst pays one syscall, not
// one per response.
func (s *Server) handle(conn net.Conn) {
	sess := s.newSession()
	br := bufio.NewReaderSize(conn, 64*1024)
	out := bufio.NewWriterSize(conn, 64*1024)
	frames := make(chan frameItem, s.cfg.MaxInFlight)
	go func() {
		defer close(frames)
		for {
			f, err := wire.ReadFrame(br, wire.MaxFrameBytes)
			if err != nil && !errors.Is(err, wire.ErrFrameTooLarge) {
				frames <- frameItem{err: err}
				return
			}
			frames <- frameItem{f: f, err: err}
		}
	}()
	// On exit, close the conn first so the reader unblocks, then drain the
	// queue so its send never leaks the goroutine.
	defer func() {
		conn.Close()
		for range frames {
		}
		s.track(conn, false)
		s.active.Add(-1)
		s.wg.Done()
	}()

	for it := range frames {
		if it.f == nil {
			// Terminal read error. Responses already written for earlier
			// frames may still sit in the buffer (the in-loop flush skips
			// while the queue is non-empty), so flush before exiting:
			// a client that pipelines N requests and half-closes, and
			// Shutdown's deadline expiry, both still get every answer. A
			// stream that is not v2 frames (bad magic: a line-JSON client,
			// or a desync) is refused with a diagnostic frame.
			if !s.closed.Load() && errors.Is(it.err, wire.ErrBadMagic) {
				s.refuse(out, "server: read: "+it.err.Error())
			}
			_ = out.Flush()
			return
		}
		enc := s.respEncoding(it.f.Encoding)
		var err error
		switch {
		case errors.Is(it.err, wire.ErrFrameTooLarge):
			err = s.writeResp(out, enc, it.f.ID,
				&wire.TypedResponse{Err: "server: " + it.err.Error()})
		case it.f.Version != wire.V2:
			err = s.writeResp(out, enc, it.f.ID, &wire.TypedResponse{
				Err: fmt.Sprintf("server: unsupported protocol version %d (want %d)", it.f.Version, wire.V2)})
		default:
			err = s.serveFrame(out, sess, it.f, enc)
		}
		if err != nil {
			return
		}
		if len(frames) == 0 {
			if out.Flush() != nil {
				return
			}
		}
	}
}

// serveFrame executes one well-formed request frame and writes its
// response.
func (s *Server) serveFrame(out *bufio.Writer, sess *qql.Session, f *wire.Frame, enc wire.Encoding) error {
	switch f.Type {
	case wire.FrameExec:
		q, err := decodeExec(f)
		if err != nil {
			return s.writeResp(out, enc, f.ID, &wire.TypedResponse{Err: "server: bad request: " + err.Error()})
		}
		return s.writeResp(out, enc, f.ID, s.execute(sess, q))
	case wire.FrameBatch:
		qs, err := decodeBatch(f)
		if err != nil {
			return s.writeResp(out, enc, f.ID, &wire.TypedResponse{Err: "server: bad batch request: " + err.Error()})
		}
		s.batches.Add(1)
		// One session pass over the whole batch: per-statement results,
		// later statements run even when an earlier one fails (each
		// statement is its own unit of work, as on separate requests).
		// Durable commit is deferred across the batch so one fsync —
		// issued before the response frame — covers every statement.
		sess.SetDeferCommit(true)
		resps := make([]*wire.TypedResponse, len(qs))
		for i, q := range qs {
			resps[i] = s.execute(sess, q)
		}
		sess.SetDeferCommit(false)
		if err := sess.CommitDurable(); err != nil {
			// Nothing in this batch is durable; no statement may be
			// acknowledged as applied.
			s.errs.Add(1)
			for i := range resps {
				resps[i] = &wire.TypedResponse{Err: "server: durable commit: " + err.Error()}
			}
		}
		return s.writeBatchResp(out, enc, f.ID, resps)
	default:
		return s.writeResp(out, enc, f.ID,
			&wire.TypedResponse{Err: fmt.Sprintf("server: unknown frame type 0x%02x", f.Type)})
	}
}

func decodeExec(f *wire.Frame) (string, error) {
	if f.Encoding == wire.EncBinary {
		return wire.DecodeRequest(f.Payload)
	}
	var req wire.Request
	if err := json.Unmarshal(f.Payload, &req); err != nil {
		return "", err
	}
	return req.Q, nil
}

func decodeBatch(f *wire.Frame) ([]string, error) {
	if f.Encoding == wire.EncBinary {
		return wire.DecodeBatchRequest(f.Payload)
	}
	var req wire.BatchRequest
	if err := json.Unmarshal(f.Payload, &req); err != nil {
		return nil, err
	}
	return req.Qs, nil
}

// respEncoding picks the response payload encoding for a request that used
// reqEnc: mirror it, unless the config forces one.
func (s *Server) respEncoding(reqEnc wire.Encoding) wire.Encoding {
	switch s.cfg.Encoding {
	case "json":
		return wire.EncJSON
	case "binary":
		return wire.EncBinary
	}
	if reqEnc == wire.EncBinary {
		return wire.EncBinary
	}
	return wire.EncJSON
}

// resultCap is the effective per-response size limit.
func (s *Server) resultCap() int {
	if s.cfg.MaxResultBytes > 0 && s.cfg.MaxResultBytes < wire.MaxFrameBytes {
		return s.cfg.MaxResultBytes
	}
	return wire.MaxFrameBytes
}

// oversized builds the structured error substituted for a response too
// large to ship, preserving the statement count n so the client still
// learns how much of the script ran.
func oversized(n, size, max int) *wire.TypedResponse {
	return &wire.TypedResponse{N: n, Err: fmt.Sprintf(
		"server: result too large: %d bytes > %d cap (narrow the query, or raise the server's MaxResultBytes)",
		size, max)}
}

// refuse writes the one ID-0 JSON error frame a connection gets before the
// server closes it unserved. Requests are numbered from 1, so a client
// reads ID 0 as the refusal and its err as the reason.
func (s *Server) refuse(out *bufio.Writer, reason string) {
	_ = s.writeResp(out, wire.EncJSON, 0, &wire.TypedResponse{Err: reason})
	_ = out.Flush()
}

// encodeResp renders one response payload in enc, substituting a
// structured error when it exceeds the size cap.
func (s *Server) encodeResp(enc wire.Encoding, t *wire.TypedResponse) ([]byte, error) {
	var payload []byte
	var err error
	if enc == wire.EncBinary {
		payload = wire.AppendTypedResponse(nil, t)
	} else if payload, err = json.Marshal(t.Response()); err != nil {
		return nil, err
	}
	if max := s.resultCap(); len(payload) > max {
		over := oversized(t.N, len(payload), max)
		if enc == wire.EncBinary {
			return wire.AppendTypedResponse(nil, over), nil
		}
		return json.Marshal(over.Response())
	}
	return payload, nil
}

func (s *Server) writeResp(out *bufio.Writer, enc wire.Encoding, id uint64, t *wire.TypedResponse) error {
	payload, err := s.encodeResp(enc, t)
	if err != nil {
		return err
	}
	return wire.WriteFrame(out, &wire.Frame{
		Version: wire.V2, Encoding: enc, Type: wire.FrameResult, ID: id, Payload: payload})
}

// encodeBatchPayload renders a whole batch response in enc.
func encodeBatchPayload(enc wire.Encoding, resps []*wire.TypedResponse) ([]byte, error) {
	if enc == wire.EncBinary {
		return wire.AppendTypedBatch(nil, resps), nil
	}
	br := wire.BatchResponse{Resps: make([]wire.Response, len(resps))}
	for i, t := range resps {
		br.Resps[i] = *t.Response()
	}
	return json.Marshal(&br)
}

// rawRespSize measures one response's encoded size in enc, without any cap
// substitution.
func rawRespSize(enc wire.Encoding, t *wire.TypedResponse) (int, error) {
	if enc == wire.EncBinary {
		return len(wire.AppendTypedBatch(nil, []*wire.TypedResponse{t})), nil
	}
	raw, err := json.Marshal(t.Response())
	if err != nil {
		return 0, err
	}
	return len(raw), nil
}

func (s *Server) writeBatchResp(out *bufio.Writer, enc wire.Encoding, id uint64, resps []*wire.TypedResponse) error {
	payload, err := encodeBatchPayload(enc, resps)
	if err != nil {
		return err
	}
	// An oversized batch payload is rebuilt with a per-statement budget:
	// each over-budget statement result — not the whole batch — becomes a
	// structured error, preserving Resps[i]-answers-Qs[i]. If the rebuild
	// is somehow still too big the batch is replaced wholesale.
	if limit := s.resultCap(); len(payload) > limit {
		budget := limit / max(len(resps), 1)
		capped := make([]*wire.TypedResponse, len(resps))
		for i, t := range resps {
			size, err := rawRespSize(enc, t)
			if err != nil {
				return err
			}
			if size > budget {
				capped[i] = oversized(t.N, size, budget)
			} else {
				capped[i] = t
			}
		}
		if payload, err = encodeBatchPayload(enc, capped); err != nil {
			return err
		}
		if len(payload) > limit {
			// Still too big (batch wrapper overhead, or many results each
			// just under budget): error out every element, keeping the
			// Resps[i]-answers-Qs[i] contract intact.
			over := oversized(0, len(payload), limit)
			errs := make([]*wire.TypedResponse, len(resps))
			for i, t := range resps {
				errs[i] = &wire.TypedResponse{N: t.N, Err: over.Err}
			}
			if payload, err = encodeBatchPayload(enc, errs); err != nil {
				return err
			}
			if len(payload) > wire.MaxFrameBytes {
				// Pathological (millions of statements): a lone error
				// element is the last resort that still fits a frame.
				if payload, err = encodeBatchPayload(enc, []*wire.TypedResponse{{Err: over.Err}}); err != nil {
					return err
				}
			}
		}
	}
	return wire.WriteFrame(out, &wire.Frame{
		Version: wire.V2, Encoding: enc, Type: wire.FrameBatchResult, ID: id, Payload: payload})
}

// execute runs one request script and shapes the response with typed
// cells; encoders render it per the connection's encoding.
func (s *Server) execute(sess *qql.Session, src string) *wire.TypedResponse {
	start := time.Now()
	results, err := sess.Exec(src)
	dur := time.Since(start)
	s.latNanos.Add(int64(dur))
	s.queries.Add(1)
	resp := &wire.TypedResponse{N: len(results)}
	for _, r := range results {
		switch {
		case r.Rel != nil:
			resp.Cols, resp.Rows = typedRelation(r.Rel)
			resp.Msg = ""
		case r.Plan != "":
			resp.Plan = r.Plan
		case r.Msg != "":
			resp.Msg = r.Msg
		}
	}
	if err != nil {
		s.errs.Add(1)
		resp.Err = err.Error()
	}
	s.record(sess, src, dur, err)
	return resp
}

// record feeds the metrics registry and the slow-query log for one served
// request. A multi-statement script is accounted under its last statement's
// kind — the one whose result shaped the response.
func (s *Server) record(sess *qql.Session, src string, dur time.Duration, err error) {
	info := sess.LastExecInfo()
	kind := info.Kind
	if kind == "" {
		kind = "other"
	}
	s.reg.Counter("qqld_requests_total", metrics.L("proto", "v2")).Inc()
	s.reg.Counter("qqld_statements_total", metrics.L("kind", kind)).Inc()
	if err != nil {
		s.reg.Counter("qqld_statement_errors_total", metrics.L("kind", kind)).Inc()
	}
	s.reg.Histogram("qqld_statement_seconds", metrics.L("kind", kind)).Observe(dur)
	s.reg.Histogram("qqld_query_seconds").Observe(dur)
	if s.cfg.SlowQuery > 0 && dur >= s.cfg.SlowQuery {
		text := src
		if norm, nerr := qql.Normalize(src); nerr == nil {
			text = norm
		}
		if len(text) > 512 {
			text = text[:512] + "..."
		}
		cache, shape := info.CacheTier, info.PlanShape
		if cache == "" {
			cache = "-"
		}
		if shape == "" {
			shape = "-"
		}
		s.slowLog.Printf("slow query (%v) rows=%d cache=%s plan=%q stmt=%s",
			dur.Round(time.Microsecond), info.Rows, cache, shape, text)
	}
}

// typedRelation extracts a relation's header and typed cells; rendering to
// QQL literals happens only on the JSON path.
func typedRelation(rel *relation.Relation) (cols []string, rows [][]value.Value) {
	cols = make([]string, len(rel.Schema.Attrs))
	for i, a := range rel.Schema.Attrs {
		cols[i] = a.Name
	}
	rows = make([][]value.Value, len(rel.Tuples))
	for i, t := range rel.Tuples {
		row := make([]value.Value, len(t.Cells))
		for j, c := range t.Cells {
			row[j] = c.V
		}
		rows[i] = row
	}
	return cols, rows
}
