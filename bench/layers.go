package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/qql"
	"repro/internal/relation"
	"repro/internal/server"
	"repro/internal/server/wire"
	"repro/internal/storage"
	"repro/internal/storage/wal"
	"repro/internal/value"
)

// traceEvery is how often a client replays the op it has just sent, layer by
// layer. The period is coprime to the five statements of a quality report
// and to the twenty-op cycle of mixed_rw's reader, so that the sample cycles
// through every kind of op.
var traceEvery = map[string]int{"oltp_read": 64, "quality_scan": 11, "durable_ingest": 16, "mixed_rw": 63}

// tracing is the state of a traced run: one span log and one set of
// embedded sessions per client goroutine, so recording takes no lock.
type tracing struct {
	every    int
	per      []*clientTrace
	overhead float64 // 1 - traced/untraced ops_s
	srv      server.Stats
	wal      wal.Stats
	groupMax uint64
}

// clientTrace belongs to one client goroutine.
type clientTrace struct {
	log spanLog
	ops int
	// live replays SELECTs against the catalog being served, with a plan
	// cache of the server's size; scratch replays DML against a private
	// empty customer table and is nil where a workload's DML cannot be
	// replayed without the served rows.
	live, scratch *qql.Session
	acc           layerAcc
}

// layerAcc sums what the replays measured.
type layerAcc struct {
	replays, stmts, selects    int
	wireNs, wireBytes, parseNs int64
	frontNs, algebraNs         int64
	examined, returned, clones int64
}

func (a *layerAcc) merge(b layerAcc) {
	a.replays += b.replays
	a.stmts += b.stmts
	a.selects += b.selects
	a.wireNs += b.wireNs
	a.wireBytes += b.wireBytes
	a.parseNs += b.parseNs
	a.frontNs += b.frontNs
	a.algebraNs += b.algebraNs
	a.examined += b.examined
	a.returned += b.returned
	a.clones += b.clones
}

func newTracing(workload string) *tracing {
	t := &tracing{every: traceEvery[workload]}
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		t.per = append(t.per, &clientTrace{log: spanLog{t0: t0}})
	}
	return t
}

func embedded(cat *storage.Catalog) *qql.Session {
	s := qql.NewSession(cat)
	s.SetNow(epoch)
	s.SetPlanCache(qql.NewPlanCache(qql.DefaultCacheSize))
	return s
}

// attach points the replay sessions at the environment now being served.
func (t *tracing) attach(e *env, scratchDML bool) error {
	for _, ct := range t.per {
		ct.live = embedded(e.log.Catalog())
		ct.scratch = nil
		if scratchDML {
			cat := storage.NewCatalog()
			tbl, err := cat.Create(customerSchema(), false)
			if err != nil {
				return err
			}
			if err := tbl.CreateIndex(storage.IndexTarget{Attr: "co_name"}, storage.IndexHash); err != nil {
				return err
			}
			ct.scratch = embedded(cat)
		}
	}
	return nil
}

// counters is a snapshot of the served system's own counters.
type counters struct {
	srv server.Stats
	wal wal.Stats
}

func snapshot(e *env) counters { return counters{srv: e.srv.Stats(), wal: e.log.Stats()} }

// addWindow accumulates the counter deltas of one traced window.
func (t *tracing) addWindow(a, b counters) {
	t.srv.Queries += b.srv.Queries - a.srv.Queries
	t.srv.Errors += b.srv.Errors - a.srv.Errors
	t.srv.Batches += b.srv.Batches - a.srv.Batches
	t.srv.TotalLatency += b.srv.TotalLatency - a.srv.TotalLatency
	t.srv.Cache.Hits += b.srv.Cache.Hits - a.srv.Cache.Hits
	t.srv.Cache.Misses += b.srv.Cache.Misses - a.srv.Cache.Misses
	t.srv.Cache.PlanHits += b.srv.Cache.PlanHits - a.srv.Cache.PlanHits
	t.srv.Cache.PlanMisses += b.srv.Cache.PlanMisses - a.srv.Cache.PlanMisses
	t.wal.Appends += b.wal.Appends - a.wal.Appends
	t.wal.Commits += b.wal.Commits - a.wal.Commits
	t.wal.Fsyncs += b.wal.Fsyncs - a.wal.Fsyncs
	t.wal.Bytes += b.wal.Bytes - a.wal.Bytes
	t.wal.Checkpoints += b.wal.Checkpoints - a.wal.Checkpoints
	t.wal.CkptErrs += b.wal.CkptErrs - a.wal.CkptErrs
	// GroupMax is a high-water mark, not a counter: it counts only when the
	// window raised it.
	if b.wal.GroupMax > a.wal.GroupMax && b.wal.GroupMax > t.groupMax {
		t.groupMax = b.wal.GroupMax
	}
}

// observe counts one op of client c and, every t.every ops, records its real
// client call as a span and replays it. It is a no-op on a nil receiver, so
// an untraced run pays one nil check per op.
func (t *tracing) observe(c int, start time.Time, lat time.Duration, stmt string, resp *wire.Response) {
	if t == nil {
		return
	}
	if ct := t.per[c]; ct.due(t.every) {
		ct.record(start, lat, []string{stmt}, []wire.Response{*resp}, false)
	}
}

// sample is observe for an op that is replayed whatever the period.
func (t *tracing) sample(c int, start time.Time, lat time.Duration, stmt string, resp *wire.Response) {
	if t == nil {
		return
	}
	t.per[c].ops++
	t.per[c].record(start, lat, []string{stmt}, []wire.Response{*resp}, false)
}

// observeBatch is observe for one batch frame.
func (t *tracing) observeBatch(c int, start time.Time, lat time.Duration, stmts []string, resps []wire.Response) {
	if t == nil {
		return
	}
	if ct := t.per[c]; ct.due(t.every) {
		ct.record(start, lat, stmts, resps, true)
	}
}

// due counts an op and reports whether it falls on the sampling period.
func (ct *clientTrace) due(every int) bool {
	ct.ops++
	return ct.ops%every == 1
}

func (ct *clientTrace) record(start time.Time, lat time.Duration, stmts []string, resps []wire.Response, batch bool) {
	ct.log.add("client.do", 0, ct.ops, start, lat)
	ct.replay(stmts, resps, batch)
}

func typed(r *wire.Response) *wire.TypedResponse {
	return &wire.TypedResponse{Cols: r.Cols, Rows: r.Values, N: r.N, Msg: r.Msg, Plan: r.Plan, Err: r.Err}
}

func frameOf(ftype wire.FrameType, id int, payload []byte) []byte {
	return wire.AppendFrame(nil, &wire.Frame{Version: wire.V2, Encoding: wire.EncBinary, Type: ftype, ID: uint64(id), Payload: payload})
}

// replay redoes the op just sent, one layer at a time, on this goroutine:
// what the client's encoder, the server's decoder, the parser, a session and
// the response codec each do for it, every step in its own span. Failures
// here are bugs in the replay, not in the system, and panic.
func (ct *clientTrace) replay(stmts []string, resps []wire.Response, batch bool) {
	l, op := &ct.log, ct.ops
	root := l.begin("replay", 0, op)
	ct.acc.replays++
	wireDone := func(id int) {
		l.end(id)
		ct.acc.wireNs += l.spans[id-1].End - l.spans[id-1].Start
	}

	s := l.begin("wire.encode_req", root, op)
	var frame []byte
	if batch {
		frame = frameOf(wire.FrameBatch, op, wire.AppendBatchRequest(nil, stmts))
	} else {
		frame = frameOf(wire.FrameExec, op, wire.AppendRequest(nil, stmts[0]))
	}
	wireDone(s)
	ct.acc.wireBytes += int64(len(frame))

	s = l.begin("wire.decode_req", root, op)
	f, err := wire.ReadFrame(bytes.NewReader(frame), 0)
	if err == nil && batch {
		_, err = wire.DecodeBatchRequest(f.Payload)
	} else if err == nil {
		_, err = wire.DecodeRequest(f.Payload)
	}
	wireDone(s)
	if err != nil {
		panic(fmt.Sprintf("bench: replay request codec: %v", err))
	}

	for _, q := range stmts {
		ct.acc.stmts++
		s = l.begin("qql.parse", root, op)
		_, nerr := qql.Normalize(q)
		_, perr := qql.Parse(q)
		l.end(s)
		if nerr != nil || perr != nil {
			panic(fmt.Sprintf("bench: replay parse %q: %v %v", q, nerr, perr))
		}
		ct.acc.parseNs += l.spans[s-1].End - l.spans[s-1].Start
		switch {
		case strings.HasPrefix(q, "SELECT"):
			ct.replaySelect(root, q)
		case ct.scratch != nil:
			s = l.begin("qql.exec", root, op)
			_, err := ct.scratch.Exec(q)
			l.end(s)
			if err != nil {
				panic(fmt.Sprintf("bench: replay exec %q: %v", q, err))
			}
		}
	}

	s = l.begin("wire.encode_resp", root, op)
	if batch {
		ts := make([]*wire.TypedResponse, len(resps))
		for i := range resps {
			ts[i] = typed(&resps[i])
		}
		frame = frameOf(wire.FrameBatchResult, op, wire.AppendTypedBatch(nil, ts))
	} else {
		frame = frameOf(wire.FrameResult, op, wire.AppendTypedResponse(nil, typed(&resps[0])))
	}
	wireDone(s)
	ct.acc.wireBytes += int64(len(frame))

	s = l.begin("wire.decode_resp", root, op)
	f, err = wire.ReadFrame(bytes.NewReader(frame), 0)
	if err == nil && batch {
		var ts []*wire.TypedResponse
		ts, err = wire.DecodeTypedBatch(f.Payload)
		for _, t := range ts {
			t.Response()
		}
	} else if err == nil {
		var t *wire.TypedResponse
		if t, err = wire.DecodeTypedResponse(f.Payload); err == nil {
			t.Response()
		}
	}
	wireDone(s)
	if err != nil {
		panic(fmt.Sprintf("bench: replay response codec: %v", err))
	}
	l.end(root)
}

// opName is a plan step's operator: "ParallelScan(customer, ...)" is
// ParallelScan.
func opName(desc string) string {
	if i := strings.IndexByte(desc, '('); i > 0 {
		return desc[:i]
	}
	return desc
}

// replaySelect runs q through AnalyzeQuery and turns the report into spans.
// AnalyzeStep.Time is inclusive and the report carries no start times, so
// the operator spans are laid out nested and right-aligned inside qql.exec:
// each step's parent is the next step that took at least as long, which
// makes a step's self time its own time minus the slowest input beneath it.
// What is left of qql.exec outside the operators is the front end: cache
// lookup, parse or AST clone, bind and plan.
func (ct *clientTrace) replaySelect(root int, q string) {
	l, op := &ct.log, ct.ops
	t0 := time.Now()
	rep, err := ct.live.AnalyzeQuery(q)
	total := time.Since(t0)
	if err != nil {
		panic(fmt.Sprintf("bench: replay analyze %q: %v", q, err))
	}
	var steps []qql.AnalyzeStep
	var algebra time.Duration
	for _, st := range rep.Steps {
		if !st.Instrumented {
			continue
		}
		steps = append(steps, st)
		algebra = max(algebra, st.Time)
		if strings.Contains(st.Desc, "Scan(") {
			ct.acc.examined += st.Rows
		}
	}
	algebra = min(algebra, total)
	ct.acc.selects++
	ct.acc.algebraNs += int64(algebra)
	ct.acc.frontNs += int64(total - algebra)
	ct.acc.returned += int64(rep.Rows)
	ct.acc.clones += rep.Clones

	exec := l.add("qql.exec", root, op, t0, total)
	execEnd := t0.Add(total)
	ids := make([]int, len(steps))
	for i, st := range steps {
		d := min(st.Time, algebra)
		ids[i] = l.add("algebra."+opName(st.Desc), exec, op, execEnd.Add(-d), d)
	}
	for i := range steps {
		for j := i + 1; j < len(steps); j++ {
			if steps[j].Time >= steps[i].Time {
				l.spans[ids[i]-1].Parent = ids[j]
				break
			}
		}
	}
}

// ---- layer probes -----------------------------------------------------------

// probeServer measures what the network front costs one statement: the
// median, over pairs of like statements, of a client.Do over one connection
// minus a Session.Exec of an equivalent embedded session. viaServer and
// viaSession differ only where a statement cannot run twice (INSERTs); which
// of a pair runs first alternates.
func probeServer(e *env, viaServer, viaSession []string, durable bool) (float64, error) {
	sess := embedded(e.log.Catalog())
	if durable {
		sess.SetDurability(e.log)
	}
	direct := func(q string) (time.Duration, error) {
		t0 := time.Now()
		_, err := sess.Exec(q)
		return time.Since(t0), err
	}
	served := func(q string) (time.Duration, error) {
		t0 := time.Now()
		resp, err := e.clients[0].Do(q)
		if err == nil {
			err = respErr(resp)
		}
		return time.Since(t0), err
	}
	var diffs []float64
	for i := range viaServer {
		var d, s time.Duration
		var derr, serr error
		if i%2 == 0 {
			d, derr = direct(viaSession[i])
			s, serr = served(viaServer[i])
		} else {
			s, serr = served(viaServer[i])
			d, derr = direct(viaSession[i])
		}
		if derr != nil || serr != nil {
			return 0, fmt.Errorf("probe server %q: session %v, server %v", viaServer[i], derr, serr)
		}
		diffs = append(diffs, float64(s-d)/1e3)
	}
	return median(diffs), nil
}

const probeBudget = 300 * time.Millisecond

// probeStorage times the storage primitives the workloads lean on, on the
// served customer table: a columnar pass over every segment, an index probe
// plus row fetch, and an indexed insert into a scratch table.
func probeStorage(cat *storage.Catalog, keys []custRow, seed int64) (scanNsPerRow, lookupNs, insertNs float64, err error) {
	tbl, ok := cat.Get("customer")
	if !ok {
		return 0, 0, 0, fmt.Errorf("customer table missing")
	}
	// The column runs alias the heap, so a pass costs nothing until someone
	// reads them: sum the employees run, the least a scan operator does.
	var passes []float64
	var seg storage.ColSeg
	cols := []int{0, 1, 2}
	var sink int64
	for start := time.Now(); time.Since(start) < probeBudget; {
		t0, rows := time.Now(), 0
		for i := 0; tbl.ScanSegmentCols(i, cols, &seg); i++ {
			for _, v := range seg.Cols[2].Vals {
				sink += v.AsInt()
			}
			rows += seg.Live()
		}
		if rows == 0 || sink == 0 {
			return 0, 0, 0, fmt.Errorf("customer table is empty")
		}
		passes = append(passes, float64(time.Since(t0))/float64(rows))
	}
	scanNsPerRow = median(passes)

	target := storage.IndexTarget{Attr: "co_name"}
	r := clientRand(seed, 9)
	probeKeys := make([]value.Value, 1024)
	for i := range probeKeys {
		probeKeys[i] = value.Str(keys[r.Intn(len(keys))].name)
	}
	n := 0
	t0 := time.Now()
	for ; time.Since(t0) < probeBudget; n++ {
		key := probeKeys[n%len(probeKeys)]
		ids, err := tbl.LookupEq(target, key)
		if err != nil || len(ids) != 1 {
			return 0, 0, 0, fmt.Errorf("lookup %v: %d ids, %v", key, len(ids), err)
		}
		if _, ok := tbl.Get(ids[0]); !ok {
			return 0, 0, 0, fmt.Errorf("lookup %v: row %d missing", key, ids[0])
		}
	}
	lookupNs = float64(time.Since(t0)) / float64(n)

	scratch := storage.NewTable(customerSchema(), false)
	if err := scratch.CreateIndex(target, storage.IndexHash); err != nil {
		return 0, 0, 0, err
	}
	fresh := genCustomers(seed^0x73637261, 20000, "")
	tuples := make([]relation.Tuple, len(fresh))
	for i := range fresh {
		tuples[i] = fresh[i].tuple()
	}
	t0 = time.Now()
	for _, tup := range tuples {
		if _, err := scratch.Insert(tup); err != nil {
			return 0, 0, 0, err
		}
	}
	insertNs = float64(time.Since(t0)) / float64(len(tuples))
	return scanNsPerRow, lookupNs, insertNs, nil
}

// probeWAL times the log's own operations on a scratch directory: a durable
// single-row commit (fsync group, nothing to coalesce with) and a snapshot
// checkpoint of 20000 rows.
func probeWAL(tmp string, seed int64) (commitUs, checkpointS float64, err error) {
	dir, err := os.MkdirTemp(tmp, "probe-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	l, err := wal.Open(dir, wal.Options{CheckpointRecords: -1})
	if err != nil {
		return 0, 0, err
	}
	defer l.Close()
	if err := l.CreateTable(customerSchema(), false); err != nil {
		return 0, 0, err
	}
	rows := genCustomers(seed^0x77616c, 20000, "")
	var lats []int64
	for i := range rows {
		timed := i >= len(rows)-200
		t0 := time.Now()
		if err := l.Insert("customer", rows[i].tuple()); err != nil {
			return 0, 0, err
		}
		if timed || i == len(rows)-201 {
			if err := l.Commit(); err != nil {
				return 0, 0, err
			}
		}
		if timed {
			lats = append(lats, int64(time.Since(t0)))
		}
	}
	t0 := time.Now()
	if err := l.Checkpoint(); err != nil {
		return 0, 0, err
	}
	return summarize(lats).p50ms * 1e3, time.Since(t0).Seconds(), nil
}

// layerMetrics turns what the traced windows and the probes measured into
// the per-layer metrics.
func (t *tracing) layerMetrics(r *result, e *env, p params, keys []custRow, viaServer, viaSession []string, durableProbe bool) (map[string]metric, error) {
	var acc layerAcc
	for _, ct := range t.per {
		acc.merge(ct.acc)
	}
	per := func(total int64, n int, div float64) float64 {
		if n == 0 {
			return 0
		}
		return float64(total) / float64(n) / div
	}
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	m := map[string]metric{}
	m["wire_ns_per_op"] = metric{per(acc.wireNs, acc.replays, 1), "ns"}
	m["wire_bytes_per_op"] = metric{per(acc.wireBytes, acc.replays, 1), "B"}
	m["qql_parse_us"] = metric{per(acc.parseNs, acc.stmts, 1e3), "us"}
	m["qql_bind_plan_us"] = metric{per(acc.frontNs, acc.selects, 1e3), "us"}
	m["algebra_exec_us"] = metric{per(acc.algebraNs, acc.selects, 1e3), "us"}
	m["rows_examined_per_result"] = metric{per(acc.examined, int(acc.returned), 1), "ratio"}
	m["tuple_clones_per_query"] = metric{per(acc.clones, acc.selects, 1), "count"}

	overhead, err := probeServer(e, viaServer, viaSession, durableProbe)
	if err != nil {
		return nil, err
	}
	m["server_overhead_us"] = metric{overhead, "us"}
	m["server_exec_us"] = metric{per(int64(t.srv.TotalLatency), int(t.srv.Queries), 1e3), "us"}
	m["plan_hit_rate"] = metric{ratio(t.srv.Cache.PlanHits, t.srv.Cache.PlanHits+t.srv.Cache.PlanMisses), "ratio"}
	m["ast_hit_rate"] = metric{ratio(t.srv.Cache.Hits, t.srv.Cache.Hits+t.srv.Cache.Misses), "ratio"}
	r.Info["server_queries"] = metric{float64(t.srv.Queries), "count"}
	r.Info["server_errors"] = metric{float64(t.srv.Errors), "count"}
	r.Info["server_batches"] = metric{float64(t.srv.Batches), "count"}

	scan, lookup, insert, err := probeStorage(e.log.Catalog(), keys, p.seed)
	if err != nil {
		return nil, err
	}
	m["storage_scan_ns_per_row"] = metric{scan, "ns"}
	m["storage_lookup_ns"] = metric{lookup, "ns"}
	m["storage_insert_ns"] = metric{insert, "ns"}

	m["wal_fsyncs_per_commit"] = metric{ratio(t.wal.Fsyncs, t.wal.Commits), "ratio"}
	m["wal_bytes_per_row"] = metric{ratio(t.wal.Bytes, t.wal.Appends), "B"}
	m["wal_group_max"] = metric{float64(t.groupMax), "count"}
	m["wal_checkpoints"] = metric{float64(t.wal.Checkpoints), "count"}
	m["wal_ckpt_errs"] = metric{float64(t.wal.CkptErrs), "count"}
	commitUs, ckptS, err := probeWAL(p.tmp, p.seed)
	if err != nil {
		return nil, err
	}
	m["wal_commit_us"] = metric{commitUs, "us"}
	m["wal_checkpoint_s"] = metric{ckptS, "s"}
	m["trace_overhead"] = metric{t.overhead, "ratio"}
	return m, nil
}

// traceFile is the shape of bench/out/trace-<workload>.json.
type traceFile struct {
	Run          runInfo          `json:"run"`
	SelfNsByName map[string]int64 `json:"self_ns_by_span"`
	SelfNsByLay  map[string]int64 `json:"self_ns_by_layer"`
	Replays      int              `json:"replayed_ops"`
	Spans        []span           `json:"spans"`
}

// write computes self times, reports them per span name and writes the span
// file.
func (t *tracing) write(p params, r *result) error {
	logs := make([]*spanLog, len(t.per))
	replays := 0
	for i, ct := range t.per {
		logs[i] = &ct.log
		replays += ct.acc.replays
	}
	spans := mergeSpans(logs...)
	self := selfTimes(spans)
	delete(self, "replay") // the root's own time is the replay's bookkeeping
	byLayer := layerSelf(self)
	for name, ns := range self {
		r.Info["self_ms."+name] = metric{float64(ns) / 1e6, "ms"}
	}
	return writeJSON(filepath.Join(p.outDir, "trace-"+p.workload+".json"),
		traceFile{Run: info(p), SelfNsByName: self, SelfNsByLay: byLayer, Replays: replays, Spans: spans})
}
