package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server/wire"
	"repro/internal/storage/wal"
	"repro/internal/value"
)

// Frozen workload constants. ingestRows and writeRate were calibrated once at
// the commit that added the benchmark (see README.md) and must not follow
// the system's speed afterwards: a fixed row count keeps bytes, fsyncs and
// checkpoints comparable across commits, and a fixed write rate keeps the
// write load of mixed_rw identical while the read side changes.
const (
	ingestRows  = 30000 // N: rows per ingest round
	ingestBatch = 20    // INSERTs per batch frame
	writeRate   = 8     // W: mixed_rw writes per second, ~30% of one connection's 26/s capacity
	setupReps   = 3
)

// params is one run's input.
type params struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	tr         *tracing // this workload's tracer on a traced run, else nil
	outDir     string
	rows       int           // customer rows in the read-side catalog
	ingestRows int           // rows per ingest round
	writeRate  float64       // mixed_rw writes per second
	warmup     time.Duration // closed-loop warm-up before the measured window
	tmp        string
}

func (p params) window() time.Duration { return time.Duration(p.seconds * float64(time.Second)) }

// measure runs a workload's measured window. An end-to-end run spends the
// whole window untraced. A traced run spends half of it untraced and half
// traced, so that the two rates give the tracing overhead, and brackets the
// traced half with snapshots of the served system's counters; e is nil where
// the window brings up its own environments and does that itself.
func (p params) measure(e *env, window func(d time.Duration, tr *tracing) loopStats) (loopStats, error) {
	if p.tr == nil {
		return window(p.window(), nil), nil
	}
	base := window(p.window()/2, nil)
	var before counters
	if e != nil {
		if err := p.tr.attach(e, false); err != nil {
			return base, err
		}
		before = snapshot(e)
	}
	st := window(p.window()/2, p.tr)
	if e != nil {
		p.tr.addWindow(before, snapshot(e))
	}
	p.tr.overhead = 1 - st.opsPerSec/base.opsPerSec
	st.failed += base.failed
	if st.err == nil {
		st.err = base.err
	}
	return st, nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one workload run measured. Metrics are the gated end-to-end
// numbers (or, on a traced run, the per-layer ones); Info is reported only.
type result struct {
	Workload  string            `json:"workload"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Info      map[string]metric `json:"info,omitempty"`
	FirstErr  string            `json:"first_error,omitempty"`
}

func newResult(name string) *result {
	return &result{Workload: name, Metrics: map[string]metric{}, Info: map[string]metric{}}
}

func (r *result) fail(n int, err error) {
	r.Failed += n
	if r.FirstErr == "" && err != nil {
		r.FirstErr = err.Error()
	}
}

func (r *result) addLoop(s loopStats) {
	r.Attempted += s.attempted()
	r.fail(s.failed, s.err)
}

// tail records the unguarded tail beside a gated median.
func (r *result) tail(prefix string, s latSummary) {
	r.Info[prefix+"_tail_ms"] = metric{s.tailMs, "ms"}
	r.Info[prefix+"_tail_pct"] = metric{s.tailQ * 100, "%"}
	r.Info[prefix+"_samples"] = metric{float64(s.n), "count"}
}

// setUp builds the environment setupReps times (once on a traced run, which
// reports no set-up time), keeps the last one and reports the median build
// time; the earlier ones are torn down untimed.
func (p params) setUp(build func() (*env, error)) (*env, float64, error) {
	reps := setupReps
	if p.tr != nil {
		reps = 1
	}
	var secs []float64
	var e *env
	for i := 0; i < reps; i++ {
		if e != nil {
			if err := e.stop(); err != nil {
				return nil, 0, err
			}
		}
		t0 := time.Now()
		var err error
		if e, err = build(); err != nil {
			return nil, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return e, median(secs), nil
}

// finish restarts the finished directory, checks what recovery found against
// the model and fills in the metrics every workload shares. On a traced run
// the layer probes go first, while the server is still up, and their metrics
// replace the end-to-end ones, which move to Info.
func (r *result) finish(p params, e *env, model []custRow, probe []string, setupS, memMB float64) error {
	var layers map[string]metric
	if p.tr != nil {
		var err error
		if layers, err = p.tr.layerMetrics(r, e, p, model, probe, probe, false); err != nil {
			return err
		}
	}
	rec, err := e.restart()
	if err != nil {
		return err
	}
	r.Attempted++
	if want := modelSum(model); rec.rows != len(model) || rec.sum != want {
		r.fail(1, fmt.Errorf("recovered %d rows sum %x, acknowledged %d rows sum %x", rec.rows, rec.sum, len(model), want))
	}
	r.shared(rec.seconds, float64(rec.diskBytes)/float64(rec.allRows), memMB, setupS, rec.replayed)
	return r.swapLayers(p, layers, rec.replayed)
}

// shared fills in the end-to-end metrics that mean the same on every workload.
func (r *result) shared(recoveryS, diskPerRow, memMB, setupS float64, replayed int) {
	r.Metrics["recovery_s"] = metric{recoveryS, "s"}
	r.Metrics["disk_bytes_per_row"] = metric{diskPerRow, "B/row"}
	r.Metrics["mem_mb"] = metric{memMB, "MB"}
	r.Metrics["setup_s"] = metric{setupS, "s"}
	r.Info["recovery_replayed"] = metric{float64(replayed), "count"}
}

// swapLayers ends a traced run: the per-layer metrics become the result's
// metrics, the end-to-end ones are kept as Info, and the span file is written.
func (r *result) swapLayers(p params, layers map[string]metric, replayed int) error {
	if p.tr == nil {
		return nil
	}
	for name, m := range r.Metrics {
		r.Info[name] = m
	}
	layers["wal_replayed"] = metric{float64(replayed), "count"}
	r.Metrics = layers
	return p.tr.write(p, r)
}

func (r *result) throughput(s loopStats) {
	sum := summarize(s.lats)
	r.Metrics["ops_s"] = metric{s.opsPerSec, "1/s"}
	r.Metrics["lat_p50_ms"] = metric{sum.p50ms, "ms"}
	r.tail("lat", sum)
}

// ---- answers --------------------------------------------------------------

func respErr(resp *wire.Response) error {
	if resp.Err != "" {
		return fmt.Errorf("server: %s", resp.Err)
	}
	return nil
}

// checkLookup compares a point lookup's typed cells with the model row.
func checkLookup(resp *wire.Response, row *custRow) error {
	if err := respErr(resp); err != nil {
		return err
	}
	if len(resp.Values) != 1 || len(resp.Values[0]) != 4 {
		return fmt.Errorf("lookup %q: %d rows", row.name, len(resp.Values))
	}
	v := resp.Values[0]
	if v[0].AsString() != row.name || v[1].AsInt() != row.emp || v[2].AsString() != row.empSrc || !v[3].AsTime().Equal(row.empAt) {
		return fmt.Errorf("lookup %q: got %v, want (%d, %s, %s)", row.name, v, row.emp, row.empSrc, row.empAt.Format(time.RFC3339))
	}
	return nil
}

func count1(resp *wire.Response) (int64, error) {
	if err := respErr(resp); err != nil {
		return 0, err
	}
	if len(resp.Values) != 1 || len(resp.Values[0]) != 1 {
		return 0, fmt.Errorf("count: %d rows", len(resp.Values))
	}
	return resp.Values[0][0].AsInt(), nil
}

// reportOracle holds the five report answers computed straight from the
// generated rows.
type reportOracle struct {
	quality, fresh int64
	bySource       map[string][2]int64 // source -> count, sum(employees)
	byBand         map[string]int64
	projected      int
	projectedSum   uint64
}

func projHash(name string, emp int64) uint64 {
	return value.Str(name).Hash() ^ uint64(emp)*0x9e3779b97f4a7c15
}

func newReportOracle(rows []custRow) *reportOracle {
	o := &reportOracle{bySource: map[string][2]int64{}, byBand: map[string]int64{}}
	for i := range rows {
		r := &rows[i]
		if r.empSrc != "estimate" {
			o.quality++
		}
		if epoch.Sub(r.empAt) <= freshWindow {
			o.fresh++
		}
		g := o.bySource[r.empSrc]
		o.bySource[r.empSrc] = [2]int64{g[0] + 1, g[1] + r.emp}
		o.byBand[band(r.emp)]++
		if r.emp >= projectMin {
			o.projected++
			o.projectedSum += projHash(r.name, r.emp)
		}
	}
	return o
}

// check verifies the answer to report statement i.
func (o *reportOracle) check(i int, resp *wire.Response) error {
	if err := respErr(resp); err != nil {
		return err
	}
	switch i {
	case 0, 1:
		got, err := count1(resp)
		want := o.quality
		if i == 1 {
			want = o.fresh
		}
		if err != nil || got != want {
			return fmt.Errorf("report query %d: got %d (%v), want %d", i, got, err, want)
		}
	case 2:
		if len(resp.Values) != len(o.bySource) {
			return fmt.Errorf("group by source: %d groups, want %d", len(resp.Values), len(o.bySource))
		}
		for _, v := range resp.Values {
			if want, ok := o.bySource[v[0].AsString()]; !ok || v[1].AsInt() != want[0] || v[2].AsInt() != want[1] {
				return fmt.Errorf("group by source: got %v, want %v", v, want)
			}
		}
	case 3:
		if len(resp.Values) != len(o.byBand) {
			return fmt.Errorf("join group by band: %d groups, want %d", len(resp.Values), len(o.byBand))
		}
		for _, v := range resp.Values {
			if want, ok := o.byBand[v[0].AsString()]; !ok || v[1].AsInt() != want {
				return fmt.Errorf("join group by band: got %v, want %d", v, want)
			}
		}
	case 4:
		var sum uint64
		for _, v := range resp.Values {
			sum += projHash(v[0].AsString(), v[1].AsInt())
		}
		if len(resp.Values) != o.projected || sum != o.projectedSum {
			return fmt.Errorf("projected scan: %d rows sum %x, want %d rows sum %x", len(resp.Values), sum, o.projected, o.projectedSum)
		}
	}
	return nil
}

// ---- oltp_read ------------------------------------------------------------

// readEnv sets up the 100k-row catalog the three read-side workloads share.
func readEnv(p params, rows *[]custRow) (*env, float64, error) {
	return p.setUp(func() (*env, error) {
		*rows = genCustomers(p.seed, p.rows, "")
		return startEnv(p.tmp, *rows, true, wal.Options{}, clients)
	})
}

// lookup is one indexed point SELECT by client c, checked against the model.
func lookup(e *env, c int, row *custRow, tr *tracing) (time.Duration, error) {
	q := lookupStmt(row.name)
	t0 := time.Now()
	resp, err := e.clients[c].Do(q)
	lat := time.Since(t0)
	if err != nil {
		return lat, transport(err)
	}
	tr.observe(c, t0, lat, q, resp)
	return lat, checkLookup(resp, row)
}

func pickers(p params, stride int) []*keyPicker {
	pick := make([]*keyPicker, clients)
	for c := range pick {
		pick[c] = newKeyPicker(p.seed, c, p.rows, stride)
	}
	return pick
}

// probeLookups is a fixed sample of lookups for the server-overhead probe.
func probeLookups(p params, rows []custRow, stride, n int) []string {
	pick := newKeyPicker(p.seed, clients, p.rows, stride)
	stmts := make([]string, n)
	for i := range stmts {
		stmts[i] = lookupStmt(rows[pick.next()].name)
	}
	return stmts
}

func oltpRead(p params) (*result, error) {
	var rows []custRow
	e, setupS, err := readEnv(p, &rows)
	if err != nil {
		return nil, err
	}
	defer e.stop()
	pick := pickers(p, 1)
	window := func(d time.Duration, tr *tracing) loopStats {
		return closedLoop(clients, d, nil, func(c int) (time.Duration, error) {
			return lookup(e, c, &rows[pick[c].next()], tr)
		})
	}
	window(p.warmup, nil)
	st, err := p.measure(e, window)
	if err != nil {
		return nil, err
	}
	mem := liveHeapMB()

	r := newResult(p.workload)
	r.addLoop(st)
	r.throughput(st)
	return r, r.finish(p, e, rows, probeLookups(p, rows, 1, 200), setupS, mem)
}

// ---- quality_scan ---------------------------------------------------------

// report is one quality report by client c: the five statements in order,
// each answer checked; the latency is the whole report's.
func report(e *env, c int, o *reportOracle, tr *tracing) (time.Duration, error) {
	var total time.Duration
	var bad error
	for i, q := range reportStmts {
		t0 := time.Now()
		resp, err := e.clients[c].Do(q)
		lat := time.Since(t0)
		total += lat
		if err != nil {
			return total, transport(err)
		}
		tr.observe(c, t0, lat, q, resp)
		if err := o.check(i, resp); err != nil && bad == nil {
			bad = err
		}
	}
	return total, bad
}

func qualityScan(p params) (*result, error) {
	var rows []custRow
	e, setupS, err := readEnv(p, &rows)
	if err != nil {
		return nil, err
	}
	defer e.stop()
	oracle := newReportOracle(rows)
	window := func(d time.Duration, tr *tracing) loopStats {
		return closedLoop(clients, d, nil, func(c int) (time.Duration, error) { return report(e, c, oracle, tr) })
	}
	window(p.warmup, nil)
	st, err := p.measure(e, window)
	if err != nil {
		return nil, err
	}
	mem := liveHeapMB()

	r := newResult(p.workload)
	r.addLoop(st)
	r.throughput(st)
	return r, r.finish(p, e, rows, append(reportStmts, reportStmts...), setupS, mem)
}

// ---- durable_ingest -------------------------------------------------------

// ingestRound is one fixed-size ingest into an empty durable server.
type ingestRound struct {
	setupS, rowsPerSec, memMB float64
	loopStats                 // one latency per batch frame
	rec                       recovered
	wal                       wal.Stats
	rows                      int
}

// ingestOpts makes five automatic checkpoints complete in every round and
// leaves a tail of about an eighth of the rows for recovery to replay.
func ingestOpts(n int) wal.Options { return wal.Options{CheckpointRecords: n * 7 / 40} }

// ingestFrames splits rows between the clients and cuts each share into
// batch frames.
func ingestFrames(rows []custRow) [][][]string {
	frames := make([][][]string, clients)
	for c := range frames {
		var frame []string
		for i := c; i < len(rows); i += clients {
			frame = append(frame, rows[i].insertStmt())
			if len(frame) == ingestBatch {
				frames[c] = append(frames[c], frame)
				frame = nil
			}
		}
		if len(frame) > 0 {
			frames[c] = append(frames[c], frame)
		}
	}
	return frames
}

const qCount = `SELECT COUNT(*) AS n FROM customer`

func runIngestRound(p params, round, n int, tr *tracing) (ingestRound, error) {
	var out ingestRound
	t0 := time.Now()
	rows := genCustomers(p.seed*1000+int64(round), n, "")
	frames := ingestFrames(rows)
	e, err := startEnv(p.tmp, nil, false, ingestOpts(n), clients)
	if err != nil {
		return out, err
	}
	defer e.stop()
	out.setupS = time.Since(t0).Seconds()
	out.rows = n
	if tr != nil {
		if err := tr.attach(e, true); err != nil {
			return out, err
		}
	}

	before := snapshot(e)
	per := make([]loopStats, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &per[c]
			for _, frame := range frames[c] {
				t0 := time.Now()
				resps, err := e.clients[c].ExecBatch(frame)
				lat := time.Since(t0)
				if err == nil && len(resps) != len(frame) {
					err = fmt.Errorf("batch of %d answered with %d responses", len(frame), len(resps))
				}
				for i := 0; err == nil && i < len(resps); i++ {
					err = respErr(&resps[i])
				}
				if err != nil {
					st.failed++
					st.err = err
					return
				}
				st.lats = append(st.lats, int64(lat))
				tr.observeBatch(c, t0, lat, frame, resps)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if tr != nil {
		tr.addWindow(before, snapshot(e))
	}
	out.loopStats = mergeLoops(per)
	if out.failed > 0 {
		return out, nil // a frame failed: the round is reported, not recovered
	}
	out.rowsPerSec = float64(n) / elapsed
	out.memMB = liveHeapMB()
	out.wal = e.log.Stats()

	// Every connection must now see every acknowledged row.
	for c := 0; c < clients; c++ {
		t0 := time.Now()
		resp, err := e.clients[c].Do(qCount)
		lat := time.Since(t0)
		if err != nil {
			return out, err
		}
		tr.sample(c, t0, lat, qCount, resp)
		if got, err := count1(resp); err != nil || got != int64(n) {
			out.failed++
			out.err = fmt.Errorf("served count %d (%v) after %d acknowledged rows", got, err, n)
		}
	}
	if out.rec, err = e.restart(); err != nil {
		return out, err
	}
	if want := modelSum(rows); out.rec.rows != n || out.rec.sum != want {
		out.failed++
		out.err = fmt.Errorf("recovered %d rows sum %x, acknowledged %d rows sum %x", out.rec.rows, out.rec.sum, n, want)
	}
	return out, nil
}

// durableIngest repeats fixed-size rounds until the window is used up and
// reports medians over the rounds; a quarter-size round first warms the heap
// and the page cache.
func durableIngest(p params) (*result, error) {
	if _, err := runIngestRound(p, 0, p.ingestRows/4, nil); err != nil {
		return nil, err
	}
	r := newResult(p.workload)
	var setup, recov, disk, checkpoints []float64
	var last ingestRound
	var fatal error
	round := 0
	window := func(d time.Duration, tr *tracing) loopStats {
		var all loopStats
		var rate []float64
		for start := time.Now(); fatal == nil && (len(rate) == 0 || time.Since(start) < d); {
			round++
			rd, err := runIngestRound(p, round, p.ingestRows, tr)
			if err != nil {
				fatal = err
				break
			}
			r.Attempted += rd.attempted() + clients + 1 // frames, served counts, recovery
			r.fail(rd.failed, rd.err)
			if rd.failed > 0 {
				break
			}
			setup = append(setup, rd.setupS)
			rate = append(rate, rd.rowsPerSec)
			recov = append(recov, rd.rec.seconds)
			disk = append(disk, float64(rd.rec.diskBytes)/float64(rd.rows))
			checkpoints = append(checkpoints, float64(rd.wal.Checkpoints))
			all.lats = append(all.lats, rd.lats...)
			last = rd
		}
		if len(rate) > 0 {
			all.opsPerSec = median(rate)
		}
		return all
	}
	st, err := p.measure(nil, window)
	if err == nil {
		err = fatal
	}
	if err != nil || len(st.lats) == 0 {
		return r, err
	}
	r.throughput(st)
	r.shared(median(recov), median(disk), last.memMB, median(setup), last.rec.replayed)
	r.Info["rounds"] = metric{float64(len(setup)), "count"}
	r.Info["rows_per_round"] = metric{float64(p.ingestRows), "count"}
	r.Info["checkpoints_per_round"] = metric{median(checkpoints), "count"}
	r.Info["fsyncs_per_commit"] = metric{float64(last.wal.Fsyncs) / float64(last.wal.Commits), "ratio"}
	if p.tr == nil {
		return r, nil
	}

	// The layer probes need a served table: one more environment, loaded
	// with a round's rows, and two disjoint sets of fresh INSERTs.
	rows := genCustomers(p.seed*1000, p.ingestRows, "")
	e, err := startEnv(p.tmp, rows, false, ingestOpts(p.ingestRows), clients)
	if err != nil {
		return nil, err
	}
	defer e.stop()
	fresh := genCustomers(p.seed*1000+999, 400, "P ")
	stmts := make([]string, len(fresh))
	for i := range fresh {
		stmts[i] = fresh[i].insertStmt()
	}
	layers, err := p.tr.layerMetrics(r, e, p, rows, stmts[:200], stmts[200:], true)
	if err != nil {
		return nil, err
	}
	return r, r.swapLayers(p, layers, last.rec.replayed)
}

// ---- mixed_rw -------------------------------------------------------------

// mixedReader is the reader of mixed_rw: 95% point lookups on even rows, 5%
// quality-filtered counts — every twentieth op, not a coin toss, because one
// count costs as much as six hundred lookups and a run's luck with the coin
// would be most of its throughput. While the writer runs the count has no
// single right answer, but every write tags its cell with a source other
// than "estimate", so the count can only grow, by at most one per write
// issued.
type mixedReader struct {
	e      *env
	rows   []custRow
	pick   *keyPicker
	n      int
	base   int64 // the count before any write
	issued *atomic.Int64
	tr     *tracing
}

func (m *mixedReader) op(int) (time.Duration, error) {
	if m.n++; m.n%20 != 0 {
		return lookup(m.e, 0, &m.rows[m.pick.next()], m.tr)
	}
	t0 := time.Now()
	resp, err := m.e.clients[0].Do(qQuality)
	lat := time.Since(t0)
	if err != nil {
		return lat, transport(err)
	}
	m.tr.observe(0, t0, lat, qQuality, resp)
	got, err := count1(resp)
	if max := m.base + m.issued.Load(); err == nil && (got < m.base || got > max) {
		err = fmt.Errorf("quality count %d outside [%d, %d]", got, m.base, max)
	}
	return lat, err
}

// mixedWriter sends durable single-statement writes on a pacer's schedule
// over its own connection, one outstanding at a time, and applies each
// acknowledged write to the model.
type mixedWriter struct {
	e        *env
	gen      *writeGen
	inserted []custRow
	issued   *atomic.Int64
	ol       openLoop
	failed   int
	err      error
}

func (w *mixedWriter) run(pc pacer, n int, tr *tracing) {
	for i := 0; i < n; i++ {
		wr := w.gen.next()
		due := pc.due(i)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		w.issued.Add(1)
		sent := time.Now()
		pend, err := w.e.clients[1].DoAsync(wr.stmt)
		var resp *wire.Response
		if err == nil {
			resp, err = pend.Wait()
		}
		done := time.Now()
		if err == nil {
			err = respErr(resp)
		}
		if err != nil {
			w.failed++
			if w.err == nil {
				w.err = err
			}
			if resp == nil {
				return // the connection is gone
			}
			continue
		}
		w.ol.record(due, sent, done)
		tr.observe(1, sent, done.Sub(sent), wr.stmt, resp)
		if wr.update {
			w.gen.rows[wr.idx] = wr.row
		} else {
			w.inserted = append(w.inserted, wr.row)
		}
	}
}

func mixedRW(p params) (*result, error) {
	var rows []custRow
	e, setupS, err := readEnv(p, &rows)
	if err != nil {
		return nil, err
	}
	defer e.stop()
	var issued atomic.Int64
	reader := &mixedReader{e: e, rows: rows, pick: newKeyPicker(p.seed, 0, p.rows, 2),
		base: newReportOracle(rows).quality, issued: &issued}
	writer := &mixedWriter{e: e, gen: &writeGen{r: clientRand(p.seed, 1), rows: rows}, issued: &issued}
	r := newResult(p.workload)

	// Phase A is the warm-up: the reader alone. It gates nothing, so it
	// takes none of the window; the writes are few enough as it is.
	alone := closedLoop(1, p.warmup, nil, reader.op)
	r.addLoop(alone)

	// Phase B, the whole window: the same reader while the writer issues a
	// fixed number of writes at a fixed rate; the reader stops when the
	// writer has.
	nWrites := 0
	window := func(d time.Duration, tr *tracing) loopStats {
		reader.tr = tr
		writer.ol = openLoop{}
		n := int(p.writeRate * d.Seconds())
		nWrites += n
		var stop atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			writer.run(pacer{start: time.Now(), interval: time.Duration(float64(time.Second) / p.writeRate)}, n, tr)
			stop.Store(true)
		}()
		mixed := closedLoop(1, 0, &stop, reader.op)
		wg.Wait()
		return mixed
	}
	mixed, err := p.measure(e, window)
	if err != nil {
		return nil, err
	}
	mem := liveHeapMB()
	r.addLoop(mixed)
	r.Attempted += nWrites
	r.fail(writer.failed, writer.err)

	// The gated pair: what the reader got done beside the writer, and what a
	// write cost from the moment it was due.
	wsum := summarize(writer.ol.lats)
	r.Metrics["ops_s"] = metric{mixed.opsPerSec, "1/s"}
	r.Metrics["lat_p50_ms"] = metric{wsum.p50ms, "ms"}
	r.tail("write_lat", wsum)
	rsum := summarize(mixed.lats)
	r.Info["read_lat_p50_ms"] = metric{rsum.p50ms, "ms"}
	r.tail("read_lat", rsum)
	r.Info["read_alone_ops_s"] = metric{alone.opsPerSec, "1/s"}
	r.Info["rw_interference"] = metric{mixed.opsPerSec / alone.opsPerSec, "ratio"}
	r.Info["writes"] = metric{float64(nWrites), "count"}
	r.Info["write_rate"] = metric{p.writeRate, "1/s"}
	late := summarize(writer.ol.lateness)
	r.Info["generator_lateness_p50_ms"] = metric{late.p50ms, "ms"}
	r.Info["generator_lateness_tail_ms"] = metric{late.tailMs, "ms"}

	// With the writer stopped the count has one right answer again.
	model := append(rows, writer.inserted...)
	r.Attempted++
	resp, err := e.clients[0].Do(qQuality)
	if err != nil {
		return nil, err
	}
	want := newReportOracle(model).quality
	if got, err := count1(resp); err != nil || got != want {
		r.fail(1, fmt.Errorf("final quality count %d (%v), want %d", got, err, want))
	}
	// The probe keeps the reader's mix: nineteen lookups to one count.
	probe := probeLookups(p, rows, 2, 190)
	for i := 0; i < 10; i++ {
		probe = append(probe, qQuality)
	}
	return r, r.finish(p, e, model, probe, setupS, mem)
}

var workloads = map[string]func(params) (*result, error){
	"oltp_read":      oltpRead,
	"quality_scan":   qualityScan,
	"durable_ingest": durableIngest,
	"mixed_rw":       mixedRW,
}

var workloadOrder = []string{"oltp_read", "quality_scan", "durable_ingest", "mixed_rw"}
