package wal

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

// FsyncMode selects the durability/latency trade-off for Commit.
type FsyncMode int

const (
	// FsyncGroup (default): commits block until a background flusher has
	// fsynced their records; concurrently arriving commits — and every
	// record of a batch frame — coalesce into one fsync.
	FsyncGroup FsyncMode = iota
	// FsyncAlways: every Commit writes and fsyncs synchronously in the
	// committing goroutine. Strongest latency-to-durability mapping,
	// one fsync per commit.
	FsyncAlways
	// FsyncOff: Commit only kicks the background flusher; data reaches
	// the OS promptly but fsync happens only at rotation, checkpoint and
	// Close. A crash can lose recently acknowledged writes.
	FsyncOff
)

func (m FsyncMode) String() string {
	switch m {
	case FsyncGroup:
		return "group"
	case FsyncAlways:
		return "always"
	case FsyncOff:
		return "off"
	default:
		return fmt.Sprintf("fsync(%d)", int(m))
	}
}

// ParseFsyncMode parses the -fsync flag value; "" means group.
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch s {
	case "", "group":
		return FsyncGroup, nil
	case "always":
		return FsyncAlways, nil
	case "off":
		return FsyncOff, nil
	default:
		return FsyncGroup, fmt.Errorf("wal: unknown fsync mode %q (want always, group or off)", s)
	}
}

// Options tunes Open. The zero value is production-ready: real
// filesystem, group commit, 64 MiB segments, checkpoint every 50k
// records.
type Options struct {
	// FS is the filesystem seam; nil means the real one.
	FS FS
	// Fsync is the commit durability mode.
	Fsync FsyncMode
	// SegmentBytes rotates the active segment past this size. Default
	// 64 MiB.
	SegmentBytes int64
	// CheckpointRecords triggers an automatic snapshot checkpoint after
	// this many appended records. 0 means the 50000 default; negative
	// disables automatic checkpoints (Checkpoint can still be called).
	CheckpointRecords int
}

// RecoveryStats summarizes what Open found on disk.
type RecoveryStats struct {
	// CheckpointSeq is the sequence the loaded snapshot covers (0 = none).
	CheckpointSeq uint64
	// Replayed counts log records applied on top of the checkpoint.
	Replayed int
	// TornBytes counts trailing bytes truncated from the final segment
	// because the last record was torn by a crash.
	TornBytes int
	// Tables is the table count after recovery.
	Tables int
	// Duration is wall time spent recovering, SnapshotLoad and Replay
	// included.
	Duration time.Duration
	// SnapshotLoad is the time spent reading and decoding the checkpoint.
	SnapshotLoad time.Duration
	// SnapshotFallback is set when the checkpoint was a JSON document —
	// written before checkpoints were binary, or by hand — and so was
	// read by storage.LoadCatalog instead of storage.LoadCheckpoint. The
	// next checkpoint is binary and removes it.
	SnapshotFallback bool
	// Replay is the time spent replaying log segments after the
	// checkpoint.
	Replay time.Duration
}

// Stats is a point-in-time counter snapshot for metrics.
type Stats struct {
	Appends     uint64 // records appended
	Commits     uint64 // Commit calls
	Fsyncs      uint64 // fsync syscalls issued on segments
	Bytes       uint64 // record bytes written to segments
	GroupMax    uint64 // largest record group flushed by one fsync
	Checkpoints uint64 // snapshot checkpoints taken
	CkptErrs    uint64 // failed checkpoint attempts (log still writable)
	DurableSeq  uint64 // highest fsynced (or checkpointed) sequence
	AppendedSeq uint64 // highest appended sequence
	Segments    int64  // live segment files
	SinceCkpt   uint64 // records appended since the last checkpoint
}

// ErrClosed is returned by appends and commits after Close.
var ErrClosed = errors.New("wal: closed")

type waiter struct {
	seq uint64
	ch  chan struct{}
}

// Log is a write-ahead log bound to a catalog. Every mutation goes
// through the log: the record is appended to the in-memory tail and
// applied to the catalog atomically (so replay order equals apply order
// and row IDs are reproduced exactly), then Commit makes the appended
// prefix durable per the fsync mode. A Log is safe for concurrent use.
type Log struct {
	dir       string
	fs        FS
	mode      FsyncMode
	segBytes  int64
	ckptEvery uint64 // 0 = automatic checkpoints disabled

	cat *storage.Catalog

	// appendMu orders record append+apply; the buffer tail is the
	// not-yet-written suffix of the log.
	appendMu     sync.Mutex
	buf          []byte
	pendingFirst uint64 // first seq in buf; 0 when empty
	nextSeq      uint64 // next sequence to assign

	// flushMu owns segment files and their counters.
	flushMu    sync.Mutex
	seg        File
	segWritten int64
	segLast    uint64   // last seq written to a segment
	segFirsts  []uint64 // first seq per live segment, ascending; last is active

	// ckptBusy serializes whole checkpoints (flush + snapshot + swap)
	// without a lock: a checkpoint spans several locked regions and must
	// not hold anything across them.
	ckptBusy atomic.Bool

	// waitMu owns group-commit waiters and the sticky error.
	waitMu  sync.Mutex
	errv    error
	waiters []waiter

	broken    atomic.Bool
	durable   atomic.Uint64
	appended  atomic.Uint64
	ckptSeq   atomic.Uint64
	sinceCkpt atomic.Uint64
	nSegments atomic.Int64

	nAppends atomic.Uint64
	nCommits atomic.Uint64
	nFsyncs  atomic.Uint64
	nBytes   atomic.Uint64
	nCkpts   atomic.Uint64
	nCkptErr atomic.Uint64
	groupMax atomic.Uint64

	kickCh    chan struct{}
	doneCh    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	recov RecoveryStats
}

func segName(first uint64) string { return fmt.Sprintf("wal-%016x.log", first) }

func ckptName(seq uint64) string { return fmt.Sprintf("checkpoint-%016x.ckpt", seq) }

func parseSeqName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hex := name[len(prefix) : len(name)-len(suffix)]
	if len(hex) != 16 {
		return 0, false
	}
	n, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Open opens (creating if needed) the log in dir, recovers the catalog
// from the latest checkpoint plus the log tail, and starts the group
// flusher. A torn final record — a crash mid-write — is truncated; any
// other corruption refuses to open.
func Open(dir string, o Options) (*Log, error) {
	fsys := o.FS
	if fsys == nil {
		fsys = OsFS{}
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	every := uint64(50000)
	if o.CheckpointRecords > 0 {
		every = uint64(o.CheckpointRecords)
	} else if o.CheckpointRecords < 0 {
		every = 0
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", dir, err)
	}
	l := &Log{
		dir:       dir,
		fs:        fsys,
		mode:      o.Fsync,
		segBytes:  o.SegmentBytes,
		ckptEvery: every,
		cat:       storage.NewCatalog(),
		nextSeq:   1,
		kickCh:    make(chan struct{}, 1),
		doneCh:    make(chan struct{}),
	}
	start := time.Now()
	if err := l.replay(); err != nil {
		return nil, err
	}
	l.recov.Duration = time.Since(start)
	l.recov.Tables = len(l.cat.Names())
	l.wg.Add(1)
	go l.flusher()
	return l, nil
}

// Catalog returns the recovered catalog the log applies records to.
func (l *Log) Catalog() *storage.Catalog { return l.cat }

// Mode returns the commit fsync mode.
func (l *Log) Mode() FsyncMode { return l.mode }

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// RecoveryStats reports what Open found.
func (l *Log) RecoveryStats() RecoveryStats { return l.recov }

// Stats snapshots the counters.
func (l *Log) Stats() Stats {
	return Stats{
		Appends:     l.nAppends.Load(),
		Commits:     l.nCommits.Load(),
		Fsyncs:      l.nFsyncs.Load(),
		Bytes:       l.nBytes.Load(),
		GroupMax:    l.groupMax.Load(),
		Checkpoints: l.nCkpts.Load(),
		CkptErrs:    l.nCkptErr.Load(),
		DurableSeq:  l.durable.Load(),
		AppendedSeq: l.appended.Load(),
		Segments:    l.nSegments.Load(),
		SinceCkpt:   l.sinceCkpt.Load(),
	}
}

// --- append + apply ---------------------------------------------------

// Insert logs and applies one row insert.
func (l *Log) Insert(table string, tup relation.Tuple) error {
	return l.append1(&Record{Kind: KindInsert, Table: table, Tuple: tup})
}

// Update logs and applies one row update.
func (l *Log) Update(table string, id storage.RowID, tup relation.Tuple) error {
	return l.append1(&Record{Kind: KindUpdate, Table: table, Row: id, Tuple: tup})
}

// Delete logs and applies one row delete.
func (l *Log) Delete(table string, id storage.RowID) error {
	return l.append1(&Record{Kind: KindDelete, Table: table, Row: id})
}

// CreateTable logs and applies a CREATE TABLE.
func (l *Log) CreateTable(sc *schema.Schema, strict bool) error {
	def, err := storage.MarshalTableDef(sc, strict)
	if err != nil {
		return err
	}
	return l.append1(&Record{Kind: KindCreateTable, Table: sc.Name, Def: def})
}

// DropTable logs and applies a DROP TABLE.
func (l *Log) DropTable(table string) error {
	return l.append1(&Record{Kind: KindDropTable, Table: table})
}

// CreateIndex logs and applies a CREATE INDEX.
func (l *Log) CreateIndex(table string, target storage.IndexTarget, kind storage.IndexKind) error {
	return l.append1(&Record{Kind: KindCreateIndex, Table: table, Target: target, Index: kind})
}

// TagTable logs and applies a table-level quality tag.
func (l *Log) TagTable(table, indicator string, v value.Value) error {
	return l.append1(&Record{Kind: KindTagTable, Table: table, Indicator: indicator, TagValue: v})
}

// append1 assigns the next sequence, frames rec into the buffer tail and
// applies it to the catalog — atomically under appendMu, so the log's
// record order is exactly the catalog's apply order (replay reproduces
// row IDs bit-for-bit). If apply fails the framed bytes are unwound: a
// rejected statement leaves no trace in the log.
func (l *Log) append1(rec *Record) error {
	if l.broken.Load() {
		return l.loadErr()
	}
	l.appendMu.Lock()
	rec.Seq = l.nextSeq
	mark := len(l.buf)
	l.buf = appendRecord(l.buf, rec)
	if err := l.applyRecord(rec); err != nil {
		l.buf = l.buf[:mark]
		l.appendMu.Unlock()
		return err
	}
	if l.pendingFirst == 0 {
		l.pendingFirst = rec.Seq
	}
	l.nextSeq++
	// Publish the watermark before releasing appendMu so it advances in
	// sequence order. Stored after the unlock, two appenders could race
	// (Store(6) then a late Store(5)) and a group-mode Commit reading the
	// regressed watermark would wait only for seq 5 — acknowledging a
	// commit whose own record is not yet fsynced.
	l.appended.Store(rec.Seq)
	l.appendMu.Unlock()
	l.nAppends.Add(1)
	l.sinceCkpt.Add(1)
	return nil
}

// applyRecord applies one logical record to the catalog. It is the only
// place table state changes: the live write path and crash replay share
// it, so recovered state cannot diverge from served state.
func (l *Log) applyRecord(rec *Record) error {
	switch rec.Kind {
	case KindInsert:
		tbl, ok := l.cat.Get(rec.Table)
		if !ok {
			return fmt.Errorf("wal: apply insert seq %d: unknown table %s", rec.Seq, rec.Table)
		}
		_, err := tbl.Insert(rec.Tuple)
		return err
	case KindUpdate:
		tbl, ok := l.cat.Get(rec.Table)
		if !ok {
			return fmt.Errorf("wal: apply update seq %d: unknown table %s", rec.Seq, rec.Table)
		}
		return tbl.Update(rec.Row, rec.Tuple)
	case KindDelete:
		tbl, ok := l.cat.Get(rec.Table)
		if !ok {
			return fmt.Errorf("wal: apply delete seq %d: unknown table %s", rec.Seq, rec.Table)
		}
		return tbl.Delete(rec.Row)
	case KindCreateTable:
		sc, strict, err := storage.UnmarshalTableDef(rec.Def)
		if err != nil {
			return err
		}
		_, err = l.cat.Create(sc, strict)
		return err
	case KindDropTable:
		if !l.cat.Drop(rec.Table) {
			return fmt.Errorf("wal: apply drop seq %d: unknown table %s", rec.Seq, rec.Table)
		}
		return nil
	case KindCreateIndex:
		tbl, ok := l.cat.Get(rec.Table)
		if !ok {
			return fmt.Errorf("wal: apply create-index seq %d: unknown table %s", rec.Seq, rec.Table)
		}
		return tbl.CreateIndex(rec.Target, rec.Index)
	case KindTagTable:
		tbl, ok := l.cat.Get(rec.Table)
		if !ok {
			return fmt.Errorf("wal: apply tag seq %d: unknown table %s", rec.Seq, rec.Table)
		}
		tbl.SetTableTag(rec.Indicator, rec.TagValue)
		return nil
	default:
		return fmt.Errorf("wal: apply seq %d: unknown record kind %d", rec.Seq, byte(rec.Kind))
	}
}

// --- commit -----------------------------------------------------------

// Commit makes every record appended so far durable per the fsync mode.
// It must be called with no locks held; in group mode it blocks until a
// flusher fsync covers the caller's records.
func (l *Log) Commit() error {
	l.nCommits.Add(1)
	seq := l.appended.Load()
	if seq == 0 {
		return l.loadErr()
	}
	switch l.mode {
	case FsyncAlways:
		if err := l.flushOnce(true, true); err != nil {
			return err
		}
		if l.ckptEvery > 0 && l.sinceCkpt.Load() >= l.ckptEvery {
			l.kick()
		}
		return nil
	case FsyncOff:
		l.kick()
		return l.loadErr()
	default: // FsyncGroup
		if l.durable.Load() >= seq {
			return l.loadErr()
		}
		ch, err := l.enlist(seq)
		if err != nil {
			return err
		}
		if ch == nil {
			return nil
		}
		l.kick()
		<-ch
		return l.loadErr()
	}
}

// kick nudges the flusher without blocking (the channel holds one
// pending nudge; a second is redundant).
func (l *Log) kick() {
	select {
	case l.kickCh <- struct{}{}:
	default:
	}
}

// enlist registers a group-commit waiter for seq, unless seq is already
// durable or the log already failed.
func (l *Log) enlist(seq uint64) (chan struct{}, error) {
	l.waitMu.Lock()
	if l.errv != nil {
		err := l.errv
		l.waitMu.Unlock()
		return nil, err
	}
	if l.durable.Load() >= seq {
		l.waitMu.Unlock()
		return nil, nil
	}
	ch := make(chan struct{})
	l.waiters = append(l.waiters, waiter{seq: seq, ch: ch})
	l.waitMu.Unlock()
	return ch, nil
}

// wake releases every waiter whose sequence is now durable.
func (l *Log) wake(durable uint64) {
	l.waitMu.Lock()
	var ready []chan struct{}
	kept := l.waiters[:0]
	for _, w := range l.waiters {
		if w.seq <= durable {
			ready = append(ready, w.ch)
		} else {
			kept = append(kept, w)
		}
	}
	l.waiters = kept
	l.waitMu.Unlock()
	for _, ch := range ready {
		close(ch)
	}
}

// setErr records the first failure, marks the log broken (fail-stop:
// later appends and commits are refused) and releases every waiter.
func (l *Log) setErr(err error) {
	l.broken.Store(true)
	l.waitMu.Lock()
	if l.errv == nil {
		l.errv = err
	}
	ws := l.waiters
	l.waiters = nil
	l.waitMu.Unlock()
	for _, w := range ws {
		close(w.ch)
	}
}

func (l *Log) loadErr() error {
	l.waitMu.Lock()
	defer l.waitMu.Unlock()
	return l.errv
}

// --- flushing ---------------------------------------------------------

// flusher is the group-commit goroutine: each kick flushes the buffer
// tail, fsyncs (in group mode), wakes covered waiters, and takes an
// automatic checkpoint when due. It exits on Close after a final flush.
func (l *Log) flusher() {
	defer l.wg.Done()
	for {
		select {
		case <-l.kickCh:
			// Let the other runnable committers append and enlist before
			// the flush so one fsync covers them all — the point of group
			// commit. This matters most on few cores, where without the
			// yield the flusher runs after every single commit and
			// coalesces nothing. Keep yielding while appends are still
			// arriving, bounded so a steady trickle cannot postpone the
			// flush indefinitely.
			prev := l.appended.Load()
			for i := 0; i < 8; i++ {
				runtime.Gosched()
				cur := l.appended.Load()
				if cur == prev {
					break
				}
				prev = cur
			}
			select {
			case <-l.kickCh:
			default:
			}
		case <-l.doneCh:
			// Final flush: clean shutdown makes everything durable in
			// every mode.
			if err := l.flushOnce(true, false); err != nil {
				return
			}
			return
		}
		if err := l.flushOnce(l.mode != FsyncOff, false); err != nil {
			// Sticky failure already recorded and waiters released; keep
			// draining kicks so Close can complete.
			continue
		}
		l.maybeCheckpoint()
	}
}

// flushOnce drains the buffer tail to the active segment and, when
// syncing, advances the durable watermark and wakes covered waiters.
// Must be called with no locks held.
func (l *Log) flushOnce(doSync, force bool) error {
	synced, err := l.flushAndSync(doSync, force)
	if err != nil {
		l.setErr(fmt.Errorf("wal: flush: %w", err))
		return l.loadErr()
	}
	if synced > 0 {
		l.wake(synced)
	}
	return nil
}

// flushAndSync performs the locked half of a flush: swap out the buffer
// tail, write it to the active segment (rotating first if it would
// overflow), and optionally fsync. force issues the fsync even with an
// empty buffer — fsync=always commits pay for their own barrier
// unconditionally. Returns the highest durable sequence after a sync
// (0 if nothing was synced).
func (l *Log) flushAndSync(doSync, force bool) (uint64, error) {
	l.flushMu.Lock()
	l.appendMu.Lock()
	buf := l.buf
	first := l.pendingFirst
	last := l.nextSeq - 1
	l.buf = nil
	l.pendingFirst = 0
	l.appendMu.Unlock()
	if len(buf) > 0 {
		if l.seg != nil && l.segWritten > 0 && l.segWritten+int64(len(buf)) > l.segBytes {
			if err := l.rotateLocked(first); err != nil {
				l.flushMu.Unlock()
				return 0, err
			}
		}
		if l.seg == nil {
			if err := l.openSegmentLocked(first); err != nil {
				l.flushMu.Unlock()
				return 0, err
			}
		}
		if _, err := l.seg.Write(buf); err != nil {
			l.flushMu.Unlock()
			return 0, err
		}
		l.segWritten += int64(len(buf))
		l.segLast = last
		l.nBytes.Add(uint64(len(buf)))
		group := last - first + 1
		for {
			cur := l.groupMax.Load()
			if group <= cur || l.groupMax.CompareAndSwap(cur, group) {
				break
			}
		}
	}
	var synced uint64
	if doSync && l.seg != nil && (len(buf) > 0 || force || l.durable.Load() < l.segLast) {
		if err := l.seg.Sync(); err != nil {
			l.flushMu.Unlock()
			return 0, err
		}
		l.nFsyncs.Add(1)
		synced = l.segLast
		l.raiseDurable(synced)
	}
	l.flushMu.Unlock()
	return synced, nil
}

// raiseDurable moves the durable watermark up to seq, never down. The
// flusher raises it under flushMu while a checkpoint raises it without,
// so a plain load-compare-store could let a checkpoint's older sequence
// overwrite a newer one the flusher stored in between.
func (l *Log) raiseDurable(seq uint64) {
	for {
		cur := l.durable.Load()
		if seq <= cur || l.durable.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// openSegmentLocked creates the segment whose first record is seq.
// Caller holds flushMu.
func (l *Log) openSegmentLocked(first uint64) error {
	f, err := l.fs.Create(join(l.dir, segName(first)))
	if err != nil {
		return err
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.seg = f
	l.segWritten = 0
	l.segFirsts = append(l.segFirsts, first)
	l.nSegments.Store(int64(len(l.segFirsts)))
	return nil
}

// rotateLocked seals the active segment (sync so no later segment can
// be durable while this one is torn) and opens a fresh one. Caller
// holds flushMu.
func (l *Log) rotateLocked(nextFirst uint64) error {
	if l.seg != nil {
		if err := l.seg.Sync(); err != nil {
			return err
		}
		l.nFsyncs.Add(1)
		l.raiseDurable(l.segLast)
		if err := l.seg.Close(); err != nil {
			return err
		}
		l.seg = nil
	}
	return l.openSegmentLocked(nextFirst)
}

// --- checkpoint -------------------------------------------------------

// maybeCheckpoint takes an automatic checkpoint when enough records
// accumulated since the last one.
func (l *Log) maybeCheckpoint() {
	if l.ckptEvery == 0 || l.sinceCkpt.Load() < l.ckptEvery {
		return
	}
	// A failed checkpoint is not fatal by itself (the log is still
	// authoritative) unless the flush phase already latched an error.
	_ = l.Checkpoint()
}

// Checkpoint writes an atomic snapshot of the catalog (temp file +
// fsync + rename + dir fsync), advances the durable watermark to the
// snapshot's sequence, and removes log segments the snapshot covers.
// If another checkpoint is already in progress it returns nil without
// taking a second one.
func (l *Log) Checkpoint() error {
	if !l.ckptBusy.CompareAndSwap(false, true) {
		return nil
	}
	defer l.ckptBusy.Store(false)
	if err := l.flushOnce(true, false); err != nil {
		return err
	}
	// Serialize the catalog under appendMu: every mutation flows through
	// append1, so holding appendMu yields a state exactly equal to
	// "replay through seq". WriteCheckpoint snapshots tables one at a
	// time and would otherwise interleave with concurrent DML.
	//
	// Known write stall: appendMu is held while WriteCheckpoint encodes
	// the whole catalog into snap, so every writer and group commit waits
	// for it, once per CheckpointRecords. The binary encode reads the
	// column runs directly; the stall is its per-row cost (storage's
	// BenchmarkCatalogSave) times the database size. Encoding outside
	// the lock needs the active segment rotated at the cut first:
	// otherwise the segment holding records on both sides of it is never
	// pruned. Until then, size CheckpointRecords (or disable automatic
	// checkpoints) to bound how often the stall comes.
	var snap bytes.Buffer
	l.appendMu.Lock()
	seq := l.nextSeq - 1
	since := l.sinceCkpt.Load()
	err := l.cat.WriteCheckpoint(&snap)
	l.appendMu.Unlock()
	if err != nil {
		l.nCkptErr.Add(1)
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	if seq == 0 || seq == l.ckptSeq.Load() {
		return nil // nothing new to cover
	}
	if err := l.swapCheckpoint(seq, snap.Bytes()); err != nil {
		// Not latched: the previous checkpoint plus the log segments
		// remain fully authoritative, so a failed swap (disk-full while
		// writing the temp file, a rename error) leaves nothing to
		// fail-stop over. The log stays writable, the failure is counted
		// for metrics, and the next due checkpoint retries. Only the
		// flush phase latches a sticky error.
		l.nCkptErr.Add(1)
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	l.ckptSeq.Store(seq)
	l.sinceCkpt.Add(^(since - 1)) // subtract the records the snapshot covers
	l.nCkpts.Add(1)
	// The snapshot itself is durable; records it covers no longer need
	// their segment fsync.
	l.raiseDurable(seq)
	l.wake(seq)
	return nil
}

// swapCheckpoint durably replaces the checkpoint file with one covering
// seq, then prunes fully covered segments. Replacement is atomic-rename
// only: the temp file is fsynced before the rename, and the directory
// after, so a crash leaves either the old or the new snapshot — never a
// partial one.
func (l *Log) swapCheckpoint(seq uint64, data []byte) error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	name := ckptName(seq)
	tmp := name + ".tmp"
	f, err := l.fs.Create(join(l.dir, tmp))
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := l.fs.Rename(join(l.dir, tmp), join(l.dir, name)); err != nil {
		return err
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		return err
	}
	// Drop the previous checkpoint and every segment whose records are
	// all covered by the new snapshot, oldest first so a crash mid-prune
	// leaves a contiguous suffix.
	if old := l.ckptSeq.Load(); old > 0 && old != seq {
		if err := l.fs.Remove(join(l.dir, ckptName(old))); err != nil && !notExist(err) {
			return err
		}
	}
	for len(l.segFirsts) > 0 {
		first := l.segFirsts[0]
		var segLast uint64
		active := len(l.segFirsts) == 1
		if active {
			segLast = l.segLast
		} else {
			segLast = l.segFirsts[1] - 1
		}
		if segLast > seq || (active && l.segWritten == 0) {
			break
		}
		if active {
			// The active segment is fully covered: seal and drop it; the
			// next flush starts a fresh segment.
			if l.seg != nil {
				if err := l.seg.Close(); err != nil {
					return err
				}
				l.seg = nil
			}
			l.segWritten = 0
		}
		if err := l.fs.Remove(join(l.dir, segName(first))); err != nil && !notExist(err) {
			return err
		}
		l.segFirsts = l.segFirsts[1:]
		l.nSegments.Store(int64(len(l.segFirsts)))
		if active {
			break
		}
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		return err
	}
	return nil
}

// --- close ------------------------------------------------------------

// Close flushes and fsyncs everything appended, stops the flusher and
// closes the active segment. Appends and commits after Close fail with
// ErrClosed.
func (l *Log) Close() error {
	l.closeOnce.Do(func() { close(l.doneCh) })
	l.wg.Wait()
	err := l.loadErr()
	l.setErr(ErrClosed)
	l.flushMu.Lock()
	if l.seg != nil {
		if cerr := l.seg.Close(); err == nil {
			err = cerr
		}
		l.seg = nil
	}
	l.flushMu.Unlock()
	if errors.Is(err, ErrClosed) {
		return nil
	}
	return err
}
