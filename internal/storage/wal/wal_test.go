package wal

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/tag"
	"repro/internal/value"
)

// --- shared workload --------------------------------------------------

var testTime = time.Date(1993, 4, 19, 8, 30, 0, 123456789, time.UTC)

func customerSchema(t testing.TB) *schema.Schema {
	t.Helper()
	sc, err := schema.New("customer", []schema.Attr{
		{Name: "id", Kind: value.KindInt, Required: true},
		{Name: "name", Kind: value.KindString,
			Indicators: []tag.Indicator{
				{Name: "source", Kind: value.KindString},
				{Name: "creation_time", Kind: value.KindTime},
			}},
	}, "id")
	if err != nil {
		t.Fatalf("schema: %v", err)
	}
	return sc
}

// taggedRow builds a fully decorated tuple: value tags, polygen
// sources, and meta-quality, so the workload exercises the whole cell
// codec.
func taggedRow(id int64, name string) relation.Tuple {
	nameCell := relation.Cell{
		V: value.Str(name),
		Tags: tag.NewSet(
			tag.Tag{Indicator: "source", Value: value.Str("Nexis")},
			tag.Tag{Indicator: "creation_time", Value: value.Time(testTime)},
		),
		Sources: tag.NewSources("Nexis", "Lexis"),
	}
	nameCell = nameCell.WithMetaTag("source", "confidence", value.Float(0.75))
	return relation.Tuple{Cells: []relation.Cell{{V: value.Int(id)}, nameCell}}
}

// applier abstracts "something records can be applied to": the Log on
// the live path, a plain catalog for the expected mirror state.
type applier interface {
	Insert(table string, tup relation.Tuple) error
	Update(table string, id storage.RowID, tup relation.Tuple) error
	Delete(table string, id storage.RowID) error
	CreateTable(sc *schema.Schema, strict bool) error
	DropTable(table string) error
	CreateIndex(table string, target storage.IndexTarget, kind storage.IndexKind) error
	TagTable(table, indicator string, v value.Value) error
	Checkpoint() error
}

// mirror applies ops directly to a catalog, bypassing any log — the
// reference for what recovered state must equal.
type mirror struct{ cat *storage.Catalog }

func (m mirror) Insert(table string, tup relation.Tuple) error {
	tbl, ok := m.cat.Get(table)
	if !ok {
		return fmt.Errorf("mirror: unknown table %s", table)
	}
	_, err := tbl.Insert(tup)
	return err
}

func (m mirror) Update(table string, id storage.RowID, tup relation.Tuple) error {
	tbl, ok := m.cat.Get(table)
	if !ok {
		return fmt.Errorf("mirror: unknown table %s", table)
	}
	return tbl.Update(id, tup)
}

func (m mirror) Delete(table string, id storage.RowID) error {
	tbl, ok := m.cat.Get(table)
	if !ok {
		return fmt.Errorf("mirror: unknown table %s", table)
	}
	return tbl.Delete(id)
}

func (m mirror) CreateTable(sc *schema.Schema, strict bool) error {
	_, err := m.cat.Create(sc, strict)
	return err
}

func (m mirror) DropTable(table string) error {
	if !m.cat.Drop(table) {
		return fmt.Errorf("mirror: unknown table %s", table)
	}
	return nil
}

func (m mirror) CreateIndex(table string, target storage.IndexTarget, kind storage.IndexKind) error {
	tbl, ok := m.cat.Get(table)
	if !ok {
		return fmt.Errorf("mirror: unknown table %s", table)
	}
	return tbl.CreateIndex(target, kind)
}

func (m mirror) TagTable(table, indicator string, v value.Value) error {
	tbl, ok := m.cat.Get(table)
	if !ok {
		return fmt.Errorf("mirror: unknown table %s", table)
	}
	tbl.SetTableTag(indicator, v)
	return nil
}

// Checkpoint changes no logical state, so the reference does nothing.
func (m mirror) Checkpoint() error { return nil }

// workloadCkpt is the index in workloadOps of its checkpoint, the one op
// that appends no log record.
const workloadCkpt = 10

// workloadOps is a mixed DDL/DML sequence; each op is one acknowledged
// unit (the Log path commits after each). A checkpoint falls between a
// delete and later writes that address rows above the hole by row ID.
func workloadOps(t testing.TB) []func(applier) error {
	sc := customerSchema(t)
	return []func(applier) error{
		func(a applier) error { return a.CreateTable(sc, true) },
		func(a applier) error { return a.Insert("customer", taggedRow(1, "wang")) },
		func(a applier) error { return a.Insert("customer", taggedRow(2, "kon")) },
		func(a applier) error { return a.Insert("customer", taggedRow(3, "madnick")) },
		func(a applier) error {
			return a.CreateIndex("customer", storage.IndexTarget{Attr: "id"}, storage.IndexHash)
		},
		func(a applier) error { return a.TagTable("customer", "source", value.Str("ICDE")) },
		// RowIDs are assigned in insert order starting at 0: row 0 is
		// customer 1, row 1 is customer 2.
		func(a applier) error { return a.Update("customer", 0, taggedRow(1, "wang-renamed")) },
		func(a applier) error { return a.Delete("customer", 1) },
		func(a applier) error { return a.Insert("customer", taggedRow(4, "quality")) },
		func(a applier) error { return a.Insert("customer", taggedRow(5, "tagged")) },
		// Row 1 is dead: rows 2–4 keep their IDs only if the checkpoint
		// records the hole.
		func(a applier) error { return a.Checkpoint() },
		func(a applier) error { return a.Update("customer", 4, taggedRow(5, "tagged-renamed")) },
		func(a applier) error { return a.Update("customer", 2, taggedRow(3, "madnick-recertified")) },
		func(a applier) error { return a.Delete("customer", 3) },
		func(a applier) error { return a.Insert("customer", taggedRow(6, "after-hole")) },
	}
}

// runLogged runs ops against the log, committing each; returns how many
// were acknowledged (op applied AND committed) before the first error.
func runLogged(l *Log, ops []func(applier) error) int {
	acked := 0
	for _, op := range ops {
		if err := op(l); err != nil {
			return acked
		}
		if err := l.Commit(); err != nil {
			return acked
		}
		acked++
	}
	return acked
}

// expectedCatalog mirrors the first n acknowledged ops.
func expectedCatalog(t testing.TB, n int) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog()
	ops := workloadOps(t)
	for i := 0; i < n; i++ {
		if err := ops[i](mirror{cat}); err != nil {
			t.Fatalf("mirror op %d: %v", i, err)
		}
	}
	return cat
}

// catalogDump renders a catalog canonically (Save is deterministic:
// sorted table names, ordered rows, sorted JSON maps), so equality is a
// byte comparison.
func catalogDump(t testing.TB, cat *storage.Catalog) string {
	t.Helper()
	var buf bytes.Buffer
	if err := cat.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	return buf.String()
}

func assertCatalogsEqual(t testing.TB, got, want *storage.Catalog, msg string) {
	t.Helper()
	g, w := catalogDump(t, got), catalogDump(t, want)
	if g != w {
		t.Fatalf("%s: recovered catalog differs\n--- got ---\n%s\n--- want ---\n%s", msg, g, w)
	}
}

// --- basic round-trips ------------------------------------------------

func TestRecordCodecRoundTrip(t *testing.T) {
	sc := customerSchema(t)
	def, err := storage.MarshalTableDef(sc, true)
	if err != nil {
		t.Fatal(err)
	}
	recs := []*Record{
		{Seq: 1, Kind: KindCreateTable, Table: "customer", Def: def},
		{Seq: 2, Kind: KindInsert, Table: "customer", Tuple: taggedRow(7, "w")},
		{Seq: 3, Kind: KindUpdate, Table: "customer", Row: 4, Tuple: taggedRow(7, "x")},
		{Seq: 4, Kind: KindDelete, Table: "customer", Row: 9},
		{Seq: 5, Kind: KindDropTable, Table: "customer"},
		{Seq: 6, Kind: KindCreateIndex, Table: "customer",
			Target: storage.IndexTarget{Attr: "id", Indicator: "source"}, Index: storage.IndexBTree},
		{Seq: 7, Kind: KindTagTable, Table: "customer", Indicator: "source", TagValue: value.Str("Nexis")},
	}
	var buf []byte
	for _, r := range recs {
		buf = appendRecord(buf, r)
	}
	for _, want := range recs {
		rec, rest, used, err := decodeRecord(buf)
		if err != nil {
			t.Fatalf("decode seq %d: %v", want.Seq, err)
		}
		if used < frameHeader {
			t.Fatalf("seq %d: used %d", want.Seq, used)
		}
		if rec.Seq != want.Seq || rec.Kind != want.Kind || rec.Table != want.Table || rec.Row != want.Row {
			t.Fatalf("seq %d: got %+v", want.Seq, rec)
		}
		if rec.Kind == KindCreateIndex && (rec.Target != want.Target || rec.Index != want.Index) {
			t.Fatalf("index record mismatch: %+v", rec)
		}
		if rec.Kind == KindTagTable && (rec.Indicator != want.Indicator || !value.Equal(rec.TagValue, want.TagValue)) {
			t.Fatalf("tag record mismatch: %+v", rec)
		}
		buf = rest
	}
	if len(buf) != 0 {
		t.Fatalf("%d trailing bytes", len(buf))
	}
}

func TestParseFsyncMode(t *testing.T) {
	for s, want := range map[string]FsyncMode{"": FsyncGroup, "group": FsyncGroup, "always": FsyncAlways, "off": FsyncOff} {
		got, err := ParseFsyncMode(s)
		if err != nil || got != want {
			t.Fatalf("ParseFsyncMode(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseFsyncMode("sometimes"); err == nil {
		t.Fatal("want error for unknown mode")
	}
}

// TestReopenRoundTrip is the basic durability loop for every fsync
// mode: write, close cleanly, reopen, state identical.
func TestReopenRoundTrip(t *testing.T) {
	for _, mode := range []FsyncMode{FsyncAlways, FsyncGroup, FsyncOff} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{Fsync: mode})
			if err != nil {
				t.Fatal(err)
			}
			ops := workloadOps(t)
			if n := runLogged(l, ops); n != len(ops) {
				t.Fatalf("acked %d of %d ops", n, len(ops))
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			l2, err := Open(dir, Options{Fsync: mode})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			// The records after the workload's checkpoint replay.
			if want := len(ops) - workloadCkpt - 1; l2.RecoveryStats().Replayed != want {
				t.Fatalf("replayed %d, want %d", l2.RecoveryStats().Replayed, want)
			}
			assertCatalogsEqual(t, l2.Catalog(), expectedCatalog(t, len(ops)), "reopen")
		})
	}
}

// TestRejectedStatementLeavesNoTrace: an apply failure (duplicate key)
// unwinds the framed record, so replay never sees it.
func TestRejectedStatementLeavesNoTrace(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.CreateTable(customerSchema(t), true); err != nil {
		t.Fatal(err)
	}
	if err := l.Insert("customer", taggedRow(1, "a")); err != nil {
		t.Fatal(err)
	}
	if err := l.Insert("customer", taggedRow(1, "dup")); err == nil {
		t.Fatal("want duplicate-key error")
	}
	if err := l.Insert("customer", taggedRow(2, "b")); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	tbl, _ := l2.Catalog().Get("customer")
	if tbl.Len() != 2 {
		t.Fatalf("rows = %d, want 2", tbl.Len())
	}
}

// TestGroupCommitCoalesces: many records appended before one Commit are
// covered by a single fsync, and GroupMax records the batch.
func TestGroupCommitCoalesces(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: FsyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.CreateTable(customerSchema(t), true); err != nil {
		t.Fatal(err)
	}
	for i := int64(1); i <= 10; i++ {
		if err := l.Insert("customer", taggedRow(i, "row")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Fsyncs != 1 {
		t.Fatalf("fsyncs = %d, want 1 (one group)", st.Fsyncs)
	}
	if st.GroupMax != 11 { // create + 10 inserts
		t.Fatalf("group max = %d, want 11", st.GroupMax)
	}
	if st.DurableSeq != st.AppendedSeq {
		t.Fatalf("durable %d != appended %d after commit", st.DurableSeq, st.AppendedSeq)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentGroupCommit hammers Commit from many goroutines under
// each fsync policy and checks the policy's fsync accounting: always pays
// at least one fsync per commit, group never more than one, off none
// before Close. Under always and group no commit is acknowledged before the
// records appended ahead of it are durable, and under every policy each
// acknowledged insert is present on reopen.
func TestConcurrentGroupCommit(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode FsyncMode
	}{
		{"always", FsyncAlways},
		{"group", FsyncGroup},
		{"off", FsyncOff},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{Fsync: tc.mode})
			if err != nil {
				t.Fatal(err)
			}
			if err := l.CreateTable(customerSchema(t), true); err != nil {
				t.Fatal(err)
			}
			if err := l.Commit(); err != nil {
				t.Fatal(err)
			}
			const writers, per = 8, 25
			var wg sync.WaitGroup
			errs := make(chan error, writers)
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						id := int64(w*per + i + 1)
						if err := l.Insert("customer", taggedRow(id, "c")); err != nil {
							errs <- err
							return
						}
						appended := l.Stats().AppendedSeq
						if err := l.Commit(); err != nil {
							errs <- err
							return
						}
						if durable := l.Stats().DurableSeq; tc.mode != FsyncOff && durable < appended {
							errs <- fmt.Errorf("commit acknowledged at durable seq %d before appended seq %d", durable, appended)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			st := l.Stats()
			switch tc.mode {
			case FsyncAlways:
				if st.Fsyncs < st.Commits {
					t.Errorf("fsyncs %d < commits %d", st.Fsyncs, st.Commits)
				}
			case FsyncGroup:
				if st.Fsyncs > st.Commits {
					t.Errorf("fsyncs %d > commits %d", st.Fsyncs, st.Commits)
				}
			case FsyncOff:
				if st.Fsyncs != 0 {
					t.Errorf("fsyncs = %d before Close, want 0", st.Fsyncs)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			l2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			tbl, _ := l2.Catalog().Get("customer")
			if tbl.Len() != writers*per {
				t.Fatalf("rows = %d, want %d", tbl.Len(), writers*per)
			}
		})
	}
}

// TestSegmentRotationAndReplay: tiny segments force rotation; recovery
// must stitch the segments back in order.
func TestSegmentRotationAndReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: FsyncAlways, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	ops := workloadOps(t)
	if n := runLogged(l, ops); n != len(ops) {
		t.Fatalf("acked %d of %d", n, len(ops))
	}
	if st := l.Stats(); st.Segments < 2 {
		t.Fatalf("segments = %d, want rotation to have happened", st.Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	assertCatalogsEqual(t, l2.Catalog(), expectedCatalog(t, len(ops)), "rotated replay")
}

// TestCheckpointKeepsRowIDs: WAL update and delete records address rows
// by ID, so a checkpoint taken after a delete must reload every row under
// its own ID. Insert three rows, delete row 0, checkpoint, then write
// row 1 or row 2 and reopen: the recovered catalog must equal the
// reference, for a keyed and a keyless table.
func TestCheckpointKeepsRowIDs(t *testing.T) {
	keyed := customerSchema(t)
	keyless, err := schema.New("customer", keyed.Attrs)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		sc    *schema.Schema
		write func(a applier) error
	}{
		{"keyed/update1", keyed, func(a applier) error { return a.Update("customer", 1, taggedRow(2, "kon-2")) }},
		{"keyed/update2", keyed, func(a applier) error { return a.Update("customer", 2, taggedRow(3, "madnick-2")) }},
		{"keyed/delete2", keyed, func(a applier) error { return a.Delete("customer", 2) }},
		{"keyless/update1", keyless, func(a applier) error { return a.Update("customer", 1, taggedRow(2, "kon-2")) }},
		{"keyless/update2", keyless, func(a applier) error { return a.Update("customer", 2, taggedRow(3, "madnick-2")) }},
		{"keyless/delete1", keyless, func(a applier) error { return a.Delete("customer", 1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ops := []func(applier) error{
				func(a applier) error { return a.CreateTable(tc.sc, true) },
				func(a applier) error { return a.Insert("customer", taggedRow(1, "wang")) },
				func(a applier) error { return a.Insert("customer", taggedRow(2, "kon")) },
				func(a applier) error { return a.Insert("customer", taggedRow(3, "madnick")) },
				func(a applier) error { return a.Delete("customer", 0) },
				func(a applier) error { return a.Checkpoint() },
				tc.write,
				func(a applier) error { return a.Insert("customer", taggedRow(4, "after")) },
			}
			dir := t.TempDir()
			l, err := Open(dir, Options{Fsync: FsyncAlways, CheckpointRecords: -1})
			if err != nil {
				t.Fatal(err)
			}
			if n := runLogged(l, ops); n != len(ops) {
				t.Fatalf("acked %d of %d", n, len(ops))
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			l2, err := Open(dir, Options{Fsync: FsyncAlways, CheckpointRecords: -1})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer l2.Close()
			want := storage.NewCatalog()
			for i, op := range ops {
				if err := op(mirror{want}); err != nil {
					t.Fatalf("mirror op %d: %v", i, err)
				}
			}
			assertCatalogsEqual(t, l2.Catalog(), want, "reopen after checkpoint")
		})
	}
}

// TestCheckpointTruncatesLog: a checkpoint supersedes the replayed
// prefix and prunes covered segments.
func TestCheckpointTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: FsyncAlways, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	ops := workloadOps(t)
	if n := runLogged(l, ops); n != len(ops) {
		t.Fatalf("acked %d of %d", n, len(ops))
	}
	before := l.Stats().Segments
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Checkpoints != 2 { // the workload's own, then this one
		t.Fatalf("checkpoints = %d", st.Checkpoints)
	}
	if st.Segments >= before {
		t.Fatalf("segments %d not pruned (was %d)", st.Segments, before)
	}
	// More writes after the checkpoint land in fresh segments.
	if err := l.Insert("customer", taggedRow(100, "post-ckpt")); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	rs := l2.RecoveryStats()
	if rs.CheckpointSeq == 0 {
		t.Fatal("recovery ignored the checkpoint")
	}
	if rs.Replayed != 1 {
		t.Fatalf("replayed %d records past the checkpoint, want 1", rs.Replayed)
	}
	want := expectedCatalog(t, len(ops))
	if err := (mirror{want}).Insert("customer", taggedRow(100, "post-ckpt")); err != nil {
		t.Fatal(err)
	}
	assertCatalogsEqual(t, l2.Catalog(), want, "checkpoint + tail")
}

// TestAutoCheckpoint: the flusher takes a checkpoint by itself once
// enough records accumulate.
func TestAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: FsyncGroup, CheckpointRecords: 5})
	if err != nil {
		t.Fatal(err)
	}
	ops := workloadOps(t)
	if n := runLogged(l, ops); n != len(ops) {
		t.Fatalf("acked %d of %d", n, len(ops))
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.Stats().Checkpoints == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if l.Stats().Checkpoints == 0 {
		t.Fatal("no automatic checkpoint")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	assertCatalogsEqual(t, l2.Catalog(), expectedCatalog(t, len(ops)), "auto checkpoint")
}

// TestCheckpointVsConcurrentDML races checkpoints against committing
// writers (run under -race in CI); afterwards recovery must see every
// acknowledged row exactly once.
func TestCheckpointVsConcurrentDML(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: FsyncGroup, SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.CreateTable(customerSchema(t), true); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	const writers, per = 4, 30
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				id := int64(w*per + i + 1)
				if err := l.Insert("customer", taggedRow(id, "c")); err != nil {
					errs <- err
					return
				}
				if err := l.Commit(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	ckptDone := make(chan struct{})
	go func() {
		defer close(ckptDone)
		for i := 0; i < 10; i++ {
			if err := l.Checkpoint(); err != nil {
				errs <- err
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	<-ckptDone
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	tbl, ok := l2.Catalog().Get("customer")
	if !ok {
		t.Fatal("customer table lost")
	}
	if tbl.Len() != writers*per {
		t.Fatalf("rows = %d, want %d", tbl.Len(), writers*per)
	}
}

// TestDurableSeqNeverDecreases: the durable watermark only moves up, while
// the flusher's group commits and public Checkpoint calls both raise it.
// A sampler reads Stats().DurableSeq throughout and fails on any drop.
func TestDurableSeqNeverDecreases(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Fsync: FsyncGroup, SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.CreateTable(customerSchema(t), true); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	const writers, per = 4, 60
	var wg sync.WaitGroup
	errs := make(chan error, writers+2)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := l.Insert("customer", taggedRow(int64(w*per+i+1), "c")); err != nil {
					errs <- err
					return
				}
				if err := l.Commit(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if err := l.Checkpoint(); err != nil {
				errs <- err
				return
			}
		}
	}()
	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		prev := l.Stats().DurableSeq
		for {
			select {
			case <-stop:
				return
			default:
			}
			cur := l.Stats().DurableSeq
			if cur < prev {
				errs <- fmt.Errorf("durable seq fell from %d to %d", prev, cur)
				return
			}
			prev = cur
		}
	}()
	wg.Wait()
	close(stop)
	<-sampled
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := l.Stats(); st.DurableSeq != st.AppendedSeq {
		t.Fatalf("durable seq %d after every commit returned, want appended seq %d", st.DurableSeq, st.AppendedSeq)
	}
}

// TestClosedLogRefusesWrites pins the fail-stop contract.
func TestClosedLogRefusesWrites(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.CreateTable(customerSchema(t), true); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	if err := l.Commit(); !errors.Is(err, ErrClosed) {
		t.Fatalf("commit after close: %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// TestInjectedWriteFailureIsSticky: after the FS fails once, the log
// refuses further work with the original cause.
func TestInjectedWriteFailureIsSticky(t *testing.T) {
	ffs := NewFaultFS()
	dir := "w"
	l, err := Open(dir, Options{FS: ffs, Fsync: FsyncAlways, CheckpointRecords: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.CreateTable(customerSchema(t), true); err != nil {
		t.Fatal(err)
	}
	if err := l.Commit(); err != nil {
		t.Fatal(err)
	}
	ffs.FailAt(ffs.Ops() + 1)
	if err := l.Insert("customer", taggedRow(1, "x")); err != nil {
		t.Fatal(err) // append is in-memory; the write fails at commit
	}
	if err := l.Commit(); !errors.Is(err, ErrInjected) {
		t.Fatalf("commit error = %v, want injected", err)
	}
	if err := l.Insert("customer", taggedRow(2, "y")); !errors.Is(err, ErrInjected) {
		t.Fatalf("append after failure = %v, want sticky injected error", err)
	}
}
