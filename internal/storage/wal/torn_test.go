package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// buildLogDir runs the workload against a real directory and returns
// the path of its single segment file; the workload's checkpoint covers
// the records before it.
func buildLogDir(t *testing.T) (dir, seg string) {
	t.Helper()
	dir = t.TempDir()
	l, err := Open(dir, Options{Fsync: FsyncAlways, CheckpointRecords: -1})
	if err != nil {
		t.Fatal(err)
	}
	ops := workloadOps(t)
	if n := runLogged(l, ops); n != len(ops) {
		t.Fatalf("acked %d of %d", n, len(ops))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") && strings.HasSuffix(e.Name(), ".log") {
			if seg != "" {
				t.Fatalf("expected one segment, found %s and %s", seg, e.Name())
			}
			seg = e.Name()
		}
	}
	if seg == "" {
		t.Fatal("no segment file written")
	}
	return dir, seg
}

// logCopy makes a fresh log directory holding dir's checkpoint and data
// as segment seg.
func logCopy(t *testing.T, dir, seg string, data []byte) string {
	t.Helper()
	sub := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "checkpoint-") {
			ckpt, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(sub, e.Name()), ckpt, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := os.WriteFile(filepath.Join(sub, seg), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return sub
}

// recordOffsets decodes the segment and returns the byte offset where
// each record starts, plus the total length.
func recordOffsets(t *testing.T, data []byte) []int {
	t.Helper()
	var offs []int
	rest := data
	off := 0
	for len(rest) > 0 {
		_, next, used, err := decodeRecord(rest)
		if err != nil {
			t.Fatalf("clean segment fails to decode at offset %d: %v", off, err)
		}
		offs = append(offs, off)
		off += used
		rest = next
	}
	return offs
}

// TestTornTailEveryByte truncates the segment at every byte offset
// inside the final record and requires recovery to succeed with exactly
// the records before it, reporting the torn length.
func TestTornTailEveryByte(t *testing.T) {
	dir, seg := buildLogDir(t)
	data, err := os.ReadFile(filepath.Join(dir, seg))
	if err != nil {
		t.Fatal(err)
	}
	offs := recordOffsets(t, data)
	if len(offs) < 2 {
		t.Fatalf("need at least 2 records, got %d", len(offs))
	}
	lastStart := offs[len(offs)-1]
	want := expectedCatalog(t, len(workloadOps(t))-1) // all but the final op
	for cut := lastStart; cut < len(data); cut++ {
		sub := logCopy(t, dir, seg, data[:cut])
		l, err := Open(sub, Options{Fsync: FsyncAlways, CheckpointRecords: -1})
		if err != nil {
			t.Fatalf("cut=%d: recovery failed: %v", cut, err)
		}
		if got, wantTorn := l.RecoveryStats().TornBytes, cut-lastStart; got != wantTorn {
			t.Fatalf("cut=%d: TornBytes=%d, want %d", cut, got, wantTorn)
		}
		assertCatalogsEqual(t, l.Catalog(), want, fmt.Sprintf("truncated at byte %d", cut))
		// The torn tail was truncated away, so the log must accept and
		// persist new appends cleanly.
		if err := l.Insert("customer", taggedRow(900, "post-torn")); err != nil {
			t.Fatalf("cut=%d: append after torn recovery: %v", cut, err)
		}
		if err := l.Commit(); err != nil {
			t.Fatalf("cut=%d: commit after torn recovery: %v", cut, err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, err := Open(sub, Options{Fsync: FsyncAlways, CheckpointRecords: -1})
		if err != nil {
			t.Fatalf("cut=%d: second recovery failed: %v", cut, err)
		}
		// Every op but the checkpoint appended one record; the torn final
		// one was replaced by the post-torn insert.
		if got, want := int(l2.Stats().AppendedSeq), len(workloadOps(t))-1; got != want {
			t.Fatalf("cut=%d: after reopen AppendedSeq=%d, want %d", cut, got, want)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMidLogCorruptionRefused flips one byte in every non-final record
// and requires recovery to refuse with a corrupt-record error rather
// than silently dropping acknowledged writes.
func TestMidLogCorruptionRefused(t *testing.T) {
	dir, seg := buildLogDir(t)
	data, err := os.ReadFile(filepath.Join(dir, seg))
	if err != nil {
		t.Fatal(err)
	}
	offs := recordOffsets(t, data)
	for i, start := range offs[:len(offs)-1] {
		mut := append([]byte(nil), data...)
		mut[start+frameHeader] ^= 0xff // corrupt the first body byte
		sub := logCopy(t, dir, seg, mut)
		_, err := Open(sub, Options{Fsync: FsyncAlways, CheckpointRecords: -1})
		if err == nil {
			t.Fatalf("record %d: recovery accepted mid-log corruption", i)
		}
		if !strings.Contains(err.Error(), "wal: corrupt record at seq") {
			t.Fatalf("record %d: error %q does not name the corrupt seq", i, err)
		}
	}
}

// TestMidSegmentTruncationRefused cuts the log in the middle — removing
// whole records before the tail — which must refuse recovery since
// later records prove the damage is not a torn tail.
func TestMidSegmentTruncationRefused(t *testing.T) {
	dir, seg := buildLogDir(t)
	data, err := os.ReadFile(filepath.Join(dir, seg))
	if err != nil {
		t.Fatal(err)
	}
	offs := recordOffsets(t, data)
	if len(offs) < 3 {
		t.Fatalf("need at least 3 records, got %d", len(offs))
	}
	// Splice record 1 out entirely: seq continuity must catch the hole.
	mut := append([]byte(nil), data[:offs[1]]...)
	mut = append(mut, data[offs[2]:]...)
	sub := logCopy(t, dir, seg, mut)
	if _, err := Open(sub, Options{Fsync: FsyncAlways, CheckpointRecords: -1}); err == nil {
		t.Fatal("recovery accepted a spliced-out record")
	} else if !strings.Contains(err.Error(), "wal: corrupt record at seq") {
		t.Fatalf("error %q does not name the corrupt seq", err)
	}
}

// TestMultiSegmentTornTail: with several segments, only the final one
// may be torn; the same cut inside an earlier segment must refuse.
func TestMultiSegmentTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Fsync: FsyncAlways, SegmentBytes: 256, CheckpointRecords: -1})
	if err != nil {
		t.Fatal(err)
	}
	ops := workloadOps(t)
	if n := runLogged(l, ops); n != len(ops) {
		t.Fatalf("acked %d", n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) < 2 {
		t.Fatalf("expected rotation, got %d segments", len(segs))
	}
	// Tearing the final segment's tail recovers.
	final := segs[len(segs)-1]
	data, err := os.ReadFile(filepath.Join(dir, final))
	if err != nil {
		t.Fatal(err)
	}
	offs := recordOffsets(t, data)
	cut := offs[len(offs)-1] + frameHeader/2
	if err := os.Truncate(filepath.Join(dir, final), int64(cut)); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{Fsync: FsyncAlways, SegmentBytes: 256, CheckpointRecords: -1})
	if err != nil {
		t.Fatalf("torn final segment should recover: %v", err)
	}
	if l2.RecoveryStats().TornBytes == 0 {
		t.Fatal("expected TornBytes > 0")
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	// Tearing an earlier segment the same way must refuse: the segments
	// after it prove records are missing.
	earlier := segs[0]
	st, err := os.Stat(filepath.Join(dir, earlier))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(dir, earlier), st.Size()-3); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Fsync: FsyncAlways, SegmentBytes: 256, CheckpointRecords: -1}); err == nil {
		t.Fatal("recovery accepted a torn non-final segment")
	} else if !strings.Contains(err.Error(), "wal: corrupt record at seq") {
		t.Fatalf("error %q does not name the corrupt seq", err)
	}
}

// readOnceFS is the real filesystem, except that reading any file a
// second time fails the test.
type readOnceFS struct {
	OsFS
	t    *testing.T
	read map[string]bool
}

func (f *readOnceFS) ReadFile(name string) ([]byte, error) {
	if f.read[name] {
		f.t.Errorf("%s read twice", filepath.Base(name))
	}
	f.read[name] = true
	return f.OsFS.ReadFile(name)
}

// TestOpenReadsEachFileOnce: recovering a checkpoint and several
// segments, the last one torn, reads every file exactly once, reports
// the snapshot load and replay separately, and resumes appending at the
// length the torn tail was truncated to.
func TestOpenReadsEachFileOnce(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Fsync: FsyncAlways, SegmentBytes: 256, CheckpointRecords: -1}
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	ops := workloadOps(t)
	if n := runLogged(l, ops); n != len(ops) {
		t.Fatalf("acked %d", n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := OsFS{}.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	final := filepath.Join(dir, names[len(names)-1])
	if !strings.HasPrefix(filepath.Base(final), "wal-") || !strings.HasPrefix(names[0], "checkpoint-") {
		t.Fatalf("want a checkpoint and segments, got %v", names)
	}
	data, err := os.ReadFile(final)
	if err != nil {
		t.Fatal(err)
	}
	offs := recordOffsets(t, data)
	if err := os.Truncate(final, int64(offs[len(offs)-1]+3)); err != nil {
		t.Fatal(err)
	}

	fsys := &readOnceFS{t: t, read: map[string]bool{}}
	opts.FS = fsys
	l, err = Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(fsys.read) != len(names) {
		t.Errorf("read %d files, want all %d of %v", len(fsys.read), len(names), names)
	}
	rs := l.RecoveryStats()
	if rs.TornBytes != 3 || rs.CheckpointSeq == 0 || rs.Replayed == 0 {
		t.Errorf("recovery stats %+v: want a checkpoint, replayed records and 3 torn bytes", rs)
	}
	if rs.SnapshotLoad <= 0 || rs.Replay <= 0 || rs.SnapshotFallback {
		t.Errorf("recovery stats %+v: want snapshot load and replay timed, no fallback", rs)
	}
	if l.segWritten != int64(offs[len(offs)-1]) {
		t.Errorf("appending resumes at byte %d, want %d", l.segWritten, offs[len(offs)-1])
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}
