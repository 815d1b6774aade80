package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"time"

	"repro/internal/storage"
)

// replay recovers the catalog: load the newest checkpoint, then apply
// every log record after its sequence, in order. A torn final record —
// the tail a crash cut mid-write — is truncated and recovery succeeds;
// a bad record with valid records after it is real corruption and
// refuses to open. Called from Open before the flusher starts, so no
// locking is needed.
func (l *Log) replay() error {
	names, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("wal: recover %s: %w", l.dir, err)
	}
	// A crash can strand a half-written checkpoint temp file; it was
	// never renamed, so it is garbage.
	for _, name := range names {
		if strings.HasSuffix(name, ".tmp") {
			if err := l.fs.Remove(join(l.dir, name)); err != nil {
				return fmt.Errorf("wal: recover: remove %s: %w", name, err)
			}
		}
	}
	var ckpt uint64
	var stale []string
	var segs []uint64
	for _, name := range names {
		if seq, ok := parseSeqName(name, "checkpoint-", ".ckpt"); ok {
			if seq > ckpt {
				if ckpt > 0 {
					stale = append(stale, ckptName(ckpt))
				}
				ckpt = seq
			} else {
				stale = append(stale, name)
			}
			continue
		}
		if seq, ok := parseSeqName(name, "wal-", ".log"); ok {
			segs = append(segs, seq)
		}
	}
	if ckpt > 0 {
		start := time.Now()
		data, err := l.fs.ReadFile(join(l.dir, ckptName(ckpt)))
		if err != nil {
			return fmt.Errorf("wal: recover: read checkpoint %d: %w", ckpt, err)
		}
		// A checkpoint written before they were binary, or by hand, is
		// a JSON document.
		var cat *storage.Catalog
		legacy := !storage.IsCheckpoint(data)
		if legacy {
			cat, err = storage.LoadCatalog(bytes.NewReader(data))
		} else {
			cat, err = storage.LoadCheckpoint(data)
		}
		if err != nil {
			// The checkpoint was fsynced before its rename became
			// visible, so this is not a crash artifact.
			return fmt.Errorf("wal: recover: checkpoint %d corrupt: %w", ckpt, err)
		}
		l.cat = cat
		l.ckptSeq.Store(ckpt)
		l.recov.CheckpointSeq = ckpt
		l.recov.SnapshotLoad = time.Since(start)
		l.recov.SnapshotFallback = legacy
	}
	replayStart := time.Now()
	// Older checkpoints are superseded; a crash between rename and prune
	// leaves them behind.
	for _, name := range stale {
		if err := l.fs.Remove(join(l.dir, name)); err != nil && !notExist(err) {
			return fmt.Errorf("wal: recover: remove %s: %w", name, err)
		}
	}
	// Segments are named by their first sequence; ReadDir sorts names
	// and the fixed-width hex keeps that numeric. Segments fully covered
	// by the checkpoint may survive a crashed prune.
	expected := uint64(0)
	for i, first := range segs {
		last := uint64(0)
		if i+1 < len(segs) {
			last = segs[i+1] - 1
		}
		if last > 0 && last <= ckpt {
			if err := l.fs.Remove(join(l.dir, segName(first))); err != nil && !notExist(err) {
				return fmt.Errorf("wal: recover: remove %s: %w", segName(first), err)
			}
			continue
		}
		if expected == 0 {
			if first > ckpt+1 {
				return fmt.Errorf("wal: recover: missing records %d..%d between checkpoint and log", ckpt+1, first-1)
			}
			expected = first
		} else if first != expected {
			return fmt.Errorf("wal: recover: segment %s starts at seq %d, want %d (missing segment)", segName(first), first, expected)
		}
		kept, err := l.replaySegment(first, i == len(segs)-1, &expected)
		if err != nil {
			return err
		}
		l.segFirsts = append(l.segFirsts, first)
		l.segWritten = kept
	}
	// If any segments survive, the log tail must reach the checkpoint
	// sequence: a partial prune only ever removes fully-covered segments
	// oldest-first, so a tail ending short of the checkpoint means
	// records between them are gone.
	if len(l.segFirsts) > 0 && expected-1 < ckpt {
		return fmt.Errorf("wal: recover: missing records %d..%d between log tail and checkpoint", expected, ckpt)
	}
	if expected == 0 {
		expected = l.ckptSeq.Load() + 1
	}
	l.nextSeq = expected
	if expected > 1 {
		l.appended.Store(expected - 1)
		l.durable.Store(expected - 1)
	}
	l.segLast = expected - 1
	l.nSegments.Store(int64(len(l.segFirsts)))
	// Reopen the last surviving segment for appending, at the length
	// its replay kept.
	if len(l.segFirsts) > 0 {
		name := segName(l.segFirsts[len(l.segFirsts)-1])
		f, err := l.fs.OpenAppend(join(l.dir, name))
		if err != nil {
			return fmt.Errorf("wal: recover: reopen %s: %w", name, err)
		}
		l.seg = f
	}
	l.recov.Replay = time.Since(replayStart)
	return nil
}

// replaySegment decodes and applies one segment's records, advancing
// *expected (the next sequence recovery requires), and returns the
// segment's length once replayed. Only the final segment may end in a
// torn record; that tail is truncated in place and not counted.
func (l *Log) replaySegment(first uint64, final bool, expected *uint64) (int64, error) {
	name := segName(first)
	data, err := l.fs.ReadFile(join(l.dir, name))
	if err != nil {
		return 0, fmt.Errorf("wal: recover: read %s: %w", name, err)
	}
	ckpt := l.ckptSeq.Load()
	rest := data
	off := 0
	for len(rest) > 0 {
		rec, next, used, derr := decodeRecord(rest)
		if derr != nil {
			if final && !anyValidRecordAfter(rest) {
				// Torn tail: the crash cut the last record mid-write.
				// Truncate so the next append starts at a clean boundary.
				if err := l.fs.Truncate(join(l.dir, name), int64(off)); err != nil {
					return 0, fmt.Errorf("wal: recover: truncate torn tail of %s: %w", name, err)
				}
				l.recov.TornBytes = len(rest)
				return int64(off), nil
			}
			return 0, fmt.Errorf("wal: corrupt record at seq %d (%s offset %d): %v", *expected, name, off, derr)
		}
		if rec.Seq != *expected {
			return 0, fmt.Errorf("wal: corrupt record at seq %d (%s offset %d): found seq %d", *expected, name, off, rec.Seq)
		}
		if rec.Seq > ckpt {
			if err := l.applyRecord(rec); err != nil {
				return 0, fmt.Errorf("wal: recover: replay seq %d: %w", rec.Seq, err)
			}
			l.recov.Replayed++
		}
		*expected = rec.Seq + 1
		rest = next
		off += used
	}
	return int64(off), nil
}

// anyValidRecordAfter reports whether any byte offset in b starts a
// record with a valid checksum. A torn tail — a single record cut by a
// crash — has none; mid-log corruption (bit rot, a truncated middle)
// leaves intact records after the damage, which must refuse recovery
// rather than silently dropping acknowledged writes.
//
// Only offsets whose 8-byte frame header is plausible (length within
// the record limit and the remaining bytes) pay for a CRC, so random
// damage scans in near-linear time instead of checksumming the whole
// remainder at every offset. Pathological data that keeps presenting
// plausible headers is bounded by a total-CRC-bytes budget; exhausting
// it classifies the tail as corrupt — the conservative direction
// (refuse to open rather than truncate possibly-acknowledged records).
func anyValidRecordAfter(b []byte) bool {
	budget := int64(256 << 20)
	for j := 1; j+frameHeader <= len(b); j++ {
		n := binary.LittleEndian.Uint32(b[j : j+4])
		if n > maxRecordBytes || int(n) > len(b)-j-frameHeader {
			continue
		}
		if budget -= int64(n) + frameHeader; budget < 0 {
			return true
		}
		if _, _, _, err := decodeRecord(b[j:]); err == nil {
			return true
		}
	}
	return false
}
