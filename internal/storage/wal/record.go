package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/tag"
	"repro/internal/value"
)

// Kind tags a logical record: one DML row mutation or one DDL statement.
type Kind byte

const (
	KindInsert Kind = iota + 1
	KindUpdate
	KindDelete
	KindCreateTable
	KindDropTable
	KindCreateIndex
	KindTagTable
)

func (k Kind) String() string {
	switch k {
	case KindInsert:
		return "insert"
	case KindUpdate:
		return "update"
	case KindDelete:
		return "delete"
	case KindCreateTable:
		return "create-table"
	case KindDropTable:
		return "drop-table"
	case KindCreateIndex:
		return "create-index"
	case KindTagTable:
		return "tag-table"
	default:
		return fmt.Sprintf("kind(%d)", byte(k))
	}
}

// Record is one logical WAL entry. Which fields are meaningful depends on
// Kind: Insert/Update carry Tuple, Update/Delete carry Row, CreateTable
// carries Def (a storage.MarshalTableDef payload, binary, or JSON in logs
// written before the binary definition), CreateIndex carries
// Target+Index, TagTable carries Indicator+TagValue.
type Record struct {
	Seq   uint64
	Kind  Kind
	Table string

	Tuple relation.Tuple
	Row   storage.RowID

	Def []byte // CreateTable: schema + strictness

	Target storage.IndexTarget // CreateIndex
	Index  storage.IndexKind   // CreateIndex

	Indicator string      // TagTable
	TagValue  value.Value // TagTable
}

// castagnoli is the CRC32C table; the same polynomial iSCSI and ext4 use
// for data checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// On-disk frame: u32-LE body length | u32-LE CRC32C(body) | body.
// The body is: uvarint seq, kind byte, uvarint len(table), table,
// kind-specific payload. Values inside tuples use value.AppendBinary, the
// codec of the wire protocol's typed cells and of checkpoints, so tagged
// cells round-trip bit-exactly.
const frameHeader = 8

// maxRecordBytes bounds a single record body so a corrupt length prefix
// cannot ask recovery to allocate gigabytes. It comfortably exceeds the
// server's max frame (a record is at most one statement's worth of data).
const maxRecordBytes = 64 << 20

func appendUvarint(b []byte, x uint64) []byte {
	return binary.AppendUvarint(b, x)
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func readUvarint(b []byte) (uint64, []byte, error) {
	x, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errTruncatedRecord
	}
	return x, b[n:], nil
}

func readString(b []byte) (string, []byte, error) {
	n, b, err := readUvarint(b)
	if err != nil {
		return "", nil, err
	}
	if uint64(len(b)) < n {
		return "", nil, errTruncatedRecord
	}
	return string(b[:n]), b[n:], nil
}

var errTruncatedRecord = fmt.Errorf("wal: truncated record body")

func appendTagSet(b []byte, s tag.Set) []byte {
	tags := s.Tags()
	b = appendUvarint(b, uint64(len(tags)))
	for _, t := range tags {
		b = appendString(b, t.Indicator)
		b = value.AppendBinary(b, t.Value)
	}
	return b
}

func readTagSet(b []byte) (tag.Set, []byte, error) {
	n, b, err := readUvarint(b)
	if err != nil {
		return tag.EmptySet, nil, err
	}
	if n == 0 {
		return tag.EmptySet, b, nil
	}
	if n > uint64(len(b)) { // each tag needs >= 1 byte
		return tag.EmptySet, nil, errTruncatedRecord
	}
	tags := make([]tag.Tag, 0, n)
	for i := uint64(0); i < n; i++ {
		var ind string
		var v value.Value
		ind, b, err = readString(b)
		if err != nil {
			return tag.EmptySet, nil, err
		}
		v, b, err = value.ReadBinary(b)
		if err != nil {
			return tag.EmptySet, nil, err
		}
		tags = append(tags, tag.Tag{Indicator: ind, Value: v})
	}
	return tag.NewSet(tags...), b, nil
}

func appendCell(b []byte, c relation.Cell) []byte {
	b = value.AppendBinary(b, c.V)
	b = appendTagSet(b, c.Tags)
	b = appendUvarint(b, uint64(len(c.Sources)))
	for _, s := range c.Sources {
		b = appendString(b, s)
	}
	b = appendUvarint(b, uint64(len(c.Meta)))
	for ind, ms := range c.Meta {
		b = appendString(b, ind)
		b = appendTagSet(b, ms)
	}
	return b
}

func readCell(b []byte) (relation.Cell, []byte, error) {
	var c relation.Cell
	var err error
	c.V, b, err = value.ReadBinary(b)
	if err != nil {
		return c, nil, err
	}
	c.Tags, b, err = readTagSet(b)
	if err != nil {
		return c, nil, err
	}
	nsrc, b, err := readUvarint(b)
	if err != nil {
		return c, nil, err
	}
	if nsrc > uint64(len(b)) {
		return c, nil, errTruncatedRecord
	}
	if nsrc > 0 {
		srcs := make([]string, 0, nsrc)
		for i := uint64(0); i < nsrc; i++ {
			var s string
			s, b, err = readString(b)
			if err != nil {
				return c, nil, err
			}
			srcs = append(srcs, s)
		}
		c.Sources = tag.NewSources(srcs...)
	}
	nmeta, b, err := readUvarint(b)
	if err != nil {
		return c, nil, err
	}
	if nmeta > uint64(len(b)) {
		return c, nil, errTruncatedRecord
	}
	for i := uint64(0); i < nmeta; i++ {
		var ind string
		var ms tag.Set
		ind, b, err = readString(b)
		if err != nil {
			return c, nil, err
		}
		ms, b, err = readTagSet(b)
		if err != nil {
			return c, nil, err
		}
		for _, t := range ms.Tags() {
			c = c.WithMetaTag(ind, t.Indicator, t.Value)
		}
	}
	return c, b, nil
}

func appendTuple(b []byte, t relation.Tuple) []byte {
	b = appendUvarint(b, uint64(len(t.Cells)))
	for _, c := range t.Cells {
		b = appendCell(b, c)
	}
	return b
}

func readTuple(b []byte) (relation.Tuple, []byte, error) {
	n, b, err := readUvarint(b)
	if err != nil {
		return relation.Tuple{}, nil, err
	}
	if n > uint64(len(b)) {
		return relation.Tuple{}, nil, errTruncatedRecord
	}
	cells := make([]relation.Cell, 0, n)
	for i := uint64(0); i < n; i++ {
		var c relation.Cell
		c, b, err = readCell(b)
		if err != nil {
			return relation.Tuple{}, nil, err
		}
		cells = append(cells, c)
	}
	return relation.Tuple{Cells: cells}, b, nil
}

// appendRecord frames rec onto b: length, CRC32C, body.
func appendRecord(b []byte, rec *Record) []byte {
	body := make([]byte, 0, 64)
	body = appendUvarint(body, rec.Seq)
	body = append(body, byte(rec.Kind))
	body = appendString(body, rec.Table)
	switch rec.Kind {
	case KindInsert:
		body = appendTuple(body, rec.Tuple)
	case KindUpdate:
		body = appendUvarint(body, uint64(rec.Row))
		body = appendTuple(body, rec.Tuple)
	case KindDelete:
		body = appendUvarint(body, uint64(rec.Row))
	case KindCreateTable:
		body = appendUvarint(body, uint64(len(rec.Def)))
		body = append(body, rec.Def...)
	case KindDropTable:
		// table name only
	case KindCreateIndex:
		body = appendString(body, rec.Target.Attr)
		body = appendString(body, rec.Target.Indicator)
		body = append(body, byte(rec.Index))
	case KindTagTable:
		body = appendString(body, rec.Indicator)
		body = value.AppendBinary(body, rec.TagValue)
	default:
		// Unreachable: records are built by Log methods with fixed kinds.
	}
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(body, castagnoli))
	b = append(b, hdr[:]...)
	return append(b, body...)
}

// decodeRecord parses one framed record from the front of b, returning
// the record, the remaining bytes, and the number of bytes consumed.
// A nil error with rec == nil never happens; an error distinguishes
// "frame damaged" (CRC/length) from "body malformed" only by message —
// recovery treats both as corruption at that offset.
func decodeRecord(b []byte) (*Record, []byte, int, error) {
	if len(b) < frameHeader {
		return nil, nil, 0, fmt.Errorf("wal: short frame header (%d bytes)", len(b))
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	sum := binary.LittleEndian.Uint32(b[4:8])
	if n > maxRecordBytes {
		return nil, nil, 0, fmt.Errorf("wal: record length %d exceeds limit", n)
	}
	if uint32(len(b)-frameHeader) < n {
		return nil, nil, 0, fmt.Errorf("wal: short record body (%d of %d bytes)", len(b)-frameHeader, n)
	}
	body := b[frameHeader : frameHeader+int(n)]
	if crc32.Checksum(body, castagnoli) != sum {
		return nil, nil, 0, fmt.Errorf("wal: record checksum mismatch")
	}
	rec, err := decodeBody(body)
	if err != nil {
		return nil, nil, 0, err
	}
	used := frameHeader + int(n)
	return rec, b[used:], used, nil
}

func decodeBody(body []byte) (*Record, error) {
	rec := &Record{}
	var err error
	rec.Seq, body, err = readUvarint(body)
	if err != nil {
		return nil, err
	}
	if len(body) < 1 {
		return nil, errTruncatedRecord
	}
	rec.Kind = Kind(body[0])
	body = body[1:]
	rec.Table, body, err = readString(body)
	if err != nil {
		return nil, err
	}
	switch rec.Kind {
	case KindInsert:
		rec.Tuple, body, err = readTuple(body)
	case KindUpdate:
		var row uint64
		row, body, err = readUvarint(body)
		if err == nil {
			rec.Row = storage.RowID(row)
			rec.Tuple, body, err = readTuple(body)
		}
	case KindDelete:
		var row uint64
		row, body, err = readUvarint(body)
		rec.Row = storage.RowID(row)
	case KindCreateTable:
		var n uint64
		n, body, err = readUvarint(body)
		if err == nil {
			if n > uint64(len(body)) {
				err = errTruncatedRecord
			} else {
				rec.Def = append([]byte(nil), body[:n]...)
				body = body[n:]
			}
		}
	case KindDropTable:
		// table name only
	case KindCreateIndex:
		rec.Target.Attr, body, err = readString(body)
		if err == nil {
			rec.Target.Indicator, body, err = readString(body)
		}
		if err == nil {
			if len(body) < 1 {
				err = errTruncatedRecord
			} else {
				rec.Index = storage.IndexKind(body[0])
				body = body[1:]
			}
		}
	case KindTagTable:
		rec.Indicator, body, err = readString(body)
		if err == nil {
			rec.TagValue, body, err = value.ReadBinary(body)
		}
	default:
		return nil, fmt.Errorf("wal: unknown record kind %d", byte(rec.Kind))
	}
	if err != nil {
		return nil, err
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("wal: %d trailing bytes after %s record", len(body), rec.Kind)
	}
	return rec, nil
}
