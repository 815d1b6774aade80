package value

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"
)

// The binary value codec: a kind byte, then a compact payload per kind.
// It is the one binary encoding of a Value, shared by the wire protocol's
// typed cells, the WAL's records and the checkpoint's column runs, and it
// is lossless: floats keep their IEEE bits and times their nanoseconds.
// Varints are unsigned LEB128 (encoding/binary); signed quantities are
// zigzag-folded first.
//
//	null (nothing) | bool (1 byte) | int (zigzag varint) |
//	float (8-byte IEEE 754 big-endian) | string (uvarint length, bytes) |
//	time (zigzag unix seconds, uvarint nanoseconds) |
//	duration (zigzag varint nanoseconds)

// errShortBinary reports a binary value cut short.
var errShortBinary = errors.New("value: truncated binary value")

func zigzag(i int64) uint64   { return uint64((i << 1) ^ (i >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func readUvarint(b []byte) (uint64, []byte, error) {
	x, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errShortBinary
	}
	return x, b[n:], nil
}

// AppendBinary appends the binary encoding of v.
func AppendBinary(b []byte, v Value) []byte {
	b = append(b, byte(v.Kind()))
	switch v.Kind() {
	case KindNull:
	case KindBool:
		if v.AsBool() {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	case KindInt:
		b = binary.AppendUvarint(b, zigzag(v.AsInt()))
	case KindFloat:
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(v.AsFloat()))
	case KindString:
		s := v.AsString()
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	case KindTime:
		t := v.AsTime()
		b = binary.AppendUvarint(b, zigzag(t.Unix()))
		b = binary.AppendUvarint(b, uint64(t.Nanosecond()))
	case KindDuration:
		b = binary.AppendUvarint(b, zigzag(int64(v.AsDuration())))
	}
	return b
}

// ReadBinary decodes one value, returning it and the remaining bytes.
func ReadBinary(b []byte) (Value, []byte, error) {
	if len(b) == 0 {
		return Null, nil, errShortBinary
	}
	kind, b := Kind(b[0]), b[1:]
	switch kind {
	case KindNull:
		return Null, b, nil
	case KindBool:
		if len(b) == 0 {
			return Null, nil, errShortBinary
		}
		return Bool(b[0] != 0), b[1:], nil
	case KindInt:
		u, b, err := readUvarint(b)
		if err != nil {
			return Null, nil, err
		}
		return Int(unzigzag(u)), b, nil
	case KindFloat:
		if len(b) < 8 {
			return Null, nil, errShortBinary
		}
		return Float(math.Float64frombits(binary.BigEndian.Uint64(b[:8]))), b[8:], nil
	case KindString:
		n, b, err := readUvarint(b)
		if err != nil {
			return Null, nil, err
		}
		if n > uint64(len(b)) {
			return Null, nil, errShortBinary
		}
		return Str(string(b[:n])), b[n:], nil
	case KindTime:
		sec, b, err := readUvarint(b)
		if err != nil {
			return Null, nil, err
		}
		nsec, b, err := readUvarint(b)
		if err != nil {
			return Null, nil, err
		}
		if nsec >= uint64(time.Second) {
			return Null, nil, fmt.Errorf("value: binary time nanoseconds %d out of range", nsec)
		}
		return Time(time.Unix(unzigzag(sec), int64(nsec)).UTC()), b, nil
	case KindDuration:
		u, b, err := readUvarint(b)
		if err != nil {
			return Null, nil, err
		}
		return Duration(time.Duration(unzigzag(u))), b, nil
	}
	return Null, nil, fmt.Errorf("value: unknown binary kind 0x%02x", byte(kind))
}
