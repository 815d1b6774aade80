package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/value"
)

// EncBinary payload codec: varint-framed fields and typed cells. Cells
// travel as value.Value (kind byte + compact payload) rather than QQL
// literal strings, so neither side pays JSON string escaping or literal
// re-parsing. All varints are unsigned LEB128 (encoding/binary); signed
// quantities are zigzag-folded first.
//
//	request  (FrameExec):   string q
//	request  (FrameBatch):  uvarint count, count × string
//	response (FrameResult): TypedResponse
//	response (FrameBatchResult): uvarint count, count × TypedResponse
//
//	TypedResponse: uvarint n, string msg, string plan, string err,
//	               uvarint ncols, ncols × string,
//	               uvarint nrows, nrows × (uvarint ncells, ncells × cell)
//	string:        uvarint length, length × byte
//	cell:          value.AppendBinary's encoding: a kind byte, then
//	               the kind's payload

// TypedResponse is the binary-encoding response payload: the same shape as
// Response, with typed cells instead of rendered literals.
type TypedResponse struct {
	Cols []string
	Rows [][]value.Value
	N    int
	Msg  string
	Plan string
	Err  string
}

// Response converts to the wire Response used by the string-based client
// API: cells are rendered as QQL literals into Rows, and the typed cells
// are kept in Values.
func (t *TypedResponse) Response() *Response {
	r := &Response{Cols: t.Cols, N: t.N, Msg: t.Msg, Plan: t.Plan, Err: t.Err, Values: t.Rows}
	if len(t.Rows) > 0 {
		r.Rows = make([][]string, len(t.Rows))
		for i, row := range t.Rows {
			cells := make([]string, len(row))
			for j, v := range row {
				cells[j] = v.Literal()
			}
			r.Rows[i] = cells
		}
	}
	return r
}

// errShortPayload reports a truncated binary payload.
var errShortPayload = errors.New("wire: truncated binary payload")

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func readUvarint(b []byte) (uint64, []byte, error) {
	x, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errShortPayload
	}
	return x, b[n:], nil
}

func readString(b []byte) (string, []byte, error) {
	n, b, err := readUvarint(b)
	if err != nil {
		return "", nil, err
	}
	if n > uint64(len(b)) {
		return "", nil, errShortPayload
	}
	return string(b[:n]), b[n:], nil
}

// AppendRequest appends the binary FrameExec payload.
func AppendRequest(b []byte, q string) []byte { return appendString(b, q) }

// DecodeRequest decodes a binary FrameExec payload.
func DecodeRequest(b []byte) (string, error) {
	q, rest, err := readString(b)
	if err != nil {
		return "", err
	}
	if len(rest) != 0 {
		return "", fmt.Errorf("wire: %d trailing bytes after request", len(rest))
	}
	return q, nil
}

// AppendBatchRequest appends the binary FrameBatch payload.
func AppendBatchRequest(b []byte, qs []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(qs)))
	for _, q := range qs {
		b = appendString(b, q)
	}
	return b
}

// DecodeBatchRequest decodes a binary FrameBatch payload.
func DecodeBatchRequest(b []byte) ([]string, error) {
	n, b, err := readUvarint(b)
	if err != nil {
		return nil, err
	}
	if n > uint64(len(b)) { // each statement costs at least its length byte
		return nil, errShortPayload
	}
	qs := make([]string, n)
	for i := range qs {
		if qs[i], b, err = readString(b); err != nil {
			return nil, err
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after batch request", len(b))
	}
	return qs, nil
}

// AppendTypedResponse appends the binary encoding of t.
func AppendTypedResponse(b []byte, t *TypedResponse) []byte {
	b = binary.AppendUvarint(b, uint64(t.N))
	b = appendString(b, t.Msg)
	b = appendString(b, t.Plan)
	b = appendString(b, t.Err)
	b = binary.AppendUvarint(b, uint64(len(t.Cols)))
	for _, c := range t.Cols {
		b = appendString(b, c)
	}
	b = binary.AppendUvarint(b, uint64(len(t.Rows)))
	for _, row := range t.Rows {
		b = binary.AppendUvarint(b, uint64(len(row)))
		for _, v := range row {
			b = value.AppendBinary(b, v)
		}
	}
	return b
}

func readTypedResponse(b []byte) (*TypedResponse, []byte, error) {
	t := &TypedResponse{}
	n, b, err := readUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	t.N = int(n)
	if t.Msg, b, err = readString(b); err != nil {
		return nil, nil, err
	}
	if t.Plan, b, err = readString(b); err != nil {
		return nil, nil, err
	}
	if t.Err, b, err = readString(b); err != nil {
		return nil, nil, err
	}
	ncols, b, err := readUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if ncols > uint64(len(b)) {
		return nil, nil, errShortPayload
	}
	if ncols > 0 {
		t.Cols = make([]string, ncols)
		for i := range t.Cols {
			if t.Cols[i], b, err = readString(b); err != nil {
				return nil, nil, err
			}
		}
	}
	nrows, b, err := readUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if nrows > uint64(len(b)) {
		return nil, nil, errShortPayload
	}
	if nrows > 0 {
		t.Rows = make([][]value.Value, nrows)
		for i := range t.Rows {
			ncells, rest, err := readUvarint(b)
			if err != nil {
				return nil, nil, err
			}
			b = rest
			if ncells > uint64(len(b)) {
				return nil, nil, errShortPayload
			}
			row := make([]value.Value, ncells)
			for j := range row {
				if row[j], b, err = value.ReadBinary(b); err != nil {
					return nil, nil, err
				}
			}
			t.Rows[i] = row
		}
	}
	return t, b, nil
}

// DecodeTypedResponse decodes a binary FrameResult payload.
func DecodeTypedResponse(b []byte) (*TypedResponse, error) {
	t, rest, err := readTypedResponse(b)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after response", len(rest))
	}
	return t, nil
}

// AppendTypedBatch appends the binary FrameBatchResult payload.
func AppendTypedBatch(b []byte, resps []*TypedResponse) []byte {
	b = binary.AppendUvarint(b, uint64(len(resps)))
	for _, t := range resps {
		b = AppendTypedResponse(b, t)
	}
	return b
}

// DecodeTypedBatch decodes a binary FrameBatchResult payload.
func DecodeTypedBatch(b []byte) ([]*TypedResponse, error) {
	n, b, err := readUvarint(b)
	if err != nil {
		return nil, err
	}
	if n > uint64(len(b)) {
		return nil, errShortPayload
	}
	resps := make([]*TypedResponse, n)
	for i := range resps {
		if resps[i], b, err = readTypedResponse(b); err != nil {
			return nil, err
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after batch response", len(b))
	}
	return resps, nil
}
