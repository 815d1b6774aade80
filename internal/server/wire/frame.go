package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// V2 frame layout, both directions (all integers big-endian):
//
//	offset 0   Magic (0xF7)
//	offset 1   protocol version (V2)
//	offset 2   payload encoding (EncJSON | EncBinary)
//	offset 3   frame type (FrameExec | FrameBatch | FrameResult | FrameBatchResult)
//	offset 4   request ID, uint64 — echoed on the response that answers it
//	offset 12  payload length, uint32
//	offset 16  payload
const (
	// Magic is the first byte of every v2 frame. It is not valid anywhere
	// in UTF-8 JSON text, so a stream of JSON lines fails at its first
	// byte.
	Magic byte = 0xF7
	// V2 is the current protocol version, carried in every frame header.
	V2 byte = 2

	// HeaderLen is the fixed frame header size.
	HeaderLen = 16
)

// Encoding selects how frame payloads are marshalled. Defining it as its
// own type (rather than a bare byte) makes every switch over an Encoding
// visible to the exhaustive analyzer: add a codec and the compiler-adjacent
// tooling finds every dispatch that must learn about it.
type Encoding byte

// Payload encodings.
const (
	// EncJSON marshals the payload structs as JSON, the human-readable
	// form.
	EncJSON Encoding = 0
	// EncBinary uses the compact typed-cell codec of binary.go.
	EncBinary Encoding = 1
)

// FrameType tags the payload shape of one frame. Like Encoding it is a
// defined type so type/const membership is a checkable fact.
type FrameType byte

// Frame types. Requests have the high bit clear, responses set.
const (
	// FrameExec is a request carrying one script (Request).
	FrameExec FrameType = 0x01
	// FrameBatch is a request carrying several statements (BatchRequest).
	FrameBatch FrameType = 0x02
	// FrameResult answers FrameExec with one Response.
	FrameResult FrameType = 0x81
	// FrameBatchResult answers FrameBatch with a BatchResponse.
	FrameBatchResult FrameType = 0x82
)

// ErrFrameTooLarge reports a frame whose declared payload length exceeds
// the reader's cap. ReadFrame discards the oversized payload before
// returning it, so the connection remains usable: the caller can answer
// with a structured error and keep reading.
var ErrFrameTooLarge = errors.New("wire: frame payload exceeds size cap")

// ErrBadMagic reports a frame that does not start with Magic; the stream
// is unsynchronized and the connection should be closed.
var ErrBadMagic = errors.New("wire: bad frame magic")

// Frame is one v2 protocol unit.
type Frame struct {
	Version  byte
	Encoding Encoding
	Type     FrameType
	// ID is chosen by the client per request and echoed on the response,
	// letting a pipelined client demultiplex in-flight requests.
	ID      uint64
	Payload []byte
}

// AppendFrame appends the encoded frame to buf and returns the extended
// slice.
func AppendFrame(buf []byte, f *Frame) []byte {
	var hdr [HeaderLen]byte
	hdr[0] = Magic
	hdr[1] = f.Version
	hdr[2] = byte(f.Encoding)
	hdr[3] = byte(f.Type)
	binary.BigEndian.PutUint64(hdr[4:12], f.ID)
	binary.BigEndian.PutUint32(hdr[12:16], uint32(len(f.Payload)))
	buf = append(buf, hdr[:]...)
	return append(buf, f.Payload...)
}

// WriteFrame writes one frame to w: the fixed header, then the payload
// directly — no per-frame copy of the payload. Callers stream frames
// through a bufio.Writer, so the two writes coalesce.
func WriteFrame(w io.Writer, f *Frame) error {
	var hdr [HeaderLen]byte
	hdr[0] = Magic
	hdr[1] = f.Version
	hdr[2] = byte(f.Encoding)
	hdr[3] = byte(f.Type)
	binary.BigEndian.PutUint64(hdr[4:12], f.ID)
	binary.BigEndian.PutUint32(hdr[12:16], uint32(len(f.Payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(f.Payload) == 0 {
		return nil
	}
	_, err := w.Write(f.Payload)
	return err
}

// ReadFrame reads one frame from r, capping the payload at max bytes
// (max <= 0 means MaxFrameBytes). On ErrFrameTooLarge the oversized
// payload has been consumed and the returned frame carries the header
// fields with a nil payload, so the caller may report the error in-band
// and continue reading the connection.
func ReadFrame(r io.Reader, max int) (*Frame, error) {
	if max <= 0 {
		max = MaxFrameBytes
	}
	var hdr [HeaderLen]byte
	// The magic byte is checked before the rest of the header is awaited,
	// so a stream that is not frames is refused however short its first
	// message.
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return nil, err
	}
	if hdr[0] != Magic {
		return nil, fmt.Errorf("%w: 0x%02x", ErrBadMagic, hdr[0])
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	f := &Frame{
		Version:  hdr[1],
		Encoding: Encoding(hdr[2]),
		Type:     FrameType(hdr[3]),
		ID:       binary.BigEndian.Uint64(hdr[4:12]),
	}
	length := binary.BigEndian.Uint32(hdr[12:16])
	if int64(length) > int64(max) {
		if _, err := io.CopyN(io.Discard, r, int64(length)); err != nil {
			return nil, err
		}
		return f, fmt.Errorf("%w: %d bytes > %d", ErrFrameTooLarge, length, max)
	}
	f.Payload = make([]byte, length)
	if _, err := io.ReadFull(r, f.Payload); err != nil {
		return nil, err
	}
	return f, nil
}
