// Package wire defines the qqld wire protocol, v2: length-prefixed frames,
// each carrying a version byte, a payload encoding (EncJSON or EncBinary),
// a frame type, and a client-chosen request ID. Because responses are
// tagged with the ID of the request they answer, a client may pipeline many
// requests on one socket; the server executes them in arrival order per
// connection and streams the responses back. Every frame starts with Magic
// (0xF7), which can never begin JSON text, so a client writing anything
// else — a line of JSON, say — is refused at its first byte with one ID-0
// error frame.
//
// A request payload is either a Request (FrameExec: one script) or a
// BatchRequest (FrameBatch: several statements executed in order with
// per-statement results). A response payload is a Response or a
// BatchResponse. Under EncJSON payloads are the JSON marshalling of those
// structs; under EncBinary they are the compact codec of binary.go, which
// carries typed cells (varint-framed columns, value.Value cells) instead of
// re-parsed QQL literal strings.
//
// A script may contain several statements; its Response carries the last
// relation produced (cols/rows), or the last DDL/DML message when no
// statement returned rows, plus the EXPLAIN plan text when the final
// statement was an EXPLAIN. On error the response has err set and the other
// fields describe whatever completed before the failure. Cell values in the
// string form are rendered as QQL literals (value.Literal), so strings come
// back single-quoted and times as t'...' — text that parses back to an
// equal value.
package wire

import "repro/internal/value"

// Request is one client->server message: a QQL script.
type Request struct {
	Q string `json:"q"`
}

// BatchRequest is a client->server message carrying several statements
// to execute in order on the connection's session, with one Response per
// statement. Batching amortizes the per-request round-trip: an ingest
// client ships hundreds of INSERTs in one frame.
type BatchRequest struct {
	Qs []string `json:"qs"`
}

// Response is one server->client message.
type Response struct {
	Cols []string   `json:"cols,omitempty"`
	Rows [][]string `json:"rows,omitempty"`
	// N is the number of statements executed successfully.
	N    int    `json:"n,omitempty"`
	Msg  string `json:"msg,omitempty"`
	Plan string `json:"plan,omitempty"`
	Err  string `json:"err,omitempty"`
	// Values holds the typed cells when the response arrived in EncBinary;
	// Rows is rendered from it (value.Literal) so the string API is
	// encoding-agnostic. Never serialized: JSON responses carry only Rows.
	Values [][]value.Value `json:"-"`
}

// BatchResponse answers a BatchRequest: Resps[i] answers Qs[i].
type BatchResponse struct {
	Resps []Response `json:"resps"`
}

// MaxFrameBytes bounds one frame payload in either direction (4 MiB).
// The server substitutes a structured error Response for results that would
// exceed the cap (or the stricter server.Config.MaxResultBytes), keeping
// the connection usable.
const MaxFrameBytes = 4 << 20
