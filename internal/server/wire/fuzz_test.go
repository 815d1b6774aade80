package wire

import (
	"bytes"
	"testing"

	"repro/internal/value"
)

// fuzzFrameMax caps payloads during fuzzing well below MaxFrameBytes so a
// random 4-byte length field cannot make ReadFrame buffer gigabytes.
const fuzzFrameMax = 1 << 16

// FuzzReadFrame drives the v2 frame decoder with arbitrary bytes. Crash-
// freedom aside, it checks the codec round-trip: any frame ReadFrame
// accepts must re-encode via AppendFrame to bytes that decode to the same
// header and payload. The committed corpus (testdata/fuzz/FuzzReadFrame)
// seeds valid frames of each type plus truncated and oversized shapes.
func FuzzReadFrame(f *testing.F) {
	seed := func(fr *Frame) { f.Add(AppendFrame(nil, fr)) }
	seed(&Frame{Version: V2, Encoding: EncBinary, Type: FrameExec, ID: 1, Payload: AppendRequest(nil, "SELECT 1")})
	seed(&Frame{Version: V2, Encoding: EncBinary, Type: FrameBatch, ID: 2, Payload: AppendBatchRequest(nil, []string{"SELECT 1", "SELECT 2"})})
	seed(&Frame{Version: V2, Encoding: EncBinary, Type: FrameResult, ID: 3})
	f.Add([]byte{Magic})                          // truncated header
	f.Add([]byte{0x00, 0x01, 0x02})               // bad magic
	f.Add(bytes.Repeat([]byte{Magic}, HeaderLen)) // insane declared length

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data), fuzzFrameMax)
		if err != nil {
			return
		}
		enc := AppendFrame(nil, fr)
		fr2, err := ReadFrame(bytes.NewReader(enc), fuzzFrameMax)
		if err != nil {
			t.Fatalf("re-decoding AppendFrame output failed: %v", err)
		}
		if fr2.Version != fr.Version || fr2.Encoding != fr.Encoding || fr2.Type != fr.Type || fr2.ID != fr.ID || !bytes.Equal(fr2.Payload, fr.Payload) {
			t.Fatalf("frame round-trip mismatch: %+v != %+v", fr2, fr)
		}
	})
}

// FuzzDecodeRequestPayloads drives the request-side payload decoders of the binary codec with the
// same arbitrary input — each must reject garbage with an error, never a
// panic or an over-read — and checks encode/decode round-trips for the
// payloads that are accepted.
func FuzzDecodeRequestPayloads(f *testing.F) {
	f.Add(AppendRequest(nil, "SELECT co_name FROM customer"))
	f.Add(AppendBatchRequest(nil, []string{"SELECT 1", "INSERT INTO t VALUES (1 @ {source: 'a'})"}))
	f.Add(AppendTypedResponse(nil, &TypedResponse{}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		if q, err := DecodeRequest(data); err == nil {
			rt, err := DecodeRequest(AppendRequest(nil, q))
			if err != nil || rt != q {
				t.Fatalf("request round-trip: %q -> %q, err=%v", q, rt, err)
			}
		}
		if qs, err := DecodeBatchRequest(data); err == nil {
			rt, err := DecodeBatchRequest(AppendBatchRequest(nil, qs))
			if err != nil || len(rt) != len(qs) {
				t.Fatalf("batch round-trip: %d -> %d stmts, err=%v", len(qs), len(rt), err)
			}
		}
		if v, _, err := value.ReadBinary(data); err == nil {
			// Re-encoding an accepted value must itself decode cleanly.
			// (Equality is not asserted: NaN payloads survive the trip but
			// compare unequal by design.)
			if _, _, err := value.ReadBinary(value.AppendBinary(nil, v)); err != nil {
				t.Fatalf("value round-trip rejected re-encoding: %v", err)
			}
		}
		_, _ = DecodeTypedResponse(data)
		_, _ = DecodeTypedBatch(data)
	})
}
