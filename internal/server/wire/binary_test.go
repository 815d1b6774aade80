package wire

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/value"
)

// sampleValues covers every kind with awkward payloads: quoted strings,
// t'...'-style times with nanoseconds, pre-epoch times, extremes.
func sampleValues() []value.Value {
	return []value.Value{
		value.Null,
		value.Bool(true),
		value.Bool(false),
		value.Int(0),
		value.Int(-1),
		value.Int(math.MaxInt64),
		value.Int(math.MinInt64),
		value.Float(0),
		value.Float(-1.5),
		value.Float(math.MaxFloat64),
		value.Float(math.SmallestNonzeroFloat64),
		value.Float(math.Inf(1)),
		value.Float(math.Inf(-1)),
		value.Float(math.NaN()),
		value.Str(""),
		value.Str("plain"),
		value.Str("it's got 'quotes', a \" and a \\ backslash"),
		value.Str("newline\nand\ttab"),
		value.Str("unicode: 世界 — ümlaut"),
		value.Str(strings.Repeat("x", 10_000)),
		value.Time(time.Date(1991, 10, 3, 0, 0, 0, 0, time.UTC)),
		value.Time(time.Date(1969, 12, 31, 23, 59, 59, 999999999, time.UTC)),
		value.Time(time.Unix(0, 0).UTC()),
		value.Time(time.Date(2262, 1, 1, 12, 34, 56, 789, time.UTC)),
		value.Duration(0),
		value.Duration(-90 * time.Minute),
		value.Duration(720 * time.Hour),
		value.Duration(time.Duration(math.MaxInt64)),
	}
}

func TestValueRoundTrip(t *testing.T) {
	for _, v := range sampleValues() {
		buf := value.AppendBinary(nil, v)
		got, rest, err := value.ReadBinary(buf)
		if err != nil {
			t.Fatalf("value.ReadBinary(%v): %v", v, err)
		}
		if len(rest) != 0 {
			t.Errorf("value.ReadBinary(%v): %d trailing bytes", v, len(rest))
		}
		if got.Kind() != v.Kind() {
			t.Errorf("kind drift: %v -> %v", v.Kind(), got.Kind())
		}
		if !value.Equal(got, v) {
			t.Errorf("value drift: %v -> %v", v, got)
		}
		// Times must survive to the instant, not just Compare-equality.
		if v.Kind() == value.KindTime && !got.AsTime().Equal(v.AsTime()) {
			t.Errorf("time drift: %v -> %v", v.AsTime(), got.AsTime())
		}
	}
}

func TestValueStreamRoundTrip(t *testing.T) {
	// All samples concatenated decode back in order from one buffer.
	vals := sampleValues()
	var buf []byte
	for _, v := range vals {
		buf = value.AppendBinary(buf, v)
	}
	for i, v := range vals {
		var got value.Value
		var err error
		got, buf, err = value.ReadBinary(buf)
		if err != nil {
			t.Fatalf("value %d: %v", i, err)
		}
		if !value.Equal(got, v) {
			t.Errorf("value %d drift: %v -> %v", i, v, got)
		}
	}
	if len(buf) != 0 {
		t.Errorf("%d trailing bytes", len(buf))
	}
}

func responsesEqual(a, b *TypedResponse) bool {
	if a.N != b.N || a.Msg != b.Msg || a.Plan != b.Plan || a.Err != b.Err ||
		len(a.Cols) != len(b.Cols) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Cols {
		if a.Cols[i] != b.Cols[i] {
			return false
		}
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return false
		}
		for j := range a.Rows[i] {
			if a.Rows[i][j].Kind() != b.Rows[i][j].Kind() || !value.Equal(a.Rows[i][j], b.Rows[i][j]) {
				return false
			}
		}
	}
	return true
}

func TestTypedResponseRoundTrip(t *testing.T) {
	vals := sampleValues()
	cases := []*TypedResponse{
		{},
		{N: 3, Msg: "inserted 3 row(s)"},
		{Err: "qql: unknown table \"nope\"", N: 1},
		{Plan: "TableScan(customer)\n  Project(co_name)"},
		{
			N:    1,
			Cols: []string{"co_name", "employees", "since", "stale"},
			Rows: [][]value.Value{
				{value.Str("Fruit Co"), value.Int(4004), value.Time(time.Date(1991, 10, 3, 0, 0, 0, 0, time.UTC)), value.Bool(false)},
				{value.Str("Nut Co"), value.Int(700), value.Null, value.Bool(true)},
			},
		},
		// Ragged rows and every sample value in one column.
		{Cols: []string{"v"}, Rows: [][]value.Value{vals, vals[:3], {}, vals[5:9]}},
	}
	for i, tr := range cases {
		buf := AppendTypedResponse(nil, tr)
		got, err := DecodeTypedResponse(buf)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !responsesEqual(tr, got) {
			t.Errorf("case %d drift:\n in: %+v\nout: %+v", i, tr, got)
		}
	}
}

func TestTypedResponseRender(t *testing.T) {
	tr := &TypedResponse{
		N:    1,
		Cols: []string{"s", "t"},
		Rows: [][]value.Value{{
			value.Str("it's"),
			value.Time(time.Date(1991, 10, 3, 0, 0, 0, 0, time.UTC)),
		}},
	}
	r := tr.Response()
	if r.Rows[0][0] != "'it''s'" {
		t.Errorf("string literal = %q", r.Rows[0][0])
	}
	if r.Rows[0][1] != "t'1991-10-03T00:00:00Z'" {
		t.Errorf("time literal = %q", r.Rows[0][1])
	}
	if len(r.Values) != 1 || !value.Equal(r.Values[0][0], value.Str("it's")) {
		t.Errorf("typed values not carried: %+v", r.Values)
	}
}

func TestBatchRoundTrip(t *testing.T) {
	qs := []string{"SELECT 1", "", "INSERT INTO t VALUES ('it''s', t'1991-10-03T00:00:00Z')"}
	got, err := DecodeBatchRequest(AppendBatchRequest(nil, qs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(qs) {
		t.Fatalf("len = %d, want %d", len(got), len(qs))
	}
	for i := range qs {
		if got[i] != qs[i] {
			t.Errorf("stmt %d = %q, want %q", i, got[i], qs[i])
		}
	}

	resps := []*TypedResponse{
		{N: 1, Msg: "ok"},
		{Err: "boom"},
		{Cols: []string{"n"}, Rows: [][]value.Value{{value.Int(42)}}, N: 1},
	}
	dec, err := DecodeTypedBatch(AppendTypedBatch(nil, resps))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(resps) {
		t.Fatalf("len = %d, want %d", len(dec), len(resps))
	}
	for i := range resps {
		if !responsesEqual(resps[i], dec[i]) {
			t.Errorf("resp %d drift: %+v -> %+v", i, resps[i], dec[i])
		}
	}
}

func TestRequestRoundTrip(t *testing.T) {
	for _, q := range []string{"", "SELECT 1", "multi\nline 'quoted' t'1991-10-03T00:00:00Z'"} {
		got, err := DecodeRequest(AppendRequest(nil, q))
		if err != nil || got != q {
			t.Errorf("request %q -> %q, %v", q, got, err)
		}
	}
}

func TestDecodeRejectsTrailingAndTruncated(t *testing.T) {
	buf := AppendTypedResponse(nil, &TypedResponse{Msg: "ok"})
	if _, err := DecodeTypedResponse(append(buf, 0xFF)); err == nil {
		t.Error("trailing byte accepted")
	}
	for cut := 1; cut < len(buf); cut++ {
		if _, err := DecodeTypedResponse(buf[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// A length prefix pointing past the payload must error, not allocate.
	if _, err := DecodeBatchRequest([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x0F}); err == nil {
		t.Error("absurd batch count accepted")
	}
}

// FuzzDecodeTypedResponse asserts the decoder never panics on arbitrary
// bytes and that anything it accepts re-encodes to an equal response.
func FuzzDecodeTypedResponse(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendTypedResponse(nil, &TypedResponse{Msg: "ok", N: 2}))
	f.Add(AppendTypedResponse(nil, &TypedResponse{
		Cols: []string{"v"},
		Rows: [][]value.Value{sampleValues()},
	}))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := DecodeTypedResponse(data)
		if err != nil {
			return
		}
		again, err := DecodeTypedResponse(AppendTypedResponse(nil, tr))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !responsesEqual(tr, again) {
			t.Fatalf("re-encode drift:\n in: %+v\nout: %+v", tr, again)
		}
	})
}

// FuzzValueRoundTrip drives the cell codec from primitive components.
func FuzzValueRoundTrip(f *testing.F) {
	f.Add(int64(42), "it's", 3.14, int64(686448000), int64(12345))
	f.Add(int64(math.MinInt64), "", math.Inf(-1), int64(-1), int64(math.MaxInt64))
	f.Fuzz(func(t *testing.T, i int64, s string, fl float64, sec int64, dur int64) {
		vals := []value.Value{
			value.Int(i),
			value.Str(s),
			value.Float(fl),
			value.Time(time.Unix(sec, i%int64(time.Second)).UTC()),
			value.Duration(time.Duration(dur)),
		}
		for _, v := range vals {
			got, rest, err := value.ReadBinary(value.AppendBinary(nil, v))
			if err != nil || len(rest) != 0 {
				t.Fatalf("round trip %v: %v, %d rest", v, err, len(rest))
			}
			if got.Kind() != v.Kind() || !value.Equal(got, v) {
				t.Fatalf("drift: %v -> %v", v, got)
			}
		}
	})
}
