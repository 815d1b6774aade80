package value_test

import (
	"math"
	"testing"
	"time"

	"repro/internal/value"
)

// unixToInternal is the number of seconds from year 1 to 1970, the offset
// time.Time adds to unix seconds to get its own seconds count.
const unixToInternal = 62135596800

// FuzzValueRoundTrip checks the (seconds, nanos) and IEEE-bits layouts:
// every constructor's value rebuilds itself from its accessor, two times
// compare as time.Time.Compare does, and Equal values hash equally.
func FuzzValueRoundTrip(f *testing.F) {
	f.Add(int64(0), uint32(0), int64(0), uint32(1), uint64(0), "")
	f.Add(int64(-1), uint32(500000000), int64(-1), uint32(999999999), math.Float64bits(math.Copysign(0, -1)), "a")
	f.Add(int64(-62135596800), uint32(0), int64(253402300799), uint32(999999999), math.Float64bits(math.NaN()), "zz")
	f.Add(int64(694224000), uint32(1), int64(694224000), uint32(0), math.Float64bits(694224000), "1992")
	f.Fuzz(func(t *testing.T, sec int64, nanos uint32, sec2 int64, nanos2 uint32, bits uint64, s string) {
		ta := time.Unix(sec, int64(nanos%1e9))
		tb := time.Unix(sec2, int64(nanos2%1e9))
		fl := math.Float64frombits(bits)

		for _, tm := range []time.Time{ta, tb} {
			v := value.Time(tm)
			if got := v.AsTime(); got != tm.UTC() {
				t.Fatalf("Time(%v).AsTime() = %v", tm, got)
			}
			if again := value.Time(v.AsTime()); again != v {
				t.Fatalf("Time(%v) re-packs to a different Value", tm)
			}
		}
		if v := value.Float(fl); value.Float(v.AsFloat()) != v || math.Float64bits(v.AsFloat()) != bits {
			t.Fatalf("Float(%#x) does not round-trip", bits)
		}
		if v := value.Str(s); value.Str(v.AsString()) != v {
			t.Fatalf("Str(%q) does not round-trip", s)
		}
		if v := value.Int(sec); value.Int(v.AsInt()) != v {
			t.Fatalf("Int(%d) does not round-trip", sec)
		}
		if v := value.Duration(time.Duration(sec)); value.Duration(v.AsDuration()) != v {
			t.Fatalf("Duration(%d) does not round-trip", sec)
		}

		// time.Time counts seconds from year 1 in an int64, so it orders
		// only unix seconds whose offset to year 1 does not overflow.
		inRange := func(sec int64) bool { return sec <= math.MaxInt64-unixToInternal }
		sameSec := time.Unix(sec, int64(nanos2%1e9))
		for _, p := range [][2]time.Time{{ta, tb}, {tb, ta}, {ta, sameSec}, {sameSec, ta}} {
			if !inRange(p[0].Unix()) || !inRange(p[1].Unix()) {
				continue
			}
			if got, want := value.Compare(value.Time(p[0]), value.Time(p[1])), p[0].Compare(p[1]); got != want {
				t.Fatalf("Compare(%v, %v) = %d, time.Compare = %d", p[0], p[1], got, want)
			}
		}

		vals := []value.Value{
			value.Time(ta), value.Time(tb), value.Time(sameSec),
			value.Float(fl), value.Float(-fl), value.Float(float64(sec)),
			value.Int(sec), value.Int(int64(fl)), value.Duration(time.Duration(sec)), value.Bool(sec&1 == 1),
			value.Str(s), value.Null,
		}
		for i := range vals {
			for j := range vals {
				a, b := &vals[i], &vals[j]
				if value.EqualPtr(a, b) && a.Hash() != b.Hash() {
					t.Fatalf("Equal(%#v, %#v) but hashes differ", *a, *b)
				}
			}
		}
	})
}
