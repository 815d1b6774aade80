package value_test

import (
	"math"
	"testing"
	"time"
	"unsafe"

	"repro/internal/tag"
	"repro/internal/value"
)

// TestLayoutSizes pins the representation every column run, tag set and
// batch is built from: a Value is one kind-and-nanos word, one payload word
// and a string header; a Tag adds the indicator name's header.
func TestLayoutSizes(t *testing.T) {
	if got := unsafe.Sizeof(value.Value{}); got != 32 {
		t.Errorf("unsafe.Sizeof(value.Value{}) = %d, want 32", got)
	}
	if got := unsafe.Sizeof(tag.Tag{}); got != 48 {
		t.Errorf("unsafe.Sizeof(tag.Tag{}) = %d, want 48", got)
	}
}

// roundTripTimes covers the ends of the four-digit-year range, instants
// before the epoch with sub-second parts, the largest nanosecond field,
// non-UTC locations and a reading that carries a monotonic clock.
func roundTripTimes() []time.Time {
	est := time.FixedZone("EST", -5*3600)
	return []time.Time{
		time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Time{},
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
		time.Date(1969, 12, 31, 23, 59, 59, 500000000, time.UTC),
		time.Date(1969, 12, 31, 23, 59, 59, 999999999, time.UTC),
		time.Date(1900, 6, 15, 12, 0, 0, 1, time.UTC),
		time.Unix(0, 0),
		time.Unix(-1, 1),
		time.Unix(0, 999999999),
		time.Date(1992, 1, 1, 0, 0, 0, 999999999, time.UTC),
		time.Date(1991, 10, 3, 9, 30, 0, 123456789, est),
		time.Now(),
	}
}

func TestTimeRoundTrip(t *testing.T) {
	for _, tm := range roundTripTimes() {
		v := value.Time(tm)
		got := v.AsTime()
		if got != tm.UTC() {
			t.Errorf("Time(%v).AsTime() = %v, want %v", tm, got, tm.UTC())
		}
		if again := value.Time(got); again != v {
			t.Errorf("Time(%v) re-packs to %#v, want %#v", tm, again, v)
		}
		if v.Kind() != value.KindTime {
			t.Errorf("Time(%v).Kind() = %v", tm, v.Kind())
		}
	}
}

func TestFloatRoundTrip(t *testing.T) {
	for _, f := range []float64{
		math.NaN(), math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff0000000000001),
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff),
		math.MaxFloat64, -math.MaxFloat64, 1, -2.5, 1e300,
	} {
		v := value.Float(f)
		got := v.AsFloat()
		if math.Float64bits(got) != math.Float64bits(f) {
			t.Errorf("Float(%v).AsFloat() bits = %#x, want %#x", f, math.Float64bits(got), math.Float64bits(f))
		}
		if again := value.Float(got); again != v {
			t.Errorf("Float(%v) re-packs to a different Value", f)
		}
	}
}

// TestHashAgreesWithEqual checks Hash against Equal where the layout makes
// them easy to get wrong: numerics of different kinds and signs of zero
// that Equal identifies, NaNs with different payloads (Compare makes all
// NaNs equal), and times that differ only below the second.
func TestHashAgreesWithEqual(t *testing.T) {
	sec := time.Date(1993, 4, 1, 8, 0, 0, 0, time.UTC)
	inf := math.Inf(1)
	vals := []value.Value{
		value.Int(0), value.Float(math.Copysign(0, -1)), value.Float(0), value.Bool(false), value.Duration(0),
		value.Int(1), value.Float(1), value.Bool(true),
		value.Time(sec), value.Time(sec.Add(1)), value.Time(sec.Add(999999999)), value.Time(sec.Add(time.Second)),
		value.Time(time.Unix(-1, 500000000)), value.Time(time.Unix(0, -500000000)),
		value.Float(math.NaN()), value.Float(-math.NaN()), value.Float(inf - inf), value.Float(math.Float64frombits(0x7ff0000000000001)),
	}
	for _, a := range vals {
		for _, b := range vals {
			if value.Equal(a, b) && a.Hash() != b.Hash() {
				t.Errorf("Equal(%#v, %#v) but hashes differ", a, b)
			}
		}
	}
	for _, p := range [][2]value.Value{
		{value.Int(0), value.Float(math.Copysign(0, -1))},
		{value.Float(0), value.Float(math.Copysign(0, -1))},
		{value.Int(0), value.Float(0)},
	} {
		if !value.Equal(p[0], p[1]) {
			t.Errorf("Equal(%v, %v) = false, want true", p[0], p[1])
		}
	}
	a, b := value.Time(sec), value.Time(sec.Add(1))
	if value.Equal(a, b) || a.Hash() == b.Hash() {
		t.Errorf("times 1ns apart: Equal = %v, hashes equal = %v; want false, false", value.Equal(a, b), a.Hash() == b.Hash())
	}
	// Hash is a pure function of the instant: it hashes UnixNano, so the
	// zero time and year 1 (one instant) agree, and these outputs are
	// pinned. The last of roundTripTimes, a clock reading, is left out.
	want := []uint64{
		0xae7dd9f9eebc928b, 0xae7dd9f9eebc928b, 0x41fd5cb59f13b89f, 0xb87c08b6f4e4dc35,
		0xe2632fe86d0f9c2e, 0x26e4ee6797f8e901, 0x2b3ffc7e54a90cfd, 0xef1aaf343a3c6332,
		0x39163f6b4e5004c7, 0x109a6afb96a02414, 0x1074f08dcbed9ad6,
	}
	for i, tm := range roundTripTimes()[:len(want)] {
		if got := value.Time(tm).Hash(); got != want[i] {
			t.Errorf("Time(%v).Hash() = %#x, want %#x", tm, got, want[i])
		}
	}
}

// TestCompareFnTimeAgreesWithComparePtr holds the specialized time kernel
// to the general order for constants with sub-second parts and for pairs
// that share their second.
func TestCompareFnTimeAgreesWithComparePtr(t *testing.T) {
	base := time.Date(1969, 12, 31, 23, 59, 59, 0, time.UTC)
	var vals []value.Value
	for _, ns := range []int{0, 1, 499999999, 500000000, 999999999} {
		vals = append(vals,
			value.Time(base.Add(time.Duration(ns))),
			value.Time(base.Add(time.Second+time.Duration(ns))),
			value.Time(base.Add(-time.Second+time.Duration(ns))))
	}
	vals = append(vals, value.Null, value.Int(3), value.Float(2.5), value.Str("x"), value.Duration(time.Second))
	for _, k := range vals {
		cmp := value.CompareFn(k)
		for _, v := range vals {
			if got, want := cmp(&v), value.ComparePtr(&v, &k); got != want {
				t.Errorf("CompareFn(%v)(%v) = %d, ComparePtr = %d", k, v, got, want)
			}
			if k.Kind() == value.KindTime && v.Kind() == value.KindTime {
				if got, want := value.Compare(v, k), v.AsTime().Compare(k.AsTime()); got != want {
					t.Errorf("Compare(%v, %v) = %d, time.Compare = %d", v, k, got, want)
				}
			}
		}
	}
}

// TestTimeIsNotNumeric pins the accessors a time's payload word must not
// leak through: they report zero, as they did when times had a field of
// their own.
func TestTimeIsNotNumeric(t *testing.T) {
	v := value.Time(time.Date(1993, 4, 1, 8, 0, 0, 5, time.UTC))
	if got := v.AsInt(); got != 0 {
		t.Errorf("AsInt(Time) = %d, want 0", got)
	}
	if got := v.AsFloat(); got != 0 {
		t.Errorf("AsFloat(Time) = %v, want 0", got)
	}
	if v.AsBool() {
		t.Error("AsBool(Time) = true, want false")
	}
	if got := v.AsDuration(); got != 0 {
		t.Errorf("AsDuration(Time) = %v, want 0", got)
	}
	if value.Float(2.5).AsBool() || value.Float(2.5).AsDuration() != 0 {
		t.Error("a float's bits leak through AsBool or AsDuration")
	}
	if got := value.Int(7).AsTime(); !got.IsZero() {
		t.Errorf("AsTime(Int) = %v, want the zero time", got)
	}
}

// TestHashStringsDiffer: every byte of a string reaches its hash, in each
// of the word, half-word and short-string paths: strings of up to 20
// bytes, and each with one byte changed, hash apart.
func TestHashStringsDiffer(t *testing.T) {
	const base = "abcdefghijklmnopqrst"
	seen := map[uint64]string{}
	add := func(s string) {
		h := value.Str(s).Hash()
		if prev, dup := seen[h]; dup && prev != s {
			t.Errorf("%q and %q hash alike: %#x", prev, s, h)
		}
		seen[h] = s
	}
	for n := 0; n <= len(base); n++ {
		add(base[:n])
		for i := 0; i < n; i++ {
			add(base[:i] + "\x00" + base[i+1:n])
		}
	}
}
