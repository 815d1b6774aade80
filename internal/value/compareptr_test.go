package value

import (
	"math"
	"sort"
	"testing"
	"time"
)

// TestComparePtrAgreesWithCompare pins the pointer-based comparator to the
// canonical one across the kind matrix, nulls and NaN included.
func TestComparePtrAgreesWithCompare(t *testing.T) {
	vals := []Value{
		Null,
		Bool(false), Bool(true),
		Int(-3), Int(0), Int(42),
		Float(-0.5), Float(42), Float(math.NaN()),
		Str(""), Str("a"), Str("b"),
		Time(time.Date(1991, 10, 3, 0, 0, 0, 0, time.UTC)),
		Time(time.Date(1993, 4, 1, 0, 0, 0, 0, time.UTC)),
		Duration(time.Hour),
	}
	for _, a := range vals {
		for _, b := range vals {
			want := Compare(a, b)
			if got := ComparePtr(&a, &b); got != want {
				t.Errorf("ComparePtr(%v, %v) = %d, Compare = %d", a, b, got, want)
			}
		}
	}
}

// BenchmarkCompare measures what the pointer comparator saves over the
// by-value one: both walk the same mixed-kind slice, comparing each value
// with its neighbour.
func BenchmarkCompare(b *testing.B) {
	base := time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC)
	vals := make([]Value, 1024)
	for i := range vals {
		switch i % 5 {
		case 0:
			vals[i] = Int(int64(i % 97))
		case 1:
			vals[i] = Float(float64(i%89) / 4)
		case 2:
			vals[i] = Str(string(rune('a' + i%26)))
		case 3:
			vals[i] = Time(base.Add(time.Duration(i%61) * time.Second))
		default:
			vals[i] = Duration(time.Duration(i%53) * time.Millisecond)
		}
	}
	// Group by kind, so the neighbour is usually of the same kind, as in
	// a column run.
	sort.SliceStable(vals, func(i, j int) bool { return vals[i].kind < vals[j].kind })
	var sink int
	b.Run("Compare", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			for i := 1; i < len(vals); i++ {
				sink += Compare(vals[i-1], vals[i])
			}
		}
	})
	b.Run("ComparePtr", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			for i := 1; i < len(vals); i++ {
				sink += ComparePtr(&vals[i-1], &vals[i])
			}
		}
	})
	benchSink = sink
}

var benchSink int
