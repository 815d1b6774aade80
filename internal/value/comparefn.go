package value

import (
	"math"
	"strings"
)

// CompareFn returns a comparator specialized for the fixed right operand k,
// equivalent to func(v *Value) int { return ComparePtr(v, &k) } but with
// the kind dispatch and constant decoding hoisted out of the per-value
// loop. It exists for the batch engine's comparison kernels, which call
// the comparator once per row slot of a column run: the common case — run
// values whose kind matches the constant's — reduces to one machine
// comparison on the already-loaded field, and every other case falls back
// to ComparePtr, so the specialization can never change an ordering.
func CompareFn(k Value) func(v *Value) int {
	switch k.kind {
	case KindInt, KindBool, KindDuration:
		ki := k.i
		kf := float64(ki)
		return func(v *Value) int {
			switch v.kind {
			case KindInt, KindBool, KindDuration:
				switch {
				case v.i < ki:
					return -1
				case v.i > ki:
					return 1
				}
				return 0
			case KindFloat:
				// Mirrors compareNumeric with a non-NaN right operand.
				af := v.float()
				switch {
				case math.IsNaN(af):
					return -1
				case af < kf:
					return -1
				case af > kf:
					return 1
				}
				return 0
			default: // nulls, mixed kinds: the general ordering
				return ComparePtr(v, &k)
			}
		}
	case KindFloat:
		kf := k.float()
		kNaN := math.IsNaN(kf)
		return func(v *Value) int {
			switch v.kind {
			case KindInt, KindBool, KindDuration, KindFloat:
				af := v.AsFloat()
				aNaN := math.IsNaN(af)
				switch {
				case aNaN && kNaN:
					return 0
				case aNaN:
					return -1
				case kNaN:
					return 1
				case af < kf:
					return -1
				case af > kf:
					return 1
				}
				return 0
			default: // nulls, mixed kinds: the general ordering
				return ComparePtr(v, &k)
			}
		}
	case KindString:
		ks := k.s
		return func(v *Value) int {
			if v.kind == KindString {
				return strings.Compare(v.s, ks)
			}
			return ComparePtr(v, &k)
		}
	case KindTime:
		ks, kns := k.i, k.ns
		return func(v *Value) int {
			if v.kind == KindTime {
				return compareTime(v.i, v.ns, ks, kns)
			}
			return ComparePtr(v, &k)
		}
	default: // KindNull: no specialization beats the general ordering
		kk := k
		return func(v *Value) int { return ComparePtr(v, &kk) }
	}
}
