// Package value implements the typed scalar values that flow through the
// data quality engine: attribute values, quality indicator values, and the
// constants appearing in QQL expressions.
//
// A Value is a small immutable struct of 32 bytes. Go's == on two Values
// compares their representations: floats compare by IEEE bits, so NaN ==
// NaN and -0 != +0 under ==. Equal is the semantic comparison; use it (or
// EqualPtr) rather than == or a Value map key.
//
// The package defines a total order across comparable kinds (numeric
// kinds compare with each other; all other cross-kind comparisons order by
// kind rank so that sorting heterogeneous columns is deterministic), a
// hash that agrees with Equal, used by hash joins, grouping and the
// storage key tables, and parsing/formatting
// used by the QQL lexer and the renderers.
package value

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the scalar types supported by the engine.
type Kind uint8

const (
	// KindNull is the absence of a value. Null compares less than
	// everything and equal to itself (SQL three-valued logic is handled
	// at the expression layer, not here).
	KindNull Kind = iota
	// KindBool is a boolean.
	KindBool
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindFloat is a 64-bit IEEE float.
	KindFloat
	// KindString is an immutable UTF-8 string.
	KindString
	// KindTime is an absolute instant (stored UTC, second precision is
	// not enforced; callers may carry nanoseconds).
	KindTime
	// KindDuration is a signed duration, used for ages and timeliness
	// thresholds.
	KindDuration
)

var kindNames = [...]string{
	KindNull:     "null",
	KindBool:     "bool",
	KindInt:      "int",
	KindFloat:    "float",
	KindString:   "string",
	KindTime:     "time",
	KindDuration: "duration",
}

// String returns the lower-case name of the kind ("int", "string", ...).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseKind maps a kind name (as written in QQL CREATE TABLE statements)
// to a Kind. It accepts the canonical names and common SQL aliases.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(s) {
	case "null":
		return KindNull, nil
	case "bool", "boolean":
		return KindBool, nil
	case "int", "integer", "bigint":
		return KindInt, nil
	case "float", "double", "real":
		return KindFloat, nil
	case "string", "text", "varchar":
		return KindString, nil
	case "time", "timestamp", "datetime":
		return KindTime, nil
	case "duration", "interval":
		return KindDuration, nil
	}
	return KindNull, fmt.Errorf("value: unknown kind %q", s)
}

// Value is an immutable scalar. The zero Value is Null.
type Value struct {
	kind Kind
	ns   int32  // time: nanoseconds within the second, in [0, 1e9)
	i    int64  // int, bool (0/1), duration (ns), float (IEEE bits), time (unix seconds)
	s    string // string
}

// Null is the null value.
var Null = Value{}

// Bool returns a boolean value.
func Bool(b bool) Value {
	var i int64
	if b {
		i = 1
	}
	return Value{kind: KindBool, i: i}
}

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, i: i} }

// Float returns a float value.
func Float(f float64) Value { return Value{kind: KindFloat, i: int64(math.Float64bits(f))} }

// String_ returns a string value. (Named with a trailing underscore because
// String is the fmt.Stringer method on Value.)
func String_(s string) Value { return Value{kind: KindString, s: s} }

// Str is a shorter alias for String_.
func Str(s string) Value { return String_(s) }

// Time returns a time value, normalized to UTC.
func Time(t time.Time) Value {
	return Value{kind: KindTime, i: t.Unix(), ns: int32(t.Nanosecond())}
}

// Duration returns a duration value.
func Duration(d time.Duration) Value { return Value{kind: KindDuration, i: int64(d)} }

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is Null.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsBool returns the boolean payload; it is only meaningful for KindBool.
// It reports false for floats and times, whose i is not a truth value.
func (v Value) AsBool() bool {
	switch v.kind {
	case KindFloat, KindTime:
		return false
	default:
		return v.i != 0
	}
}

// AsInt returns the integer payload for KindInt, or a truncated conversion
// for KindFloat and KindBool. It returns 0 for KindTime.
func (v Value) AsInt() int64 {
	switch v.kind {
	case KindFloat:
		return int64(v.float())
	case KindTime:
		return 0
	default:
		return v.i
	}
}

// AsFloat returns the numeric payload widened to float64 (KindInt,
// KindFloat, KindBool and KindDuration are numeric). It returns 0 for
// KindTime.
func (v Value) AsFloat() float64 {
	switch v.kind {
	case KindFloat:
		return v.float()
	case KindTime:
		return 0
	default:
		return float64(v.i)
	}
}

// AsString returns the string payload; it is only meaningful for KindString.
func (v Value) AsString() string { return v.s }

// AsTime returns the time payload, in UTC; it is only meaningful for
// KindTime.
func (v Value) AsTime() time.Time {
	if v.kind != KindTime {
		return time.Time{}
	}
	return time.Unix(v.i, int64(v.ns)).UTC()
}

// AsDuration returns the duration payload; it is only meaningful for
// KindDuration. It returns 0 for floats and times.
func (v Value) AsDuration() time.Duration {
	switch v.kind {
	case KindFloat, KindTime:
		return 0
	default:
		return time.Duration(v.i)
	}
}

// float decodes a KindFloat payload.
func (v *Value) float() float64 { return math.Float64frombits(uint64(v.i)) }

// Numeric reports whether the value participates in numeric comparison and
// arithmetic (int, float, bool, duration).
func (v Value) Numeric() bool {
	switch v.kind {
	case KindInt, KindFloat, KindBool, KindDuration:
		return true
	default: // null, string, time
		return false
	}
}

// comparisonRank orders kinds for cross-kind comparisons: null < numerics <
// string < time. Numeric kinds share a rank so they compare by magnitude.
func comparisonRank(k Kind) int {
	switch k {
	case KindNull:
		return 0
	case KindBool, KindInt, KindFloat, KindDuration:
		return 1
	case KindString:
		return 2
	case KindTime:
		return 3
	}
	return 4
}

// Compare defines a total order over values: it returns -1, 0, or +1.
// Nulls sort first; numeric kinds compare by magnitude (int vs. float
// compares exactly when both fit); strings compare lexicographically; times
// chronologically. Values of non-comparable kind pairs order by kind rank.
func Compare(a, b Value) int { return ComparePtr(&a, &b) }

func compareNumeric(a, b Value) int {
	if a.kind == KindFloat || b.kind == KindFloat {
		af, bf := a.AsFloat(), b.AsFloat()
		// NaN sorts before all other floats so ordering stays total.
		an, bn := math.IsNaN(af), math.IsNaN(bf)
		switch {
		case an && bn:
			return 0
		case an:
			return -1
		case bn:
			return 1
		case af < bf:
			return -1
		case af > bf:
			return 1
		}
		return 0
	}
	switch {
	case a.i < b.i:
		return -1
	case a.i > b.i:
		return 1
	}
	return 0
}

// Equal reports whether a and b compare equal under Compare.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// ComparePtr is the one implementation of the total order, taken through
// pointers so hot comparison loops — compiled predicates, sort keys — skip
// copying the operands (Value is 32 bytes: a kind and nanoseconds word, an
// int64 payload and a string header; the copies dominate tight loops).
// Compare delegates here, so the two can never diverge.
func ComparePtr(a, b *Value) int {
	ra, rb := comparisonRank(a.kind), comparisonRank(b.kind)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch ra {
	case 0:
		return 0
	case 1:
		if a.kind == KindFloat || b.kind == KindFloat {
			return compareNumeric(*a, *b)
		}
		switch {
		case a.i < b.i:
			return -1
		case a.i > b.i:
			return 1
		}
		return 0
	case 2:
		return strings.Compare(a.s, b.s)
	case 3:
		return compareTime(a.i, a.ns, b.i, b.ns)
	}
	return 0
}

// compareTime orders two times given as (unix seconds, nanoseconds).
func compareTime(as int64, ans int32, bs int64, bns int32) int {
	switch {
	case as < bs:
		return -1
	case as > bs:
		return 1
	case ans < bns:
		return -1
	case ans > bns:
		return 1
	}
	return 0
}

// EqualPtr is Equal through pointers, for per-row loops (see ComparePtr).
func EqualPtr(a, b *Value) bool { return ComparePtr(a, b) == 0 }

// Less reports whether a sorts strictly before b.
func Less(a, b Value) bool { return Compare(a, b) < 0 }

// LessPtr is Less through pointers, for per-row loops (see ComparePtr).
func LessPtr(a, b *Value) bool { return ComparePtr(a, b) < 0 }

// Hash returns a hash of the value such that Equal values hash equally:
// numeric kinds hash through one canonical form (the int64 of an integral
// float64 widening, else the float's bits with every NaN alike), so
// Int(2), Float(2), Bool-as-1 and -0/0 agree, and a time hashes its
// UnixNano, so times equal to the nanosecond agree. It is a pure, unseeded
// function of the value. A kind tag and then the value's words are mixed
// in eight bytes per step (see hashString), and a final avalanche makes
// every bit of the result depend on every input bit, so tables that mask
// the low bits spread well.
func (v Value) Hash() uint64 {
	switch v.kind {
	case KindNull:
		// The tag alone, below.
	case KindBool, KindInt, KindDuration, KindFloat:
		f := v.AsFloat()
		if f == math.Trunc(f) && f >= math.MinInt64 && f < 0x1p63 {
			return hashFinish(hashWord(hashNumInt, uint64(int64(f))))
		}
		if f != f {
			// Compare makes every NaN equal, whatever its payload.
			f = math.NaN()
		}
		return hashFinish(hashWord(hashNumFloat, math.Float64bits(f)))
	case KindString:
		return hashString(v.s)
	case KindTime:
		// time.Time.UnixNano's arithmetic, wraparound included.
		return hashFinish(hashWord(hashTime, uint64(v.i*1e9+int64(v.ns))))
	}
	return hashFinish(hashNull)
}

// Hash kind tags: the starting state for each canonical form.
const (
	hashNull uint64 = iota + 0x5a0c1d2e3f405162
	hashNumInt
	hashNumFloat
	hashStr
	hashTime
)

// hashWord mixes one 8-byte word into h. Both steps are bijections, so
// distinct words from one state give distinct states.
func hashWord(h, x uint64) uint64 {
	h = (h ^ x) * 0x9e3779b97f4a7c15
	return h ^ h>>29
}

// hashFinish is MurmurHash3's 64-bit finalizer.
func hashFinish(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

// hashString mixes in the length, then the bytes eight at a time, the last
// word overlapping the one before it. A string of four to eight bytes is
// one word of two overlapping halves, and a shorter one its first, middle
// and last bytes: with the length mixed in, every byte counts.
func hashString(s string) uint64 {
	n := len(s)
	h := hashWord(hashStr, uint64(n))
	switch {
	case n > 8:
		for i := 0; i+8 < n; i += 8 {
			h = hashWord(h, le64(s[i:]))
		}
		h = hashWord(h, le64(s[n-8:]))
	case n >= 4:
		h = hashWord(h, le32(s)<<32|le32(s[n-4:]))
	case n > 0:
		h = hashWord(h, uint64(s[0])<<16|uint64(s[n>>1])<<8|uint64(s[n-1]))
	}
	return hashFinish(h)
}

// le64 reads s's first eight bytes as a little-endian word.
func le64(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// le32 reads s's first four bytes as a little-endian word.
func le32(s string) uint64 {
	_ = s[3]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24
}

// String renders the value for human output: null, true/false, decimal
// numbers, bare strings, RFC3339 times, and Go duration syntax.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindBool:
		return strconv.FormatBool(v.AsBool())
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.float(), 'g', -1, 64)
	case KindString:
		return v.s
	case KindTime:
		return v.AsTime().Format(time.RFC3339)
	case KindDuration:
		return time.Duration(v.i).String()
	}
	return fmt.Sprintf("value(kind=%d)", v.kind)
}

// Literal renders the value as a QQL literal that parses back to an Equal
// value: strings are single-quoted with ” escaping, times are quoted
// RFC3339 prefixed with t, durations with d.
func (v Value) Literal() string {
	switch v.kind {
	case KindString:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case KindTime:
		return "t'" + v.AsTime().Format(time.RFC3339Nano) + "'"
	case KindDuration:
		return "d'" + time.Duration(v.i).String() + "'"
	default:
		return v.String()
	}
}

// SameLiterals reports whether two key rows' joined literals match: no
// literal contains the 0 byte outside a quoted string and a quoted string
// delimits itself, so joined literals match exactly when each pair does.
func SameLiterals(a, b []Value) bool {
	for i := range a {
		if !SameLiteral(&a[i], &b[i]) {
			return false
		}
	}
	return true
}

// SameLiteral reports whether a.Literal() == b.Literal() without building
// either string. Within a kind that is Equal, except that a float's sign
// of zero prints (-0 is not 0) and every NaN prints alike. Across kinds
// only an int and a float can print alike — Float(1) prints as 1 but
// Float(1e6) as 1e+06 — so that rare pair compares the two formats in
// stack buffers. Values with the same literal are Equal, so they hash
// alike.
func SameLiteral(a, b *Value) bool {
	if a.kind != b.kind {
		switch {
		case a.kind == KindInt && b.kind == KindFloat:
			return intPrintsAsFloat(a.i, b.float())
		case a.kind == KindFloat && b.kind == KindInt:
			return intPrintsAsFloat(b.i, a.float())
		}
		return false
	}
	if a.kind == KindFloat {
		fa, fb := a.float(), b.float()
		if math.IsNaN(fa) || math.IsNaN(fb) {
			return math.IsNaN(fa) && math.IsNaN(fb)
		}
		return fa == fb && math.Signbit(fa) == math.Signbit(fb)
	}
	return EqualPtr(a, b)
}

// intPrintsAsFloat reports whether Int(i) and Float(f) have the same
// literal.
func intPrintsAsFloat(i int64, f float64) bool {
	var ib, fb [32]byte
	return string(strconv.AppendInt(ib[:0], i, 10)) == string(strconv.AppendFloat(fb[:0], f, 'g', -1, 64))
}

// Parse converts text into a value of the requested kind. It is the inverse
// of String for every kind, and is used when loading workload fixtures.
func Parse(k Kind, s string) (Value, error) {
	switch k {
	case KindNull:
		if s == "null" || s == "" {
			return Null, nil
		}
		return Null, fmt.Errorf("value: cannot parse %q as null", s)
	case KindBool:
		b, err := strconv.ParseBool(s)
		if err != nil {
			return Null, fmt.Errorf("value: cannot parse %q as bool: %v", s, err)
		}
		return Bool(b), nil
	case KindInt:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Null, fmt.Errorf("value: cannot parse %q as int: %v", s, err)
		}
		return Int(i), nil
	case KindFloat:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Null, fmt.Errorf("value: cannot parse %q as float: %v", s, err)
		}
		return Float(f), nil
	case KindString:
		return Str(s), nil
	case KindTime:
		for _, layout := range []string{time.RFC3339Nano, time.RFC3339, "2006-01-02 15:04:05", "2006-01-02"} {
			if t, err := time.Parse(layout, s); err == nil {
				return Time(t), nil
			}
		}
		return Null, fmt.Errorf("value: cannot parse %q as time", s)
	case KindDuration:
		d, err := time.ParseDuration(s)
		if err != nil {
			return Null, fmt.Errorf("value: cannot parse %q as duration: %v", s, err)
		}
		return Duration(d), nil
	}
	return Null, fmt.Errorf("value: unknown kind %v", k)
}

// CoercibleTo reports whether a value of kind from may be stored in a column
// declared with kind to without loss of intent (exact kind match, int→float
// widening, or anything into a null-kinded wildcard column).
func CoercibleTo(from, to Kind) bool {
	if from == to || from == KindNull {
		return true
	}
	if from == KindInt && to == KindFloat {
		return true
	}
	return false
}

// Coerce converts v to kind to when CoercibleTo allows it.
func Coerce(v Value, to Kind) (Value, error) {
	if v.kind == to || v.kind == KindNull {
		return v, nil
	}
	if v.kind == KindInt && to == KindFloat {
		return Float(float64(v.i)), nil
	}
	return Null, fmt.Errorf("value: cannot coerce %v to %v", v.kind, to)
}
