package value

import (
	"fmt"
	"time"
)

// Arithmetic on values, used by the QQL expression evaluator. The rules are
// deliberately small: int op int stays int, any float operand widens to
// float, time - time yields duration, time ± duration yields time, string +
// string concatenates. Null propagates through every operator.

// Add returns a + b.
func Add(a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	switch {
	case a.kind == KindString && b.kind == KindString:
		return Str(a.s + b.s), nil
	case a.kind == KindTime && b.kind == KindDuration:
		return Time(a.AsTime().Add(time.Duration(b.i))), nil
	case a.kind == KindDuration && b.kind == KindTime:
		return Time(b.AsTime().Add(time.Duration(a.i))), nil
	case a.kind == KindDuration && b.kind == KindDuration:
		return Duration(time.Duration(a.i + b.i)), nil
	case a.kind == KindInt && b.kind == KindInt:
		return Int(a.i + b.i), nil
	case a.Numeric() && b.Numeric():
		return Float(a.AsFloat() + b.AsFloat()), nil
	}
	return Null, fmt.Errorf("value: cannot add %v and %v", a.kind, b.kind)
}

// Sub returns a - b.
func Sub(a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	switch {
	case a.kind == KindTime && b.kind == KindTime:
		return Duration(a.AsTime().Sub(b.AsTime())), nil
	case a.kind == KindTime && b.kind == KindDuration:
		return Time(a.AsTime().Add(-time.Duration(b.i))), nil
	case a.kind == KindDuration && b.kind == KindDuration:
		return Duration(time.Duration(a.i - b.i)), nil
	case a.kind == KindInt && b.kind == KindInt:
		return Int(a.i - b.i), nil
	case a.Numeric() && b.Numeric():
		return Float(a.AsFloat() - b.AsFloat()), nil
	}
	return Null, fmt.Errorf("value: cannot subtract %v from %v", b.kind, a.kind)
}

// Mul returns a * b.
func Mul(a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	switch {
	case a.kind == KindInt && b.kind == KindInt:
		return Int(a.i * b.i), nil
	case a.kind == KindDuration && b.kind == KindInt:
		return Duration(time.Duration(a.i * b.i)), nil
	case a.kind == KindInt && b.kind == KindDuration:
		return Duration(time.Duration(a.i * b.i)), nil
	case a.Numeric() && b.Numeric() && a.kind != KindDuration && b.kind != KindDuration:
		return Float(a.AsFloat() * b.AsFloat()), nil
	}
	return Null, fmt.Errorf("value: cannot multiply %v and %v", a.kind, b.kind)
}

// Div returns a / b. Integer division of ints; division by zero is an error.
func Div(a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	switch {
	case a.kind == KindInt && b.kind == KindInt:
		if b.i == 0 {
			return Null, fmt.Errorf("value: integer division by zero")
		}
		return Int(a.i / b.i), nil
	case a.kind == KindDuration && b.kind == KindInt:
		if b.i == 0 {
			return Null, fmt.Errorf("value: duration division by zero")
		}
		return Duration(time.Duration(a.i / b.i)), nil
	case a.Numeric() && b.Numeric() && a.kind != KindDuration && b.kind != KindDuration:
		if b.AsFloat() == 0 {
			return Null, fmt.Errorf("value: division by zero")
		}
		return Float(a.AsFloat() / b.AsFloat()), nil
	}
	return Null, fmt.Errorf("value: cannot divide %v by %v", a.kind, b.kind)
}

// Neg returns -a for numeric and duration values.
func Neg(a Value) (Value, error) {
	switch a.kind {
	case KindNull:
		return Null, nil
	case KindInt:
		return Int(-a.i), nil
	case KindFloat:
		return Float(-a.float()), nil
	case KindDuration:
		return Duration(-time.Duration(a.i)), nil
	default: // bool, string, time: negation is a type error
		return Null, fmt.Errorf("value: cannot negate %v", a.kind)
	}
}
