package algebra

import (
	"fmt"
	"strings"

	"repro/internal/relation"
	"repro/internal/value"
)

// Reference evaluates a bound expression over one row by walking the tree,
// one node at a time, with SQL's three-valued logic. It is the test oracle
// of Compile, CompilePredicate and CompileColPred: the plainest statement
// of what each node means, kept independent of the compiled forms'
// specializations (constant folding, ref⊗const fast paths, column
// kernels). It shares with Compile only the leaf rules: the builtins, LIKE
// matching, the value package's arithmetic and ordering, and the error
// texts. Nothing in the engine evaluates through it — qqlvet's sharedscan
// analyzer reports a call from the query-path packages outside this file —
// and it is exported only so that other packages' tests can reach it.
func Reference(e Expr, row relation.Tuple, ctx *EvalContext) (value.Value, error) {
	switch v := e.(type) {
	case *Const:
		return v.V, nil
	case *ColRef:
		if v.idx < 0 || v.idx >= len(row.Cells) {
			return value.Null, notBound(v)
		}
		return row.Cells[v.idx].V, nil
	case *IndRef:
		if v.idx < 0 || v.idx >= len(row.Cells) {
			return value.Null, notBound(v)
		}
		t, _ := row.Cells[v.idx].Tags.Get(v.Indicator)
		return t, nil
	case *MetaRef:
		if v.idx < 0 || v.idx >= len(row.Cells) {
			return value.Null, notBound(v)
		}
		t, _ := row.Cells[v.idx].MetaFor(v.Indicator).Get(v.Meta)
		return t, nil
	case *SrcContains:
		if v.idx < 0 || v.idx >= len(row.Cells) {
			return value.Null, notBound(v)
		}
		return value.Bool(row.Cells[v.idx].Sources.Contains(v.Source)), nil
	case *Cmp:
		l, r, err := referencePair(v.L, v.R, row, ctx)
		if err != nil || l.IsNull() || r.IsNull() {
			return value.Null, err
		}
		c := value.Compare(l, r)
		return value.Bool([...]bool{
			OpEq: c == 0, OpNe: c != 0, OpLt: c < 0, OpLe: c <= 0, OpGt: c > 0, OpGe: c >= 0,
		}[v.Op]), nil
	case *Logic:
		return referenceLogic(v, row, ctx)
	case *Not:
		x, err := Reference(v.E, row, ctx)
		if err != nil || x.IsNull() {
			return value.Null, err
		}
		return value.Bool(!x.AsBool()), nil
	case *Arith:
		l, r, err := referencePair(v.L, v.R, row, ctx)
		if err != nil {
			return value.Null, err
		}
		switch v.Op {
		case OpAdd:
			return value.Add(l, r)
		case OpSub:
			return value.Sub(l, r)
		case OpMul:
			return value.Mul(l, r)
		default:
			return value.Div(l, r)
		}
	case *Neg:
		x, err := Reference(v.E, row, ctx)
		if err != nil {
			return value.Null, err
		}
		return value.Neg(x)
	case *IsNull:
		x, err := Reference(v.E, row, ctx)
		if err != nil {
			return value.Null, err
		}
		return value.Bool(x.IsNull() != v.Negate), nil
	case *InList:
		return referenceIn(v, row, ctx)
	case *Like:
		x, err := Reference(v.E, row, ctx)
		if err != nil || x.IsNull() {
			return value.Null, err
		}
		if x.Kind() != value.KindString {
			return value.Null, likeErr(x)
		}
		return value.Bool(likeMatch(v.Pattern, x.AsString()) != v.Negate), nil
	case *Call:
		return referenceCall(v, row, ctx)
	}
	panic(fmt.Sprintf("algebra: cannot evaluate %T", e))
}

// ReferenceTruth reports whether a bound predicate is definitely true for
// the row under Reference: null and non-bool values are not true. It is
// the oracle of CompilePredicate and CompileColPred.
func ReferenceTruth(e Expr, row relation.Tuple, ctx *EvalContext) (bool, error) {
	v, err := Reference(e, row, ctx)
	if err != nil {
		return false, err
	}
	return !v.IsNull() && v.Kind() == value.KindBool && v.AsBool(), nil
}

// referencePair evaluates a binary node's operands, left first.
func referencePair(l, r Expr, row relation.Tuple, ctx *EvalContext) (lv, rv value.Value, err error) {
	if lv, err = Reference(l, row, ctx); err != nil {
		return value.Null, value.Null, err
	}
	if rv, err = Reference(r, row, ctx); err != nil {
		return value.Null, value.Null, err
	}
	return lv, rv, nil
}

// referenceLogic is Kleene AND/OR: the right side is skipped only when the
// left side alone decides the answer.
func referenceLogic(l *Logic, row relation.Tuple, ctx *EvalContext) (value.Value, error) {
	lv, err := Reference(l.L, row, ctx)
	if err != nil {
		return value.Null, err
	}
	// The value that decides the connective alone: false for AND, true
	// for OR.
	decides := l.Op == OpOr
	if !lv.IsNull() && lv.Kind() == value.KindBool && lv.AsBool() == decides {
		return value.Bool(decides), nil
	}
	rv, err := Reference(l.R, row, ctx)
	if err != nil {
		return value.Null, err
	}
	lb, lNull := boolOf(lv)
	rb, rNull := boolOf(rv)
	switch {
	case !lNull && lb == decides, !rNull && rb == decides:
		return value.Bool(decides), nil
	case lNull || rNull:
		return value.Null, nil
	}
	return value.Bool(!decides), nil
}

// referenceIn is IN / NOT IN: true on a match, otherwise null when a list
// item is null.
func referenceIn(in *InList, row relation.Tuple, ctx *EvalContext) (value.Value, error) {
	v, err := Reference(in.E, row, ctx)
	if err != nil || v.IsNull() {
		return value.Null, err
	}
	sawNull := false
	for _, e := range in.List {
		ev, err := Reference(e, row, ctx)
		if err != nil {
			return value.Null, err
		}
		if ev.IsNull() {
			sawNull = true
			continue
		}
		if value.EqualPtr(&v, &ev) {
			return value.Bool(!in.Negate), nil
		}
	}
	if sawNull {
		return value.Null, nil
	}
	return value.Bool(in.Negate), nil
}

// referenceCall applies a builtin to its evaluated arguments, looking the
// function up by name on every call.
func referenceCall(c *Call, row relation.Tuple, ctx *EvalContext) (value.Value, error) {
	if err := c.check(); err != nil {
		return value.Null, err
	}
	name := strings.ToUpper(c.Name)
	if name == "COALESCE" {
		for _, a := range c.Args {
			v, err := Reference(a, row, ctx)
			if err != nil {
				return value.Null, err
			}
			if !v.IsNull() {
				return v, nil
			}
		}
		return value.Null, nil
	}
	if name == "NOW" {
		return value.Time(ctx.Now), nil
	}
	x, err := Reference(c.Args[0], row, ctx)
	if err != nil || x.IsNull() {
		return value.Null, err
	}
	return unaryBuiltins[name](x, ctx)
}
