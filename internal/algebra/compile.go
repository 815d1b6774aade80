package algebra

import (
	"cmp"
	"fmt"
	"strings"

	"repro/internal/relation"
	"repro/internal/tag"
	"repro/internal/value"
)

// Compiled is a specialized evaluator for one bound expression: the whole
// tree flattened into a chain of closures, so evaluating a row costs a few
// direct calls instead of an interface-dispatched AST walk per node. A
// Compiled closure is read-only after construction and safe to share across
// goroutines.
type Compiled func(relation.Tuple, *EvalContext) (value.Value, error)

// Predicate is a compiled boolean filter: it reports whether the expression
// is definitely true for the row (Kleene semantics — null and non-bool are
// not true).
type Predicate func(relation.Tuple, *EvalContext) (bool, error)

// Compile specializes a bound expression into a Compiled closure chain. It
// is the one evaluator the engine runs: SELECT's filters and projections,
// INSERT's values and UPDATE's SETs. Operators are selected once, at
// compile time, Const⊗Const subtrees are folded to constants, references
// read their cell directly, and a Call resolves its builtin once, so no
// row pays the name lookup or an argument slice; AGE and NOW read ctx.Now,
// the statement's instant. A row too short for a reference — INSERT
// evaluates over the empty row — is that reference's not-bound error. The
// tree-walking Reference is the oracle Compile is tested and fuzzed
// against. The expression must already be bound (Bind) and must not be
// mutated afterwards.
func Compile(e Expr) Compiled {
	switch v := e.(type) {
	case *Const:
		c := v.V
		return func(relation.Tuple, *EvalContext) (value.Value, error) { return c, nil }
	case *ColRef:
		return compileColRef(v)
	case *IndRef:
		idx, ind := v.idx, v.Indicator
		return func(row relation.Tuple, _ *EvalContext) (value.Value, error) {
			if idx < 0 || idx >= len(row.Cells) {
				return value.Null, notBound(v)
			}
			t, _ := row.Cells[idx].Tags.Get(ind) // null when untagged
			return t, nil
		}
	case *MetaRef:
		idx, ind, meta := v.idx, v.Indicator, v.Meta
		return func(row relation.Tuple, _ *EvalContext) (value.Value, error) {
			if idx < 0 || idx >= len(row.Cells) {
				return value.Null, notBound(v)
			}
			t, _ := row.Cells[idx].MetaFor(ind).Get(meta)
			return t, nil
		}
	case *SrcContains:
		idx, src := v.idx, v.Source
		return func(row relation.Tuple, _ *EvalContext) (value.Value, error) {
			if idx < 0 || idx >= len(row.Cells) {
				return value.Null, notBound(v)
			}
			return value.Bool(row.Cells[idx].Sources.Contains(src)), nil
		}
	case *Call:
		return compileCall(v)
	case *Cmp:
		return compileCmp(v)
	case *Logic:
		return compileLogic(v)
	case *Not:
		f := Compile(v.E)
		return func(row relation.Tuple, ctx *EvalContext) (value.Value, error) {
			x, err := f(row, ctx)
			if err != nil || x.IsNull() {
				return value.Null, err
			}
			return value.Bool(!x.AsBool()), nil
		}
	case *Arith:
		return compileArith(v)
	case *Neg:
		f := Compile(v.E)
		return func(row relation.Tuple, ctx *EvalContext) (value.Value, error) {
			x, err := f(row, ctx)
			if err != nil {
				return value.Null, err
			}
			return value.Neg(x)
		}
	case *IsNull:
		f := Compile(v.E)
		negate := v.Negate
		return func(row relation.Tuple, ctx *EvalContext) (value.Value, error) {
			x, err := f(row, ctx)
			if err != nil {
				return value.Null, err
			}
			return value.Bool(x.IsNull() != negate), nil
		}
	case *InList:
		return compileInList(v)
	case *Like:
		f := Compile(v.E)
		pattern, negate := v.Pattern, v.Negate
		return func(row relation.Tuple, ctx *EvalContext) (value.Value, error) {
			x, err := f(row, ctx)
			if err != nil || x.IsNull() {
				return value.Null, err
			}
			if x.Kind() != value.KindString {
				return value.Null, likeErr(x)
			}
			return value.Bool(likeMatch(pattern, x.AsString()) != negate), nil
		}
	}
	// Only an Expr type defined outside this package gets here; none
	// exists.
	panic(fmt.Sprintf("algebra: cannot compile %T", e))
}

// notBound is the error of a reference evaluated over a row that has no
// cell for its column.
func notBound(e Expr) error {
	switch r := e.(type) {
	case *ColRef:
		return fmt.Errorf("algebra: column %q not bound", r.Name)
	case *IndRef:
		return fmt.Errorf("algebra: indicator ref %s@%s not bound", r.Col, r.Indicator)
	case *MetaRef:
		return fmt.Errorf("algebra: meta ref %s@%s@%s not bound", r.Col, r.Indicator, r.Meta)
	}
	return fmt.Errorf("algebra: SOURCE(%s) not bound", e.(*SrcContains).Col)
}

func likeErr(x value.Value) error {
	return fmt.Errorf("algebra: LIKE on non-string %v", x.Kind())
}

// compileCall resolves c's builtin once. A call Bind would reject — an
// unknown name or a wrong argument count — compiles to Bind's error.
func compileCall(c *Call) Compiled {
	name := strings.ToUpper(c.Name)
	args := make([]Compiled, len(c.Args))
	for i, a := range c.Args {
		args[i] = Compile(a)
	}
	fn, unary := unaryBuiltins[name]
	switch {
	case name == "NOW" && len(args) == 0:
		return func(_ relation.Tuple, ctx *EvalContext) (value.Value, error) {
			return value.Time(ctx.Now), nil
		}
	case name == "COALESCE" && len(args) > 0:
		return func(row relation.Tuple, ctx *EvalContext) (value.Value, error) {
			for _, f := range args {
				v, err := f(row, ctx)
				if err != nil || !v.IsNull() {
					return v, err
				}
			}
			return value.Null, nil
		}
	case unary && len(args) == 1:
		f := args[0]
		return func(row relation.Tuple, ctx *EvalContext) (value.Value, error) {
			x, err := f(row, ctx)
			if err != nil || x.IsNull() {
				return value.Null, err
			}
			return fn(x, ctx)
		}
	}
	err := c.check()
	return func(relation.Tuple, *EvalContext) (value.Value, error) { return value.Null, err }
}

// CompilePredicate compiles a bound boolean expression into a Predicate.
// Conjunctions and disjunctions of ref-versus-constant comparisons — the
// sarg shapes that dominate WHERE and WITH QUALITY clauses — compile to
// direct boolean closures with no Value boxing at all; everything else
// evaluates through Compile and tests the result.
func CompilePredicate(e Expr) Predicate {
	if p, ok := compileBoolPred(e); ok {
		return p
	}
	f := Compile(e)
	return func(row relation.Tuple, ctx *EvalContext) (bool, error) {
		v, err := f(row, ctx)
		if err != nil {
			return false, err
		}
		return !v.IsNull() && v.Kind() == value.KindBool && v.AsBool(), nil
	}
}

// compileBoolPred builds a two-valued evaluator for predicate trees of
// AND/OR over ref⊗const comparisons. The collapse from Kleene to boolean
// logic is sound here: at every level of such a tree, "definitely true"
// composes through AND/OR exactly as && and || do (null behaves as false),
// and over a row of the bound width the leaves cannot error — the only
// error path is a row with no cell for the reference — so truth-level
// short-circuiting never skips an error the Kleene walk would surface.
func compileBoolPred(e Expr) (Predicate, bool) {
	switch v := e.(type) {
	case *Logic:
		l, lok := compileBoolPred(v.L)
		r, rok := compileBoolPred(v.R)
		if !lok || !rok {
			return nil, false
		}
		if v.Op == OpAnd {
			return func(row relation.Tuple, ctx *EvalContext) (bool, error) {
				b, err := l(row, ctx)
				if err != nil || !b {
					return false, err
				}
				return r(row, ctx)
			}, true
		}
		return func(row relation.Tuple, ctx *EvalContext) (bool, error) {
			b, err := l(row, ctx)
			if err != nil || b {
				return b, err
			}
			return r(row, ctx)
		}, true
	case *Cmp:
		// ref ⊗ null is null, never definitely true; it is left to the
		// Kleene walk, which still raises the ref's error.
		rc, ok := extractRefConst(v)
		if !ok || rc.k.IsNull() {
			return nil, false
		}
		if rc.indicator == "" {
			return func(row relation.Tuple, _ *EvalContext) (bool, error) {
				if rc.idx < 0 || rc.idx >= len(row.Cells) {
					return false, rc.boundErr()
				}
				cv := &row.Cells[rc.idx].V
				if cv.IsNull() {
					return false, nil
				}
				return rc.test(rc.cmp(cv)), nil
			}, true
		}
		return func(row relation.Tuple, _ *EvalContext) (bool, error) {
			if rc.idx < 0 || rc.idx >= len(row.Cells) {
				return false, rc.boundErr()
			}
			got, ok := rc.tagOf(&row.Cells[rc.idx])
			if !ok || got.IsNull() {
				return false, nil
			}
			return rc.test(rc.cmp(&got)), nil
		}, true
	}
	return nil, false
}

// refConst is the decomposed form of Cmp(ref ⊗ const): a cell address (and
// optional indicator and meta indicator), the constant, and the comparison
// test. It carries no mutable state, so the closures built over it are safe
// to share across parallel scan workers.
type refConst struct {
	idx       int
	ref       Expr   // for the not-bound error
	indicator string // "" compares the application value
	meta      string // with an indicator: compares that tag's meta tag
	k         value.Value
	test      func(int) bool
	flip      bool // constant was the left operand
}

func (rc *refConst) boundErr() error { return notBound(rc.ref) }

// cmp orders the row operand against the constant through pointers — the
// Value struct copy is what dominates a tight comparison loop.
func (rc *refConst) cmp(v *value.Value) int {
	c := value.ComparePtr(v, &rc.k)
	if rc.flip {
		return -c
	}
	return c
}

// tagOf reads the compared tag of a row cell: the indicator's tag, or the
// meta tag on it.
func (rc *refConst) tagOf(c *relation.Cell) (value.Value, bool) {
	if rc.meta != "" {
		return c.MetaFor(rc.indicator).Get(rc.meta)
	}
	return c.Tags.Get(rc.indicator)
}

// slotOperand points at the compared operand of slot off in a batch — the
// value, the indicator's tag or the meta tag on it — or is nil when the
// slot carries no such tag. The pointer aims into the column's own storage:
// a local copy handed to a comparator closure would escape, one heap
// allocation per slot.
func (rc *refConst) slotOperand(cols []ColVec, off int32) *value.Value {
	v := &cols[rc.idx]
	if rc.indicator == "" {
		return &v.Vals[off]
	}
	if rc.meta == "" {
		if int(off) >= len(v.Tags) {
			return nil
		}
		return findTag(v.Tags[off].Tags(), rc.indicator)
	}
	if int(off) >= len(v.Meta) {
		return nil
	}
	return findTag(v.Meta[off][rc.indicator].Tags(), rc.meta)
}

// findTag points at the value of the named tag in ts, nil when absent.
func findTag(ts []tag.Tag, name string) *value.Value {
	for i := range ts {
		if ts[i].Indicator == name {
			return &ts[i].Value
		}
	}
	return nil
}

// extractRefConst recognizes Cmp(ColRef|IndRef|MetaRef, Const) in either
// operand order.
func extractRefConst(c *Cmp) (*refConst, bool) {
	return splitCmp(c, refOf)
}

// extractAgeConst recognizes Cmp(AGE(ColRef|IndRef|MetaRef), Const) in
// either operand order; the refConst addresses AGE's argument.
func extractAgeConst(c *Cmp) (*refConst, bool) {
	return splitCmp(c, func(e Expr) (*refConst, bool) {
		call, ok := e.(*Call)
		if !ok || len(call.Args) != 1 || !strings.EqualFold(call.Name, "AGE") {
			return nil, false
		}
		return refOf(call.Args[0])
	})
}

// splitCmp decomposes c into operand ⊗ const, in either order, where operand
// is recognized by ref.
func splitCmp(c *Cmp, ref func(Expr) (*refConst, bool)) (*refConst, bool) {
	operand, k, flip := c.L, c.R, false
	if _, ok := k.(*Const); !ok {
		operand, k, flip = c.R, c.L, true
	}
	kc, ok := k.(*Const)
	if !ok {
		return nil, false
	}
	rc, ok := ref(operand)
	if !ok {
		return nil, false
	}
	rc.k, rc.test, rc.flip = kc.V, cmpTests[c.Op], flip
	return rc, true
}

// refOf addresses a column's value, an indicator tag or a meta tag.
func refOf(e Expr) (*refConst, bool) {
	switch r := e.(type) {
	case *ColRef:
		return &refConst{idx: r.idx, ref: r}, true
	case *IndRef:
		return &refConst{idx: r.idx, ref: r, indicator: r.Indicator}, true
	case *MetaRef:
		return &refConst{idx: r.idx, ref: r, indicator: r.Indicator, meta: r.Meta}, true
	}
	return nil, false
}

// Verdict is a column kernel's answer for one slot.
type Verdict uint8

const (
	// Drop: the predicate is not definitely true for the slot.
	Drop Verdict = iota
	// Keep: the predicate is definitely true for the slot.
	Keep
	// Ask: the kernel cannot answer without deciding whether the
	// predicate errors here; the caller runs the compiled row
	// predicate (CompilePredicate) over the slot instead.
	Ask
)

func keepIf(b bool) Verdict {
	if b {
		return Keep
	}
	return Drop
}

// ColPred is a compiled column kernel: it tests one physical slot of a
// batch's column vectors without assembling a row. Keep and Drop are
// answers the row predicate would give with no error; a kernel answers
// Ask where it might error — AGE over a tag that is not a time — and the
// caller then evaluates the row predicate for that one slot, so the error
// surfaces exactly as the row predicate raises it. The signature has no
// error return, which is what keeps the per-slot loop branch-light.
type ColPred func(cols []ColVec, off int32) Verdict

// CompileColPred builds a column kernel over a batch of the given width for
// an AND/OR tree whose leaves are ref⊗const comparisons (ref being a
// column, col@ind or col@ind@meta), AGE(ref)⊗const comparisons and
// SOURCE(col, 'x') tests, the constant on either side. Comparisons are
// specialized once (value.CompareFn), so the slot loop runs a direct
// comparison on the already-loaded value instead of a generic dispatch;
// AGE computes ctx.Now.Sub(t) per slot exactly as the compiled AGE does. defers
// reports whether the kernel may answer Ask, in which case the caller needs
// the row predicate too. Not ok means the caller should fall back to scalar
// predicate evaluation over scratch rows.
func CompileColPred(e Expr, width int, ctx *EvalContext) (k ColPred, defers, ok bool) {
	switch v := e.(type) {
	case *Logic:
		l, ld, lok := CompileColPred(v.L, width, ctx)
		r, rd, rok := CompileColPred(v.R, width, ctx)
		if !lok || !rok {
			return nil, false, false
		}
		if v.Op == OpOr {
			// Keep short-circuits as the Kleene OR does; a dropped
			// left side leaves the answer to the right.
			return func(cols []ColVec, off int32) Verdict {
				if a := l(cols, off); a != Drop {
					return a
				}
				return r(cols, off)
			}, ld || rd, true
		}
		if !rd {
			// The right side never asks, so a dropped left side settles
			// the slot, as && does.
			return func(cols []ColVec, off int32) Verdict {
				if a := l(cols, off); a != Keep {
					return a
				}
				return r(cols, off)
			}, ld, true
		}
		// A left side that is null rather than false would leave the
		// Kleene AND evaluating the right one, whose error must
		// surface: the right side runs even after a Drop.
		return func(cols []ColVec, off int32) Verdict {
			a := l(cols, off)
			if a == Ask {
				return Ask
			}
			if b := r(cols, off); b == Ask || a == Keep {
				return b
			}
			return Drop
		}, true, true
	case *SrcContains:
		if v.idx < 0 || v.idx >= width {
			return nil, false, false // unbound: let the scalar path surface the error
		}
		idx, src := v.idx, v.Source
		return func(cols []ColVec, off int32) Verdict {
			srcs := cols[idx].Srcs
			return keepIf(int(off) < len(srcs) && srcs[off].Contains(src))
		}, false, true
	case *Cmp:
		if rc, ok := extractRefConst(v); ok {
			k := refKernel(rc, width)
			return k, false, k != nil
		}
		if rc, ok := extractAgeConst(v); ok && ctx != nil && rc.idx >= 0 && rc.idx < width {
			return ageKernel(rc, ctx), true, true
		}
	}
	return nil, false, false
}

// refKernel is the kernel of a ref⊗const comparison, nil when the reference
// is unbound for the width.
func refKernel(rc *refConst, width int) ColPred {
	if rc.idx < 0 || rc.idx >= width {
		return nil // unbound: let the scalar path surface the error
	}
	if rc.k.IsNull() {
		// ref ⊗ null is null: never definitely true.
		return func([]ColVec, int32) Verdict { return Drop }
	}
	cmp := value.CompareFn(rc.k)
	test, flip, idx := rc.test, rc.flip, rc.idx
	if rc.indicator == "" {
		return func(cols []ColVec, off int32) Verdict {
			cv := &cols[idx].Vals[off]
			if cv.IsNull() {
				return Drop
			}
			c := cmp(cv)
			if flip {
				c = -c
			}
			return keepIf(test(c))
		}
	}
	if rc.meta == "" {
		ind := rc.indicator
		return func(cols []ColVec, off int32) Verdict {
			tags := cols[idx].Tags
			if int(off) >= len(tags) {
				return Drop
			}
			got := findTag(tags[off].Tags(), ind)
			if got == nil || got.IsNull() {
				return Drop
			}
			c := cmp(got)
			if flip {
				c = -c
			}
			return keepIf(test(c))
		}
	}
	return func(cols []ColVec, off int32) Verdict {
		got := rc.slotOperand(cols, off)
		if got == nil || got.IsNull() {
			return Drop
		}
		c := cmp(got)
		if flip {
			c = -c
		}
		return keepIf(test(c))
	}
}

// ageKernel is the kernel of AGE(ref)⊗const. A missing or null operand
// makes AGE null, so the slot drops; one that is not a time is AGE's error,
// so the slot asks. The comparison runs on AGE's own result,
// ctx.Now.Sub(t), never on a bound on t, which would differ where Sub
// saturates.
func ageKernel(rc *refConst, ctx *EvalContext) ColPred {
	k, test, flip := rc.k, rc.test, rc.flip
	kNull := k.IsNull()
	// An integer-like constant orders against a duration by its integer
	// payload, as value.CompareFn does; any other kind takes the general
	// ordering.
	kInt := k.Kind() == value.KindDuration || k.Kind() == value.KindInt || k.Kind() == value.KindBool
	ki := k.AsInt()
	return func(cols []ColVec, off int32) Verdict {
		t := rc.slotOperand(cols, off)
		if t == nil || t.IsNull() {
			return Drop
		}
		if t.Kind() != value.KindTime {
			return Ask
		}
		if kNull {
			return Drop
		}
		d := ctx.Now.Sub(t.AsTime())
		var c int
		if kInt {
			c = cmp.Compare(int64(d), ki)
		} else {
			dv := value.Duration(d)
			c = value.ComparePtr(&dv, &k)
		}
		if flip {
			c = -c
		}
		return keepIf(test(c))
	}
}

func compileColRef(c *ColRef) Compiled {
	idx := c.idx
	return func(row relation.Tuple, _ *EvalContext) (value.Value, error) {
		if idx < 0 || idx >= len(row.Cells) {
			return value.Null, notBound(c)
		}
		return row.Cells[idx].V, nil
	}
}

// foldConst evaluates a row-independent subtree once; not ok when the
// evaluation errors (the node is kept, so the error still surfaces per row
// at execution time).
func foldConst(e Expr) (value.Value, bool) {
	v, err := Compile(e)(relation.Tuple{}, &EvalContext{})
	return v, err == nil
}

// folded is f, the compiled form of a binary node over l and r, evaluated
// once into a constant when both operands are constants and the evaluation
// succeeds; otherwise f itself.
func folded(f Compiled, l, r Expr) Compiled {
	if !isConst(l) || !isConst(r) {
		return f
	}
	v, err := f(relation.Tuple{}, &EvalContext{})
	if err != nil {
		return f
	}
	return func(relation.Tuple, *EvalContext) (value.Value, error) { return v, nil }
}

func isConst(e Expr) bool { _, ok := e.(*Const); return ok }

func compileCmp(c *Cmp) Compiled {
	// ref ⊗ null takes the general path below: null, after the ref's
	// not-bound check.
	if rc, ok := extractRefConst(c); ok && !rc.k.IsNull() {
		if rc.indicator == "" {
			return func(row relation.Tuple, _ *EvalContext) (value.Value, error) {
				if rc.idx < 0 || rc.idx >= len(row.Cells) {
					return value.Null, rc.boundErr()
				}
				cv := &row.Cells[rc.idx].V
				if cv.IsNull() {
					return value.Null, nil
				}
				return value.Bool(rc.test(rc.cmp(cv))), nil
			}
		}
		return func(row relation.Tuple, _ *EvalContext) (value.Value, error) {
			if rc.idx < 0 || rc.idx >= len(row.Cells) {
				return value.Null, rc.boundErr()
			}
			got, ok := rc.tagOf(&row.Cells[rc.idx])
			if !ok || got.IsNull() {
				return value.Null, nil
			}
			return value.Bool(rc.test(rc.cmp(&got))), nil
		}
	}
	l, r := Compile(c.L), Compile(c.R)
	test := cmpTests[c.Op]
	return folded(func(row relation.Tuple, ctx *EvalContext) (value.Value, error) {
		lv, err := l(row, ctx)
		if err != nil {
			return value.Null, err
		}
		rv, err := r(row, ctx)
		if err != nil {
			return value.Null, err
		}
		if lv.IsNull() || rv.IsNull() {
			return value.Null, nil
		}
		return value.Bool(test(value.ComparePtr(&lv, &rv))), nil
	}, c.L, c.R)
}

// cmpTests maps a CmpOp to its test over value.Compare's result, selected
// once at compile time instead of switched per row.
var cmpTests = [...]func(int) bool{
	OpEq: func(c int) bool { return c == 0 },
	OpNe: func(c int) bool { return c != 0 },
	OpLt: func(c int) bool { return c < 0 },
	OpLe: func(c int) bool { return c <= 0 },
	OpGt: func(c int) bool { return c > 0 },
	OpGe: func(c int) bool { return c >= 0 },
}

func compileLogic(lg *Logic) Compiled {
	l, r := Compile(lg.L), Compile(lg.R)
	if lg.Op == OpAnd {
		return folded(func(row relation.Tuple, ctx *EvalContext) (value.Value, error) {
			lv, err := l(row, ctx)
			if err != nil {
				return value.Null, err
			}
			if !lv.IsNull() && lv.Kind() == value.KindBool && !lv.AsBool() {
				return value.Bool(false), nil
			}
			rv, err := r(row, ctx)
			if err != nil {
				return value.Null, err
			}
			lb, lNull := boolOf(lv)
			rb, rNull := boolOf(rv)
			switch {
			case !lNull && !lb, !rNull && !rb:
				return value.Bool(false), nil
			case lNull || rNull:
				return value.Null, nil
			default:
				return value.Bool(true), nil
			}
		}, lg.L, lg.R)
	}
	return folded(func(row relation.Tuple, ctx *EvalContext) (value.Value, error) {
		lv, err := l(row, ctx)
		if err != nil {
			return value.Null, err
		}
		if !lv.IsNull() && lv.Kind() == value.KindBool && lv.AsBool() {
			return value.Bool(true), nil
		}
		rv, err := r(row, ctx)
		if err != nil {
			return value.Null, err
		}
		lb, lNull := boolOf(lv)
		rb, rNull := boolOf(rv)
		switch {
		case !lNull && lb, !rNull && rb:
			return value.Bool(true), nil
		case lNull || rNull:
			return value.Null, nil
		default:
			return value.Bool(false), nil
		}
	}, lg.L, lg.R)
}

func compileArith(a *Arith) Compiled {
	l, r := Compile(a.L), Compile(a.R)
	op := arithFns[a.Op]
	return folded(func(row relation.Tuple, ctx *EvalContext) (value.Value, error) {
		lv, err := l(row, ctx)
		if err != nil {
			return value.Null, err
		}
		rv, err := r(row, ctx)
		if err != nil {
			return value.Null, err
		}
		return op(lv, rv)
	}, a.L, a.R)
}

var arithFns = [...]func(l, r value.Value) (value.Value, error){
	OpAdd: value.Add,
	OpSub: value.Sub,
	OpMul: value.Mul,
	OpDiv: value.Div,
}

func compileInList(in *InList) Compiled {
	e := Compile(in.E)
	list := make([]Compiled, len(in.List))
	for i, x := range in.List {
		list[i] = Compile(x)
	}
	negate := in.Negate
	return func(row relation.Tuple, ctx *EvalContext) (value.Value, error) {
		v, err := e(row, ctx)
		if err != nil || v.IsNull() {
			return value.Null, err
		}
		sawNull := false
		for _, f := range list {
			ev, err := f(row, ctx)
			if err != nil {
				return value.Null, err
			}
			if ev.IsNull() {
				sawNull = true
				continue
			}
			if value.EqualPtr(&v, &ev) {
				return value.Bool(!negate), nil
			}
		}
		if sawNull {
			return value.Null, nil
		}
		return value.Bool(negate), nil
	}
}

// ---- Bind-time simplification ----

// Simplify rewrites an expression into an equivalent, usually smaller one:
// row-independent subtrees of the pure operators (Cmp, Logic, Arith, Not,
// Neg, IsNull, InList, Like over constants) fold to constants, and
// determined Kleene identities collapse — x AND false is false, x AND true
// is x, x OR true is true, x OR false is x. A folding step whose evaluation
// errors (1/0) is left in place so the error still surfaces at execution
// time. Calls are never folded: NOW() is row-independent but
// statement-dependent. Simplify may rewrite nodes in place; callers own the
// tree (planners work on clones).
func Simplify(e Expr) Expr {
	switch v := e.(type) {
	case *Cmp:
		v.L, v.R = Simplify(v.L), Simplify(v.R)
		return foldIfConst(v, v.L, v.R)
	case *Logic:
		v.L, v.R = Simplify(v.L), Simplify(v.R)
		if out, ok := simplifyLogic(v); ok {
			return out
		}
		return v
	case *Not:
		v.E = Simplify(v.E)
		return foldIfConst(v, v.E)
	case *Neg:
		v.E = Simplify(v.E)
		return foldIfConst(v, v.E)
	case *IsNull:
		v.E = Simplify(v.E)
		return foldIfConst(v, v.E)
	case *Arith:
		v.L, v.R = Simplify(v.L), Simplify(v.R)
		return foldIfConst(v, v.L, v.R)
	case *InList:
		v.E = Simplify(v.E)
		kids := []Expr{v.E}
		for i := range v.List {
			v.List[i] = Simplify(v.List[i])
			kids = append(kids, v.List[i])
		}
		return foldIfConst(v, kids...)
	case *Like:
		v.E = Simplify(v.E)
		return foldIfConst(v, v.E)
	case *Call:
		for i := range v.Args {
			v.Args[i] = Simplify(v.Args[i])
		}
		return v
	}
	return e
}

// foldIfConst replaces e with a constant when every child is one and the
// one-shot evaluation succeeds.
func foldIfConst(e Expr, children ...Expr) Expr {
	for _, c := range children {
		if !isConst(c) {
			return e
		}
	}
	if v, ok := foldConst(e); ok {
		return &Const{V: v}
	}
	return e
}

// constBool classifies a constant operand for Kleene rewriting.
func constBool(e Expr) (b bool, isNull, ok bool) {
	c, isC := e.(*Const)
	if !isC {
		return false, false, false
	}
	if c.V.IsNull() {
		return false, true, true
	}
	if c.V.Kind() != value.KindBool {
		return false, false, false
	}
	return c.V.AsBool(), false, true
}

func simplifyLogic(lg *Logic) (Expr, bool) {
	if isConst(lg.L) && isConst(lg.R) {
		if v, ok := foldConst(lg); ok {
			return &Const{V: v}, true
		}
		return lg, false
	}
	// One determined side can decide or vanish; null sides cannot (null AND
	// x is not x: it is false when x is false, null otherwise).
	if b, isNull, ok := constBool(lg.L); ok && !isNull {
		return collapseLogic(lg.Op, b, lg.R)
	}
	if b, isNull, ok := constBool(lg.R); ok && !isNull {
		return collapseLogic(lg.Op, b, lg.L)
	}
	return lg, false
}

func collapseLogic(op LogicOp, b bool, other Expr) (Expr, bool) {
	if op == OpAnd {
		if !b {
			return &Const{V: value.Bool(false)}, true
		}
		return other, true
	}
	if b {
		return &Const{V: value.Bool(true)}, true
	}
	return other, true
}

// ConstTruth classifies a (possibly simplified) predicate that is a
// constant: decided reports whether e is row-independent, and truth whether
// it is definitely true. A constant that is null, false, or not a bool
// keeps no rows under Predicate semantics, so decided && !truth means a filter
// using e keeps nothing.
func ConstTruth(e Expr) (truth, decided bool) {
	c, ok := e.(*Const)
	if !ok {
		return false, false
	}
	return !c.V.IsNull() && c.V.Kind() == value.KindBool && c.V.AsBool(), true
}
