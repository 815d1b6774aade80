package algebra

import (
	"fmt"

	"repro/internal/relation"
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
// not true), mirroring Truth.
type Predicate func(relation.Tuple, *EvalContext) (bool, error)

// Compile specializes a bound expression into a Compiled closure chain.
// Cmp/Logic/Arith/ColRef/Const spines (the predicate hot path) compile to
// flat closures with the operator selected once, at compile time;
// Const⊗Const subtrees are folded to constants. Node kinds outside the hot
// set — SrcContains, MetaRef, IndRef, Call and friends — fall back to their
// interpreted Eval, so Compile never changes semantics, only dispatch cost.
// The expression must already be bound (Bind) and must not be mutated
// afterwards.
func Compile(e Expr) Compiled {
	switch v := e.(type) {
	case *Const:
		c := v.V
		return func(relation.Tuple, *EvalContext) (value.Value, error) { return c, nil }
	case *ColRef:
		return compileColRef(v)
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
				return v.Eval(row, ctx) // reuse the interpreted error path
			}
			return value.Bool(likeMatch(pattern, x.AsString()) != negate), nil
		}
	}
	// Long tail (SrcContains, MetaRef, IndRef, Call, unknown nodes): the
	// interpreted evaluator, as a method value.
	return e.Eval
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
// and the leaves cannot error after a successful Bind — the only error
// path is the defensive arity guard — so truth-level short-circuiting
// never skips an error the interpreted walk would have surfaced.
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
		rc, ok := extractRefConst(v)
		if !ok {
			return nil, false
		}
		if rc.k.IsNull() {
			// ref ⊗ null is null: never definitely true.
			return func(relation.Tuple, *EvalContext) (bool, error) { return false, nil }, true
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
			got, ok := row.Cells[rc.idx].Tags.Get(rc.indicator)
			if !ok || got.IsNull() {
				return false, nil
			}
			return rc.test(rc.cmp(&got)), nil
		}, true
	}
	return nil, false
}

// refConst is the decomposed form of Cmp(ref ⊗ const): a cell address (and
// optional indicator), the constant, and the comparison test. It carries no
// mutable state, so the closures built over it are safe to share across
// parallel scan workers.
type refConst struct {
	idx       int
	name      string // for the defensive not-bound error
	indicator string // "" compares the application value
	k         value.Value
	test      func(int) bool
	flip      bool // constant was the left operand
}

func (rc *refConst) boundErr() error {
	return fmt.Errorf("algebra: %s not bound", rc.name)
}

// cmp orders the row operand against the constant through pointers — the
// Value struct copy is what dominates a tight comparison loop.
func (rc *refConst) cmp(v *value.Value) int {
	c := value.ComparePtr(v, &rc.k)
	if rc.flip {
		return -c
	}
	return c
}

// extractRefConst recognizes Cmp(ColRef|IndRef, Const) in either operand
// order.
func extractRefConst(c *Cmp) (*refConst, bool) {
	build := func(ref Expr, k *Const, flip bool) (*refConst, bool) {
		switch r := ref.(type) {
		case *ColRef:
			return &refConst{idx: r.idx, name: r.Name, k: k.V, test: cmpTests[c.Op], flip: flip}, true
		case *IndRef:
			return &refConst{idx: r.idx, name: r.Col + "@" + r.Indicator, indicator: r.Indicator,
				k: k.V, test: cmpTests[c.Op], flip: flip}, true
		}
		return nil, false
	}
	if k, ok := c.R.(*Const); ok {
		return build(c.L, k, false)
	}
	if k, ok := c.L.(*Const); ok {
		return build(c.R, k, true)
	}
	return nil, false
}

// ColPred is a compiled column kernel: it tests one physical slot of a
// batch's column vectors without assembling a row. Kernels are built only
// for predicate shapes that cannot error at runtime (CompileColPred
// rejects unbound references at compile time), so the signature has no
// error return — which is what keeps the per-slot loop branch-light.
type ColPred func(cols []ColVec, off int32) bool

// CompileColPred builds a column kernel for an AND/OR tree of ref⊗const
// comparisons over a batch of the given width — the same shapes
// compileBoolPred handles, minus anything that could error per row. The
// constant side of each comparison is specialized once via value.CompareFn,
// so the slot loop runs a direct comparison on the already-loaded value
// instead of a generic ComparePtr dispatch. Not ok means the caller should
// fall back to scalar predicate evaluation over scratch rows.
func CompileColPred(e Expr, width int) (ColPred, bool) {
	switch v := e.(type) {
	case *Logic:
		l, lok := CompileColPred(v.L, width)
		r, rok := CompileColPred(v.R, width)
		if !lok || !rok {
			return nil, false
		}
		if v.Op == OpAnd {
			return func(cols []ColVec, off int32) bool {
				return l(cols, off) && r(cols, off)
			}, true
		}
		return func(cols []ColVec, off int32) bool {
			return l(cols, off) || r(cols, off)
		}, true
	case *Cmp:
		rc, ok := extractRefConst(v)
		if !ok {
			return nil, false
		}
		if rc.idx < 0 || rc.idx >= width {
			return nil, false // unbound: let the scalar path surface the error
		}
		if rc.k.IsNull() {
			// ref ⊗ null is null: never definitely true.
			return func([]ColVec, int32) bool { return false }, true
		}
		cmp := value.CompareFn(rc.k)
		test, flip, idx := rc.test, rc.flip, rc.idx
		if rc.indicator == "" {
			return func(cols []ColVec, off int32) bool {
				cv := &cols[idx].Vals[off]
				if cv.IsNull() {
					return false
				}
				c := cmp(cv)
				if flip {
					c = -c
				}
				return test(c)
			}, true
		}
		ind := rc.indicator
		return func(cols []ColVec, off int32) bool {
			tags := cols[idx].Tags
			if int(off) >= len(tags) {
				return false
			}
			// Point into the set's own slice: a local copy passed to cmp
			// would escape, one heap allocation per slot.
			var got *value.Value
			ts := tags[off].Tags()
			for i := range ts {
				if ts[i].Indicator == ind {
					got = &ts[i].Value
					break
				}
			}
			if got == nil || got.IsNull() {
				return false
			}
			c := cmp(got)
			if flip {
				c = -c
			}
			return test(c)
		}, true
	}
	return nil, false
}

// PrunableSargs extracts the segment-prunable conjuncts of a bound
// predicate: comparisons between a plain column and a non-null constant
// reachable through top-level ANDs. Each one is a necessary condition for
// the whole predicate, so a segment refuting any of them by min/max cannot
// contribute a row. Indicator comparisons are skipped — column statistics
// summarize application values, not tags.
func PrunableSargs(e Expr) []SegPrune {
	var out []SegPrune
	var walk func(Expr)
	walk = func(e Expr) {
		switch v := e.(type) {
		case *Logic:
			if v.Op != OpAnd {
				return // a disjunct alone is not necessary
			}
			walk(v.L)
			walk(v.R)
		case *Cmp:
			rc, ok := extractRefConst(v)
			if !ok || rc.indicator != "" || rc.idx < 0 || rc.k.IsNull() {
				return
			}
			op := v.Op
			if rc.flip {
				op = mirrorCmp(op)
			}
			out = append(out, SegPrune{Col: rc.idx, Op: op, K: rc.k})
		}
	}
	walk(e)
	return out
}

// mirrorCmp rewrites const ⊗ col as col ⊗ const.
func mirrorCmp(op CmpOp) CmpOp {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	case OpEq, OpNe:
		return op // symmetric
	}
	return op
}

func compileColRef(c *ColRef) Compiled {
	idx := c.idx
	return func(row relation.Tuple, _ *EvalContext) (value.Value, error) {
		if idx < 0 || idx >= len(row.Cells) {
			return c.Eval(row, nil) // interpreted not-bound error path
		}
		return row.Cells[idx].V, nil
	}
}

// foldConst evaluates a row-independent subtree once; not ok when the
// evaluation errors (the node is kept, so the error still surfaces per row
// at execution time, exactly as interpreted evaluation would).
func foldConst(e Expr) (value.Value, bool) {
	v, err := e.Eval(relation.Tuple{}, &EvalContext{})
	if err != nil {
		return value.Null, false
	}
	return v, true
}

func isConst(e Expr) bool { _, ok := e.(*Const); return ok }

func compileCmp(c *Cmp) Compiled {
	if isConst(c.L) && isConst(c.R) {
		if v, ok := foldConst(c); ok {
			return func(relation.Tuple, *EvalContext) (value.Value, error) { return v, nil }
		}
	}
	if rc, ok := extractRefConst(c); ok {
		if rc.k.IsNull() {
			return func(relation.Tuple, *EvalContext) (value.Value, error) { return value.Null, nil }
		}
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
			got, ok := row.Cells[rc.idx].Tags.Get(rc.indicator)
			if !ok || got.IsNull() {
				return value.Null, nil
			}
			return value.Bool(rc.test(rc.cmp(&got))), nil
		}
	}
	l, r := Compile(c.L), Compile(c.R)
	test := cmpTests[c.Op]
	return func(row relation.Tuple, ctx *EvalContext) (value.Value, error) {
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
	}
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
	if isConst(lg.L) && isConst(lg.R) {
		if v, ok := foldConst(lg); ok {
			return func(relation.Tuple, *EvalContext) (value.Value, error) { return v, nil }
		}
	}
	l, r := Compile(lg.L), Compile(lg.R)
	if lg.Op == OpAnd {
		return func(row relation.Tuple, ctx *EvalContext) (value.Value, error) {
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
		}
	}
	return func(row relation.Tuple, ctx *EvalContext) (value.Value, error) {
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
	}
}

func compileArith(a *Arith) Compiled {
	if isConst(a.L) && isConst(a.R) {
		if v, ok := foldConst(a); ok {
			return func(relation.Tuple, *EvalContext) (value.Value, error) { return v, nil }
		}
	}
	l, r := Compile(a.L), Compile(a.R)
	op := arithFns[a.Op]
	return func(row relation.Tuple, ctx *EvalContext) (value.Value, error) {
		lv, err := l(row, ctx)
		if err != nil {
			return value.Null, err
		}
		rv, err := r(row, ctx)
		if err != nil {
			return value.Null, err
		}
		return op(lv, rv)
	}
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
// keeps no rows under Truth semantics, so decided && !truth means a filter
// using e keeps nothing.
func ConstTruth(e Expr) (truth, decided bool) {
	c, ok := e.(*Const)
	if !ok {
		return false, false
	}
	return !c.V.IsNull() && c.V.Kind() == value.KindBool && c.V.AsBool(), true
}
