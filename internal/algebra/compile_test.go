package algebra

import (
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/value"
)

// compileCases is a catalog of expressions spanning every node kind the
// compiler specializes plus its fallbacks, evaluated over
// exprRow and a row of nulls.
func compileCases() []Expr {
	c := func(v value.Value) Expr { return &Const{V: v} }
	return []Expr{
		c(value.Int(42)),
		&ColRef{Name: "n"},
		&ColRef{Name: "name"},
		&Cmp{Op: OpEq, L: &ColRef{Name: "n"}, R: c(value.Int(4004))},
		&Cmp{Op: OpNe, L: &ColRef{Name: "n"}, R: c(value.Int(4004))},
		&Cmp{Op: OpLt, L: &ColRef{Name: "price"}, R: c(value.Float(100))},
		&Cmp{Op: OpLe, L: c(value.Int(1)), R: c(value.Int(1))},
		&Cmp{Op: OpGt, L: &ColRef{Name: "n"}, R: &ColRef{Name: "price"}},
		&Cmp{Op: OpGe, L: &ColRef{Name: "when"}, R: c(value.Time(time.Date(1990, 1, 1, 0, 0, 0, 0, time.UTC)))},
		&Logic{Op: OpAnd,
			L: &Cmp{Op: OpGt, L: &ColRef{Name: "n"}, R: c(value.Int(100))},
			R: &Cmp{Op: OpLt, L: &ColRef{Name: "price"}, R: c(value.Float(100))}},
		&Logic{Op: OpOr,
			L: &Cmp{Op: OpGt, L: &ColRef{Name: "n"}, R: c(value.Int(1e9))},
			R: &IsNull{E: &ColRef{Name: "name"}}},
		&Logic{Op: OpAnd, L: c(value.Null), R: c(value.Bool(false))},
		&Logic{Op: OpOr, L: c(value.Null), R: c(value.Bool(true))},
		&Not{E: &Cmp{Op: OpEq, L: &ColRef{Name: "name"}, R: c(value.Str("Fruit Co"))}},
		&Not{E: c(value.Null)},
		&Arith{Op: OpAdd, L: &ColRef{Name: "n"}, R: c(value.Int(1))},
		&Arith{Op: OpSub, L: &ColRef{Name: "price"}, R: c(value.Float(0.5))},
		&Arith{Op: OpMul, L: c(value.Int(6)), R: c(value.Int(7))},
		&Arith{Op: OpDiv, L: &ColRef{Name: "n"}, R: c(value.Int(0))}, // errors per row
		&Neg{E: &ColRef{Name: "n"}},
		&IsNull{E: &ColRef{Name: "price"}},
		&IsNull{E: &ColRef{Name: "price"}, Negate: true},
		&InList{E: &ColRef{Name: "name"}, List: []Expr{c(value.Str("Nut Co")), c(value.Str("Fruit Co"))}},
		&InList{E: &ColRef{Name: "n"}, List: []Expr{c(value.Int(1)), c(value.Null)}, Negate: true},
		&Like{E: &ColRef{Name: "name"}, Pattern: "Fruit%"},
		&Like{E: &ColRef{Name: "name"}, Pattern: "%Co_", Negate: true},
		&Like{E: &ColRef{Name: "n"}, Pattern: "4%"}, // type error per row
		&IndRef{Col: "n", Indicator: "source"},
		&IndRef{Col: "name", Indicator: "source"}, // untagged: null
		&MetaRef{Col: "n", Indicator: "source", Meta: "credibility"},
		&MetaRef{Col: "n", Indicator: "source", Meta: "nope"},
		&MetaRef{Col: "when", Indicator: "creation_time", Meta: "credibility"},
		&SrcContains{Col: "name", Source: "nexis"},
		&SrcContains{Col: "n", Source: "nexis"}, // tagged, no sources
		&Call{Name: "NOW"},
		&Call{Name: "AGE", Args: []Expr{&ColRef{Name: "when"}}},
		&Call{Name: "age", Args: []Expr{&IndRef{Col: "when", Indicator: "creation_time"}}},
		&Call{Name: "AGE", Args: []Expr{&ColRef{Name: "name"}}}, // type error per row
		&Call{Name: "LENGTH", Args: []Expr{&ColRef{Name: "name"}}},
		&Call{Name: "lower", Args: []Expr{&ColRef{Name: "name"}}},
		&Call{Name: "UPPER", Args: []Expr{&IndRef{Col: "n", Indicator: "source"}}},
		&Call{Name: "ABS", Args: []Expr{&Neg{E: &ColRef{Name: "n"}}}},
		&Call{Name: "ABS", Args: []Expr{&ColRef{Name: "price"}}},
		&Call{Name: "ABS", Args: []Expr{&ColRef{Name: "name"}}}, // type error per row
		&Call{Name: "YEAR", Args: []Expr{&ColRef{Name: "when"}}},
		&Call{Name: "YEAR", Args: []Expr{&ColRef{Name: "n"}}}, // type error per row
		&Call{Name: "COALESCE", Args: []Expr{&IndRef{Col: "name", Indicator: "source"}, &ColRef{Name: "name"}}},
		&Call{Name: "COALESCE", Args: []Expr{c(value.Null), &IndRef{Col: "price", Indicator: "source"}}},
		// Column-kernel shapes.
		&Cmp{Op: OpLe, L: &Call{Name: "AGE", Args: []Expr{&IndRef{Col: "when", Indicator: "creation_time"}}}, R: c(value.Duration(720 * time.Hour))},
		&Cmp{Op: OpGt, L: c(value.Duration(100 * 24 * time.Hour)), R: &Call{Name: "AGE", Args: []Expr{&ColRef{Name: "when"}}}},
		&Cmp{Op: OpEq, L: &MetaRef{Col: "n", Indicator: "source", Meta: "credibility"}, R: c(value.Str("high"))},
		&Logic{Op: OpAnd, L: &SrcContains{Col: "name", Source: "nexis"},
			R: &Cmp{Op: OpGe, L: &Call{Name: "AGE", Args: []Expr{&ColRef{Name: "name"}}}, R: c(value.Duration(0))}},
	}
}

// TestCompileMatchesEval pins the compiled evaluators to the interpreted
// ones: same value or same error, over a populated row and an all-null row.
func TestCompileMatchesEval(t *testing.T) {
	nullRow := relation.Tuple{Cells: make([]relation.Cell, 4)}
	for i := range nullRow.Cells {
		nullRow.Cells[i].V = value.Null
	}
	ctx := &EvalContext{Now: exprNow}
	for _, e := range compileCases() {
		if err := e.Bind(exprSchema()); err != nil {
			t.Fatalf("bind %s: %v", e.String(), err)
		}
		f := Compile(e)
		for _, row := range []relation.Tuple{exprRow(), nullRow} {
			want, wantErr := Reference(e, row, ctx)
			got, gotErr := f(row, ctx)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%s: reference err %v, compiled err %v", e.String(), wantErr, gotErr)
			}
			if wantErr == nil && !value.Equal(want, got) {
				t.Fatalf("%s: reference %v, compiled %v", e.String(), want, got)
			}
		}
	}
}

// TestCompilePredicateMatchesTruth pins CompilePredicate to Truth.
func TestCompilePredicateMatchesTruth(t *testing.T) {
	ctx := &EvalContext{Now: exprNow}
	row := exprRow()
	for _, e := range compileCases() {
		if err := e.Bind(exprSchema()); err != nil {
			t.Fatalf("bind %s: %v", e.String(), err)
		}
		want, wantErr := ReferenceTruth(e, row, ctx)
		got, gotErr := CompilePredicate(e)(row, ctx)
		if (wantErr == nil) != (gotErr == nil) || want != got {
			t.Fatalf("%s: ReferenceTruth=(%v,%v) compiled=(%v,%v)", e.String(), want, wantErr, got, gotErr)
		}
	}
}

// TestSimplifyFolds pins the bind-time rewrites: constant subtrees fold,
// Kleene identities collapse, and anything that could error or observe the
// clock stays put.
func TestSimplifyFolds(t *testing.T) {
	c := func(v value.Value) Expr { return &Const{V: v} }
	x := func() Expr { return &Cmp{Op: OpGt, L: &ColRef{Name: "n"}, R: c(value.Int(5))} }
	cases := []struct {
		in   Expr
		want string // String() of the simplified tree
	}{
		{&Cmp{Op: OpEq, L: c(value.Int(1)), R: c(value.Int(1))}, "true"},
		{&Cmp{Op: OpEq, L: c(value.Int(1)), R: c(value.Int(2))}, "false"},
		{&Logic{Op: OpAnd, L: x(), R: c(value.Bool(false))}, "false"},
		{&Logic{Op: OpAnd, L: c(value.Bool(false)), R: x()}, "false"},
		{&Logic{Op: OpAnd, L: x(), R: c(value.Bool(true))}, x().String()},
		{&Logic{Op: OpOr, L: x(), R: c(value.Bool(true))}, "true"},
		{&Logic{Op: OpOr, L: c(value.Bool(false)), R: x()}, x().String()},
		// null is not a determined side: null AND x must survive.
		{&Logic{Op: OpAnd, L: c(value.Null), R: x()}, (&Logic{Op: OpAnd, L: c(value.Null), R: x()}).String()},
		{&Not{E: c(value.Bool(true))}, "false"},
		{&Arith{Op: OpAdd, L: c(value.Int(1)), R: c(value.Int(2))}, "3"},
		// Nested: (1 < 2 AND x) collapses to x.
		{&Logic{Op: OpAnd, L: &Cmp{Op: OpLt, L: c(value.Int(1)), R: c(value.Int(2))}, R: x()}, x().String()},
		// Division by zero must not fold: the error belongs to execution.
		{&Arith{Op: OpDiv, L: c(value.Int(1)), R: c(value.Int(0))}, "(1 / 0)"},
		// NOW() is statement-dependent; calls never fold.
		{&Cmp{Op: OpGe, L: &Call{Name: "NOW"}, R: &Call{Name: "NOW"}}, "(NOW() >= NOW())"},
		{&IsNull{E: c(value.Null)}, "true"},
		{&InList{E: c(value.Int(2)), List: []Expr{c(value.Int(1)), c(value.Int(2))}}, "true"},
	}
	for _, tc := range cases {
		in := tc.in.String()
		got := Simplify(tc.in).String()
		if got != tc.want {
			t.Errorf("Simplify(%s) = %s, want %s", in, got, tc.want)
		}
	}
}

// TestSimplifyPreservesSemantics: simplified trees evaluate identically to
// the originals over real rows, including three-valued edge cases.
func TestSimplifyPreservesSemantics(t *testing.T) {
	ctx := &EvalContext{Now: exprNow}
	row := exprRow()
	for _, e := range compileCases() {
		orig := CloneExpr(e)
		if err := orig.Bind(exprSchema()); err != nil {
			t.Fatalf("bind %s: %v", orig.String(), err)
		}
		want, wantErr := Reference(orig, row, ctx)

		simp := Simplify(CloneExpr(e))
		if err := simp.Bind(exprSchema()); err != nil {
			t.Fatalf("bind simplified %s: %v", simp.String(), err)
		}
		got, gotErr := Reference(simp, row, ctx)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: orig err %v, simplified err %v", e.String(), wantErr, gotErr)
		}
		if wantErr == nil && !value.Equal(want, got) {
			t.Fatalf("%s: orig %v, simplified (%s) %v", e.String(), want, simp.String(), got)
		}
	}
}

// TestConstTruth classifies constants the way a compiled Predicate would.
func TestConstTruth(t *testing.T) {
	cases := []struct {
		e              Expr
		truth, decided bool
	}{
		{&Const{V: value.Bool(true)}, true, true},
		{&Const{V: value.Bool(false)}, false, true},
		{&Const{V: value.Null}, false, true},
		{&Const{V: value.Int(1)}, false, true}, // non-bool is never "true"
		{&ColRef{Name: "n"}, false, false},
	}
	for _, tc := range cases {
		truth, decided := ConstTruth(tc.e)
		if truth != tc.truth || decided != tc.decided {
			t.Errorf("ConstTruth(%s) = (%v,%v), want (%v,%v)", tc.e.String(), truth, decided, tc.truth, tc.decided)
		}
	}
}

// TestCompiledQualityReadsDoNotAllocate: compiled indicator, meta and source
// reads and AGE over a tag cost no allocation on a populated row.
func TestCompiledQualityReadsDoNotAllocate(t *testing.T) {
	ctx := &EvalContext{Now: exprNow}
	row := exprRow()
	for _, e := range []Expr{
		&Call{Name: "AGE", Args: []Expr{&IndRef{Col: "when", Indicator: "creation_time"}}},
		&IndRef{Col: "n", Indicator: "source"},
		&MetaRef{Col: "n", Indicator: "source", Meta: "credibility"},
		&SrcContains{Col: "name", Source: "nexis"},
	} {
		if err := e.Bind(exprSchema()); err != nil {
			t.Fatal(err)
		}
		f := Compile(e)
		if v, err := f(row, ctx); err != nil || v.IsNull() {
			t.Fatalf("%s = %v, %v on a populated row", e.String(), v, err)
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = f(row, ctx) }); n != 0 {
			t.Errorf("%s allocates %v times per row, want 0", e.String(), n)
		}
	}
}
