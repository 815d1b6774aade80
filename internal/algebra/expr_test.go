package algebra

import (
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/tag"
	"repro/internal/value"
)

var exprNow = time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC)

func exprSchema() *schema.Schema {
	return schema.MustNew("t", []schema.Attr{
		{Name: "name", Kind: value.KindString},
		{Name: "n", Kind: value.KindInt},
		{Name: "price", Kind: value.KindFloat},
		{Name: "when", Kind: value.KindTime},
	})
}

func exprRow() relation.Tuple {
	created := time.Date(1991, 10, 3, 0, 0, 0, 0, time.UTC)
	return relation.Tuple{Cells: []relation.Cell{
		{V: value.Str("Fruit Co"), Sources: tag.NewSources("nexis")},
		{V: value.Int(4004), Tags: tag.NewSet(tag.Tag{Indicator: "source", Value: value.Str("Nexis")}),
			Meta: map[string]tag.Set{"source": tag.NewSet(tag.Tag{Indicator: "credibility", Value: value.Str("high")})}},
		{V: value.Float(12.5)},
		{V: value.Time(created), Tags: tag.NewSet(tag.Tag{Indicator: "creation_time", Value: value.Time(created)})},
	}}
}

func evalOn(t *testing.T, e Expr) value.Value {
	t.Helper()
	if err := e.Bind(exprSchema()); err != nil {
		t.Fatalf("bind %s: %v", e.String(), err)
	}
	v, err := Reference(e, exprRow(), &EvalContext{Now: exprNow})
	if err != nil {
		t.Fatalf("eval %s: %v", e.String(), err)
	}
	return v
}

func TestColAndIndicatorRefs(t *testing.T) {
	if v := evalOn(t, &ColRef{Name: "name"}); v.AsString() != "Fruit Co" {
		t.Errorf("col ref = %v", v)
	}
	if v := evalOn(t, &IndRef{Col: "n", Indicator: "source"}); v.AsString() != "Nexis" {
		t.Errorf("ind ref = %v", v)
	}
	if v := evalOn(t, &IndRef{Col: "name", Indicator: "source"}); !v.IsNull() {
		t.Errorf("missing indicator should be null, got %v", v)
	}
	bad := &ColRef{Name: "nope"}
	if err := bad.Bind(exprSchema()); err == nil {
		t.Error("bind of unknown column should fail")
	}
	badInd := &IndRef{Col: "nope", Indicator: "x"}
	if err := badInd.Bind(exprSchema()); err == nil {
		t.Error("bind of unknown indicator column should fail")
	}
}

func TestSrcContains(t *testing.T) {
	if v := evalOn(t, &SrcContains{Col: "name", Source: "nexis"}); !v.AsBool() {
		t.Error("SOURCE(name,'nexis') should be true")
	}
	if v := evalOn(t, &SrcContains{Col: "name", Source: "wsj"}); v.AsBool() {
		t.Error("SOURCE(name,'wsj') should be false")
	}
}

func TestComparisonsAndNulls(t *testing.T) {
	cases := []struct {
		e    Expr
		want value.Value
	}{
		{&Cmp{OpEq, &ColRef{Name: "n"}, &Const{value.Int(4004)}}, value.Bool(true)},
		{&Cmp{OpNe, &ColRef{Name: "n"}, &Const{value.Int(4004)}}, value.Bool(false)},
		{&Cmp{OpLt, &ColRef{Name: "price"}, &Const{value.Int(13)}}, value.Bool(true)},
		{&Cmp{OpGe, &ColRef{Name: "price"}, &Const{value.Float(12.5)}}, value.Bool(true)},
		{&Cmp{OpGt, &ColRef{Name: "n"}, &Const{value.Null}}, value.Null},
		{&Cmp{OpLe, &ColRef{Name: "n"}, &Const{value.Int(4004)}}, value.Bool(true)},
	}
	for _, tc := range cases {
		got := evalOn(t, tc.e)
		if !value.Equal(got, tc.want) || got.IsNull() != tc.want.IsNull() {
			t.Errorf("%s = %v, want %v", tc.e.String(), got, tc.want)
		}
	}
}

func TestKleeneLogic(t *testing.T) {
	tr := &Const{value.Bool(true)}
	fa := &Const{value.Bool(false)}
	nl := &Const{value.Null}
	cases := []struct {
		e    Expr
		want value.Value
	}{
		{&Logic{OpAnd, tr, tr}, value.Bool(true)},
		{&Logic{OpAnd, tr, fa}, value.Bool(false)},
		{&Logic{OpAnd, fa, nl}, value.Bool(false)},
		{&Logic{OpAnd, nl, fa}, value.Bool(false)},
		{&Logic{OpAnd, tr, nl}, value.Null},
		{&Logic{OpAnd, nl, nl}, value.Null},
		{&Logic{OpOr, fa, fa}, value.Bool(false)},
		{&Logic{OpOr, fa, tr}, value.Bool(true)},
		{&Logic{OpOr, nl, tr}, value.Bool(true)},
		{&Logic{OpOr, tr, nl}, value.Bool(true)},
		{&Logic{OpOr, fa, nl}, value.Null},
		{&Logic{OpOr, nl, nl}, value.Null},
	}
	for _, tc := range cases {
		got := evalOn(t, tc.e)
		if !value.Equal(got, tc.want) || got.IsNull() != tc.want.IsNull() {
			t.Errorf("%s = %v, want %v", tc.e.String(), got, tc.want)
		}
	}
	if got := evalOn(t, &Not{tr}); got.AsBool() {
		t.Error("NOT true = true?")
	}
	if got := evalOn(t, &Not{nl}); !got.IsNull() {
		t.Error("NOT null should be null")
	}
}

func TestArithExprAndNeg(t *testing.T) {
	if v := evalOn(t, &Arith{OpAdd, &ColRef{Name: "n"}, &Const{value.Int(1)}}); v.AsInt() != 4005 {
		t.Errorf("n+1 = %v", v)
	}
	if v := evalOn(t, &Arith{OpMul, &ColRef{Name: "price"}, &Const{value.Int(2)}}); v.AsFloat() != 25 {
		t.Errorf("price*2 = %v", v)
	}
	if v := evalOn(t, &Neg{&ColRef{Name: "n"}}); v.AsInt() != -4004 {
		t.Errorf("-n = %v", v)
	}
}

func TestIsNullInListLike(t *testing.T) {
	if v := evalOn(t, &IsNull{E: &Const{value.Null}}); !v.AsBool() {
		t.Error("null IS NULL should be true")
	}
	if v := evalOn(t, &IsNull{E: &ColRef{Name: "n"}, Negate: true}); !v.AsBool() {
		t.Error("n IS NOT NULL should be true")
	}
	in := &InList{E: &ColRef{Name: "name"}, List: []Expr{&Const{value.Str("Nut Co")}, &Const{value.Str("Fruit Co")}}}
	if v := evalOn(t, in); !v.AsBool() {
		t.Error("IN should match")
	}
	notIn := &InList{E: &ColRef{Name: "name"}, List: []Expr{&Const{value.Str("Nut Co")}}, Negate: true}
	if v := evalOn(t, notIn); !v.AsBool() {
		t.Error("NOT IN should hold")
	}
	inNull := &InList{E: &ColRef{Name: "name"}, List: []Expr{&Const{value.Str("X")}, &Const{value.Null}}}
	if v := evalOn(t, inNull); !v.IsNull() {
		t.Error("IN with null member and no match should be null")
	}
	lk := &Like{E: &ColRef{Name: "name"}, Pattern: "Fruit%"}
	if v := evalOn(t, lk); !v.AsBool() {
		t.Error("LIKE 'Fruit%' should match")
	}
	lk2 := &Like{E: &ColRef{Name: "name"}, Pattern: "F_uit Co"}
	if v := evalOn(t, lk2); !v.AsBool() {
		t.Error("LIKE with _ should match")
	}
	lk3 := &Like{E: &ColRef{Name: "name"}, Pattern: "Nut%", Negate: true}
	if v := evalOn(t, lk3); !v.AsBool() {
		t.Error("NOT LIKE should hold")
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		pat, s string
		want   bool
	}{
		{"%", "", true}, {"%", "abc", true}, {"", "", true}, {"", "a", false},
		{"a%", "abc", true}, {"%c", "abc", true}, {"%b%", "abc", true},
		{"a_c", "abc", true}, {"a_c", "ac", false}, {"abc", "abc", true},
		{"a%c%e", "abcde", true}, {"a%ce", "abcde", false},
		{"%%", "x", true}, {"_", "x", true}, {"_", "", false},
	}
	for _, tc := range cases {
		if got := likeMatch(tc.pat, tc.s); got != tc.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", tc.pat, tc.s, got, tc.want)
		}
	}
}

func TestBuiltinCalls(t *testing.T) {
	if v := evalOn(t, &Call{Name: "now"}); !v.AsTime().Equal(exprNow) {
		t.Errorf("NOW() = %v", v)
	}
	age := evalOn(t, &Call{Name: "age", Args: []Expr{&ColRef{Name: "when"}}})
	wantAge := exprNow.Sub(time.Date(1991, 10, 3, 0, 0, 0, 0, time.UTC))
	if age.AsDuration() != wantAge {
		t.Errorf("AGE = %v, want %v", age, wantAge)
	}
	if v := evalOn(t, &Call{Name: "length", Args: []Expr{&ColRef{Name: "name"}}}); v.AsInt() != 8 {
		t.Errorf("LENGTH = %v", v)
	}
	if v := evalOn(t, &Call{Name: "lower", Args: []Expr{&ColRef{Name: "name"}}}); v.AsString() != "fruit co" {
		t.Errorf("LOWER = %v", v)
	}
	if v := evalOn(t, &Call{Name: "upper", Args: []Expr{&ColRef{Name: "name"}}}); v.AsString() != "FRUIT CO" {
		t.Errorf("UPPER = %v", v)
	}
	if v := evalOn(t, &Call{Name: "abs", Args: []Expr{&Const{value.Int(-4)}}}); v.AsInt() != 4 {
		t.Errorf("ABS = %v", v)
	}
	if v := evalOn(t, &Call{Name: "abs", Args: []Expr{&Const{value.Float(-2.5)}}}); v.AsFloat() != 2.5 {
		t.Errorf("ABS float = %v", v)
	}
	if v := evalOn(t, &Call{Name: "year", Args: []Expr{&ColRef{Name: "when"}}}); v.AsInt() != 1991 {
		t.Errorf("YEAR = %v", v)
	}
	co := &Call{Name: "coalesce", Args: []Expr{&Const{value.Null}, &Const{value.Int(7)}}}
	if v := evalOn(t, co); v.AsInt() != 7 {
		t.Errorf("COALESCE = %v", v)
	}
	bad := &Call{Name: "frobnicate", Args: nil}
	if err := bad.Bind(exprSchema()); err == nil {
		t.Error("unknown function should fail Bind")
	}
	badArity := &Call{Name: "age"}
	if err := badArity.Bind(exprSchema()); err == nil {
		t.Error("wrong arity should fail Bind")
	}
}

func TestReferencedCols(t *testing.T) {
	e := &Arith{OpAdd, &ColRef{Name: "n"}, &Arith{OpMul, &IndRef{Col: "price", Indicator: "x"}, &ColRef{Name: "n"}}}
	if err := e.Bind(exprSchema()); err != nil {
		t.Fatal(err)
	}
	cols := ReferencedCols(e)
	if len(cols) != 2 || cols[0] != 1 || cols[1] != 2 {
		t.Errorf("ReferencedCols = %v, want [1 2]", cols)
	}
}

func TestExprStrings(t *testing.T) {
	e := &Logic{OpAnd,
		&Cmp{OpGt, &ColRef{Name: "n"}, &Const{value.Int(3)}},
		&Like{E: &ColRef{Name: "name"}, Pattern: "F%"}}
	want := "((n > 3) AND (name LIKE 'F%'))"
	if got := e.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if got := (&IndRef{Col: "a", Indicator: "src"}).String(); got != "a@src" {
		t.Errorf("IndRef string = %q", got)
	}
}
