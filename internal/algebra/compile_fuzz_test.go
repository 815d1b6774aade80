package algebra

import (
	"math"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/value"
)

// exprDecoder turns fuzz bytes into a bound-able expression tree over
// exprSchema. Every byte string decodes to some tree; an exhausted input
// reads as zeros, which end the tree in leaves.
type exprDecoder struct{ b []byte }

func (d *exprDecoder) next() byte {
	if len(d.b) == 0 {
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

var (
	fuzzCols  = []string{"name", "n", "price", "when"}
	fuzzInds  = []string{"source", "creation_time", "nope"}
	fuzzMetas = []string{"credibility", "nope"}
	fuzzConst = []value.Value{
		value.Null, value.Int(0), value.Int(5), value.Int(4004), value.Float(12.5), value.Float(math.NaN()),
		value.Str("Nexis"), value.Str("high"), value.Str("Fruit Co"), value.Bool(true), value.Bool(false),
		value.Time(time.Date(1991, 12, 2, 0, 0, 0, 0, time.UTC)), value.Duration(720 * time.Hour),
		value.Duration(0), value.Duration(math.MaxInt64), value.Duration(-time.Hour),
	}
	fuzzLike  = []string{"Fruit%", "%Co_", "N%s", "%"}
	fuzzUnary = []string{"LENGTH", "lower", "UPPER", "ABS", "YEAR"}
)

func (d *exprDecoder) pick(n int) int { return int(d.next()) % n }

func (d *exprDecoder) constant() Expr { return &Const{V: fuzzConst[d.pick(len(fuzzConst))]} }

// ref decodes a column, an indicator or a meta reference.
func (d *exprDecoder) ref() Expr {
	col := fuzzCols[d.pick(len(fuzzCols))]
	switch d.pick(3) {
	case 0:
		return &ColRef{Name: col}
	case 1:
		return &IndRef{Col: col, Indicator: fuzzInds[d.pick(len(fuzzInds))]}
	}
	return &MetaRef{Col: col, Indicator: fuzzInds[d.pick(len(fuzzInds))], Meta: fuzzMetas[d.pick(len(fuzzMetas))]}
}

func (d *exprDecoder) expr(depth int) Expr {
	op := d.next()
	if depth <= 0 {
		op %= 4 // leaves only
	}
	switch op % 17 {
	case 0:
		return d.ref()
	case 1:
		return d.constant()
	case 2:
		return &SrcContains{Col: fuzzCols[d.pick(len(fuzzCols))], Source: []string{"nexis", "dnb", "x"}[d.pick(3)]}
	case 3:
		return &Call{Name: "NOW"}
	case 4:
		return &Cmp{Op: CmpOp(d.pick(6)), L: d.expr(depth - 1), R: d.expr(depth - 1)}
	case 5, 6: // the kernel shapes: ref or AGE(ref) against a constant
		operand := d.ref()
		if d.next()%2 == 0 {
			operand = &Call{Name: "AGE", Args: []Expr{operand}}
		}
		if d.next()%2 == 0 {
			return &Cmp{Op: CmpOp(d.pick(6)), L: operand, R: d.constant()}
		}
		return &Cmp{Op: CmpOp(d.pick(6)), L: d.constant(), R: operand}
	case 7:
		return &Logic{Op: OpAnd, L: d.expr(depth - 1), R: d.expr(depth - 1)}
	case 8:
		return &Logic{Op: OpOr, L: d.expr(depth - 1), R: d.expr(depth - 1)}
	case 9:
		return &Not{E: d.expr(depth - 1)}
	case 10:
		return &IsNull{E: d.expr(depth - 1), Negate: d.next()%2 == 1}
	case 11:
		return &InList{E: d.expr(depth - 1), List: []Expr{d.constant(), &Const{V: value.Null}, d.constant()}, Negate: d.next()%2 == 1}
	case 12:
		return &Like{E: d.expr(depth - 1), Pattern: fuzzLike[d.pick(len(fuzzLike))], Negate: d.next()%2 == 1}
	case 13:
		return &Call{Name: "AGE", Args: []Expr{d.expr(depth - 1)}}
	case 14:
		return &Call{Name: "COALESCE", Args: []Expr{d.expr(depth - 1), d.expr(depth - 1)}}
	case 15:
		return &Call{Name: fuzzUnary[d.pick(len(fuzzUnary))], Args: []Expr{d.expr(depth - 1)}}
	}
	return &Arith{Op: ArithOp(d.pick(4)), L: d.expr(depth - 1), R: d.expr(depth - 1)}
}

// fuzzRows is every 23rd of colPredRows' shuffled rows: varied enough to
// meet each column's cases, few enough to evaluate per fuzz input.
func fuzzRows() []relation.Tuple {
	all := colPredRows()
	var out []relation.Tuple
	for i := 0; i < len(all); i += 23 {
		out = append(out, all[i])
	}
	return out
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// FuzzCompileMatchesEval decodes bytes into expression trees over
// exprSchema and requires the compiled forms to agree with the reference
// evaluator on every sample row and on the empty row INSERT evaluates
// over: Compile with Reference (same value and kind, or the same error
// text), CompilePredicate with ReferenceTruth, and the column kernel, where
// one exists, with ReferenceTruth on the sample rows — Keep and Drop only
// where ReferenceTruth answers that without error, and Ask only when
// CompileColPred said it might.
func FuzzCompileMatchesEval(f *testing.F) {
	f.Add([]byte{5, 1, 3, 1, 0, 0, 3, 12})  // AGE(when@creation_time) ⊗ d'720h'
	f.Add([]byte{6, 2, 1, 0, 1, 1, 1, 7})   // n@source@credibility ⊗ 'high'
	f.Add([]byte{7, 2, 0, 0, 5, 1, 1, 1})   // SOURCE() AND a kernel comparison
	f.Add([]byte{8, 13, 0, 3, 0, 4, 0, 1})  // AGE(...) OR ...
	f.Add([]byte{11, 9, 10, 12, 14, 15, 3}) // IN, NOT, IS NULL, LIKE, COALESCE, builtins
	f.Add([]byte{15, 0, 0, 1, 0})           // LENGTH(n): a string builtin over an int
	rows := fuzzRows()
	sch := exprSchema()
	rel := &relation.Relation{Schema: sch, Tuples: rows}
	ctx := &EvalContext{Now: exprNow}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &exprDecoder{b: data}
		e := d.expr(4)
		if err := e.Bind(sch); err != nil {
			t.Skip() // only trees the planner could hand over
		}
		compiled, pred := Compile(e), CompilePredicate(e)
		for i, row := range append(rows[:len(rows):len(rows)], relation.Tuple{}) {
			want, wantErr := Reference(e, row, ctx)
			got, gotErr := compiled(row, ctx)
			if errText(wantErr) != errText(gotErr) {
				t.Fatalf("%s, row %d: Reference err %v, Compile err %v", e.String(), i, wantErr, gotErr)
			}
			if wantErr == nil && (want.Kind() != got.Kind() || !value.Equal(want, got)) {
				t.Fatalf("%s, row %d: Reference %v, Compile %v", e.String(), i, want, got)
			}
			tk, tErr := ReferenceTruth(e, row, ctx)
			pk, pErr := pred(row, ctx)
			if tk != pk || errText(tErr) != errText(pErr) {
				t.Fatalf("%s, row %d: ReferenceTruth (%v, %v), CompilePredicate (%v, %v)", e.String(), i, tk, tErr, pk, pErr)
			}
		}
		k, defers, ok := CompileColPred(e, len(sch.Attrs), ctx)
		if !ok {
			return
		}
		b := new(Batch)
		if ok, err := NewRelationScan(rel, len(rows)).NextBatch(b); !ok || err != nil {
			t.Fatalf("batch: %v, %v", ok, err)
		}
		for i, row := range rows {
			tk, tErr := ReferenceTruth(e, row, ctx)
			switch v := k(b.cols, int32(i)); {
			case v == Ask:
				if !defers {
					t.Fatalf("%s, row %d: kernel asked but CompileColPred said it never would", e.String(), i)
				}
			case tErr != nil:
				t.Fatalf("%s, row %d: kernel answered %v where ReferenceTruth errors: %v", e.String(), i, v, tErr)
			case (v == Keep) != tk:
				t.Fatalf("%s, row %d: kernel %v, ReferenceTruth %v", e.String(), i, v, tk)
			}
		}
	})
}
