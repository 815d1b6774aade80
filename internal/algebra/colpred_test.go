package algebra

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/tag"
	"repro/internal/value"
)

// colPredRows are rows over exprSchema crossing every way a kernel's
// operand can be present, absent, null, mistyped or extreme: untagged
// cells, a missing indicator and a null tag, a creation_time that is not a
// time, times more than 292 years either side of exprNow (where AGE's Sub
// saturates), meta sets present and absent, and sources that hit and miss.
// The order is shuffled so batch boundaries mix the cases.
func colPredRows() []relation.Tuple {
	ts := func(tags ...tag.Tag) tag.Set { return tag.NewSet(tags...) }
	tg := func(ind string, v value.Value) tag.Tag { return tag.Tag{Indicator: ind, Value: v} }
	cred := func(v value.Value) map[string]tag.Set {
		return map[string]tag.Set{"source": ts(tg("credibility", v))}
	}
	at := func(y int, m time.Month, d int) value.Value {
		return value.Time(time.Date(y, m, d, 0, 0, 0, 0, time.UTC))
	}
	stamped := func(v value.Value) relation.Cell { return relation.Cell{V: v, Tags: ts(tg("creation_time", v))} }

	names := []relation.Cell{
		{V: value.Str("Fruit Co"), Sources: tag.NewSources("nexis")},
		{V: value.Str("Nut Co"), Sources: tag.NewSources("dnb", "sales")},
		{V: value.Str("Fruit Co")},
		{V: value.Null},
	}
	ns := []relation.Cell{
		{V: value.Int(4004), Tags: ts(tg("source", value.Str("Nexis"))), Meta: cred(value.Str("high"))},
		{V: value.Int(7), Tags: ts(tg("source", value.Str("estimate"))), Meta: cred(value.Str("low"))},
		{V: value.Int(12), Tags: ts(tg("source", value.Null)), Meta: cred(value.Null)},
		{V: value.Int(5), Tags: ts(tg("source", value.Int(3))), Meta: cred(value.Int(2))},
		{V: value.Int(4004), Tags: ts(tg("source", value.Str("Nexis"))),
			Meta: map[string]tag.Set{"other": ts(tg("credibility", value.Str("high")))}},
		{V: value.Int(4004), Tags: ts(tg("source", value.Str("Nexis"))), Meta: cred(value.Str("high")),
			Sources: tag.NewSources("nexis")},
		{V: value.Int(4)},
		{V: value.Null},
	}
	prices := []relation.Cell{
		{V: value.Float(12.5)},
		{V: value.Float(250)},
		{V: value.Float(math.NaN())},
		{V: value.Null},
	}
	whens := []relation.Cell{
		stamped(at(1991, 10, 3)),                                    // 90 days before exprNow
		stamped(at(1991, 12, 20)),                                   // 12 days
		stamped(at(1991, 12, 2)),                                    // exactly 720h
		stamped(at(1400, 1, 1)),                                     // AGE saturates at the largest duration
		stamped(at(2400, 1, 1)),                                     // and at the smallest
		{V: at(1991, 6, 1), Tags: ts(tg("source", value.Str("x")))}, // missing indicator
		{V: at(1991, 6, 1), Tags: ts(tg("creation_time", value.Null))},
		{V: at(1991, 6, 1), Tags: ts(tg("creation_time", value.Str("yesterday")))},
		{V: at(1991, 6, 1), Tags: ts(tg("creation_time", value.Int(5)))},
		{V: value.Str("soon"), Tags: ts(tg("creation_time", value.Str("soon")))},
		{V: value.Null},
	}
	var rows []relation.Tuple
	for _, a := range names {
		for _, b := range ns {
			for _, c := range prices {
				for _, d := range whens {
					rows = append(rows, relation.Tuple{Cells: []relation.Cell{a, b, c, d}})
				}
			}
		}
	}
	r := rand.New(rand.NewSource(1))
	r.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	return rows
}

// kernelCases are predicates shaped for CompileColPred: every comparison
// operator on AGE with the constant on either side and over each operand
// kind, meta refs, SOURCE(), and AND/OR trees mixing leaves that may ask
// with leaves that never do — among them a left side that is null rather
// than false, after which the Kleene AND still evaluates (and may
// raise the error of) its right side.
func kernelCases() []Expr {
	c := func(v value.Value) Expr { return &Const{V: v} }
	age := func(arg Expr) Expr { return &Call{Name: "AGE", Args: []Expr{arg}} }
	stamp := func() Expr { return &IndRef{Col: "when", Indicator: "creation_time"} }
	cred := func() Expr { return &MetaRef{Col: "n", Indicator: "source", Meta: "credibility"} }
	d720 := c(value.Duration(720 * time.Hour))
	fresh := func() Expr { return &Cmp{Op: OpLe, L: age(stamp()), R: d720} }
	var out []Expr
	for op := OpEq; op <= OpGe; op++ {
		out = append(out,
			&Cmp{Op: op, L: age(stamp()), R: d720},
			&Cmp{Op: op, L: d720, R: age(stamp())},
			&Cmp{Op: op, L: age(&ColRef{Name: "when"}), R: c(value.Duration(100 * 24 * time.Hour))},
			&Cmp{Op: op, L: cred(), R: c(value.Str("high"))},
			&Cmp{Op: op, L: c(value.Str("low")), R: cred()},
		)
	}
	return append(out,
		&Cmp{Op: OpGt, L: age(stamp()), R: c(value.Int(5))},
		&Cmp{Op: OpLt, L: age(stamp()), R: c(value.Float(1.5e15))},
		&Cmp{Op: OpEq, L: age(stamp()), R: c(value.Null)},
		&Cmp{Op: OpNe, L: c(value.Null), R: age(stamp())},
		&Cmp{Op: OpLt, L: age(stamp()), R: c(value.Str("x"))},
		&Cmp{Op: OpGe, L: age(stamp()), R: c(value.Duration(math.MaxInt64))},
		&Cmp{Op: OpLe, L: age(stamp()), R: c(value.Duration(math.MinInt64))},
		&Cmp{Op: OpGt, L: age(cred()), R: c(value.Duration(time.Hour))},
		&Cmp{Op: OpNe, L: cred(), R: c(value.Null)},
		&Cmp{Op: OpEq, L: &MetaRef{Col: "when", Indicator: "creation_time", Meta: "credibility"}, R: c(value.Str("high"))},
		&SrcContains{Col: "name", Source: "nexis"},
		&SrcContains{Col: "n", Source: "nexis"},
		&Logic{Op: OpAnd, L: &SrcContains{Col: "name", Source: "nexis"}, R: fresh()},
		&Logic{Op: OpAnd, L: fresh(), R: &Cmp{Op: OpGt, L: &ColRef{Name: "n"}, R: c(value.Int(100))}},
		&Logic{Op: OpAnd, L: &Cmp{Op: OpGt, L: &ColRef{Name: "price"}, R: c(value.Float(100))}, R: fresh()},
		&Logic{Op: OpAnd, L: &Cmp{Op: OpEq, L: &IndRef{Col: "n", Indicator: "source"}, R: c(value.Str("Nexis"))}, R: fresh()},
		&Logic{Op: OpOr, L: fresh(), R: &Cmp{Op: OpLt, L: &ColRef{Name: "price"}, R: c(value.Float(100))}},
		&Logic{Op: OpOr, L: &Cmp{Op: OpEq, L: cred(), R: c(value.Str("high"))}, R: fresh()},
		&Logic{Op: OpOr, L: fresh(), R: &Cmp{Op: OpGt, L: age(&ColRef{Name: "when"}), R: c(value.Duration(0))}},
		&Logic{Op: OpAnd,
			L: &Logic{Op: OpOr, L: &SrcContains{Col: "n", Source: "nexis"}, R: &Cmp{Op: OpLt, L: &ColRef{Name: "price"}, R: c(value.Float(100))}},
			R: &Logic{Op: OpAnd, L: fresh(), R: &Cmp{Op: OpNe, L: cred(), R: c(value.Str("low"))}}},
	)
}

// truthOf is the oracle's answer for one row: keep, or the error.
type truthOf struct {
	keep bool
	err  string
}

func truthAt(e Expr, row relation.Tuple, ctx *EvalContext) truthOf {
	keep, err := ReferenceTruth(e, row, ctx)
	if err != nil {
		return truthOf{err: err.Error()}
	}
	return truthOf{keep: keep}
}

// selEvery wraps a batch stream with a selection vector keeping every other
// slot of each batch, starting with the first, so kernels run under a
// selection.
type selEvery struct{ BatchIterator }

func (s selEvery) NextBatch(b *Batch) (bool, error) {
	for {
		ok, err := s.BatchIterator.NextBatch(b)
		if err != nil || !ok {
			return ok, err
		}
		sel := b.selBuf[:0]
		for i := 0; i < b.Len(); i += 2 {
			sel = append(sel, b.phys(i))
		}
		b.selBuf = sel
		if len(sel) > 0 {
			b.sel = sel
			return true, nil
		}
	}
}

// selectAnswer is what a row-at-a-time Select over rows would give: the
// kept rows up to the first error, and that error's text.
func selectAnswer(e Expr, rows []relation.Tuple, ctx *EvalContext) (kept []int, errText string) {
	for i, row := range rows {
		tr := truthAt(e, row, ctx)
		if tr.err != "" {
			return kept, tr.err
		}
		if tr.keep {
			kept = append(kept, i)
		}
	}
	return kept, ""
}

// TestColPredMatchesTruth holds every column kernel to ReferenceTruth, slot
// by slot and through the operators that run kernels: Keep and Drop must be
// its answer with no error, and wherever it errors the kernel must
// ask, so that the row predicate raises the same error. It runs at batch
// sizes 1, 3 and 1024, with and without a selection vector, over
// NewBatchSelect and over NewTableScan's filter at degrees 1 and 2.
func TestColPredMatchesTruth(t *testing.T) {
	ctx := &EvalContext{Now: exprNow}
	rows := colPredRows()
	sch := exprSchema()
	tbl := storage.NewTable(sch, false)
	var stored []relation.Tuple // the rows a table of the schema accepts, four times over
	for range 4 {
		for _, row := range rows {
			if _, err := tbl.Insert(row); err == nil {
				stored = append(stored, row)
			}
		}
	}
	if tbl.Segments() < 2 {
		t.Fatalf("table spans %d segment(s); the fanned-out scan needs two", tbl.Segments())
	}

	var cases []Expr
	for _, e := range append(compileCases(), kernelCases()...) {
		if err := e.Bind(sch); err != nil {
			t.Fatalf("bind %s: %v", e.String(), err)
		}
		if _, _, ok := CompileColPred(e, len(sch.Attrs), ctx); ok {
			cases = append(cases, e)
		}
	}
	if len(cases) < len(kernelCases()) {
		t.Fatalf("only %d cases compile to kernels", len(cases))
	}

	for _, e := range cases {
		k, defers, _ := CompileColPred(e, len(sch.Attrs), ctx)
		pred := CompilePredicate(e)
		asked := false
		for _, size := range []int{1, 3, 1024} {
			src := NewRelationScan(&relation.Relation{Schema: sch, Tuples: rows}, size)
			b := new(Batch)
			next := 0
			for {
				ok, err := src.NextBatch(b)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				for i := 0; i < b.Len(); i++ {
					p := b.phys(i)
					row := rows[next]
					next++
					want := truthAt(e, row, ctx)
					got := k(b.cols, p)
					switch {
					case got == Ask:
						asked = true
						keep, err := pred(b.scratchRowAt(p, ReferencedCols(e)), ctx)
						g := truthOf{keep: keep}
						if err != nil {
							g = truthOf{err: err.Error()}
						}
						if g != want {
							t.Fatalf("%s, row %d: asked, row predicate %+v, ReferenceTruth %+v", e.String(), next-1, g, want)
						}
					case want.err != "":
						t.Fatalf("%s, row %d: kernel answered %v where ReferenceTruth errors: %s", e.String(), next-1, got, want.err)
					case (got == Keep) != want.keep:
						t.Fatalf("%s, row %d: kernel %v, ReferenceTruth keep=%v", e.String(), next-1, got, want.keep)
					}
				}
			}
			if asked && !defers {
				t.Fatalf("%s: kernel asked but CompileColPred reported it never defers", e.String())
			}

			// The operators: all rows, the rows ReferenceTruth does not error on,
			// and every other row of each batch.
			clean := rows[:0:0]
			for _, row := range rows {
				if truthAt(e, row, ctx).err == "" {
					clean = append(clean, row)
				}
			}
			for _, in := range [][]relation.Tuple{rows, clean} {
				for _, withSel := range []bool{false, true} {
					var src BatchIterator = NewRelationScan(&relation.Relation{Schema: sch, Tuples: in}, size)
					want := in
					if withSel {
						src = selEvery{src}
						want = nil
						for start := 0; start < len(in); start += size {
							for i := start; i < min(start+size, len(in)); i += 2 {
								want = append(want, in[i])
							}
						}
					}
					checkSelect(t, e, src, want, ctx, size)
				}
			}
		}
		for _, degree := range []int{1, 2} {
			scan, err := NewTableScan(tbl, degree, DefaultBatchSize, sch.ColIndexes(), nil, []Expr{CloneExpr(e)}, ctx)
			if err != nil {
				t.Fatal(err)
			}
			wantKept, wantErr := selectAnswer(e, stored, ctx)
			got, err := Collect(scan)
			if wantErr != "" {
				// Workers race to a failing segment: the error must be one
				// ReferenceTruth raises on some stored row.
				if err == nil || (degree == 1 && err.Error() != wantErr) || !someRowErrs(e, stored, ctx, err.Error()) {
					t.Fatalf("%s, scan ×%d: err %v, want %s", e.String(), degree, err, wantErr)
				}
				continue
			}
			if err != nil || got.Len() != len(wantKept) {
				t.Fatalf("%s, scan ×%d: %v rows, err %v; want %d rows", e.String(), degree, got, err, len(wantKept))
			}
			for i, j := range wantKept {
				if !got.Tuples[i].Equal(stored[j]) {
					t.Fatalf("%s, scan ×%d: row %d = %v, want %v", e.String(), degree, i, got.Tuples[i], stored[j])
				}
			}
		}
	}
}

func someRowErrs(e Expr, rows []relation.Tuple, ctx *EvalContext, text string) bool {
	for _, row := range rows {
		if truthAt(e, row, ctx).err == text {
			return true
		}
	}
	return false
}

// checkSelect runs NewBatchSelect over src and compares it with a
// row-at-a-time Select over the rows src delivers.
func checkSelect(t *testing.T, e Expr, src BatchIterator, in []relation.Tuple, ctx *EvalContext, size int) {
	t.Helper()
	sel, err := NewBatchSelect(src, CloneExpr(e), ctx)
	if err != nil {
		t.Fatal(err)
	}
	wantKept, wantErr := selectAnswer(e, in, ctx)
	got, err := Collect(sel)
	if wantErr != "" || err != nil {
		if err == nil || err.Error() != wantErr {
			t.Fatalf("%s, size %d: err %v, want %q", e.String(), size, err, wantErr)
		}
		return
	}
	if got.Len() != len(wantKept) {
		t.Fatalf("%s, size %d: %d rows, want %d", e.String(), size, got.Len(), len(wantKept))
	}
	for i, j := range wantKept {
		if !got.Tuples[i].Equal(in[j]) {
			t.Fatalf("%s, size %d: row %d = %v, want %v", e.String(), size, i, got.Tuples[i], in[j])
		}
	}
}
