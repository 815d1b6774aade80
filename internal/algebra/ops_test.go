package algebra

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/tag"
	"repro/internal/value"
)

var opsNow = time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC)

func ctx() *EvalContext { return &EvalContext{Now: opsNow} }

func tradesSchema() *schema.Schema {
	return schema.MustNew("trade", []schema.Attr{
		{Name: "acct", Kind: value.KindInt},
		{Name: "ticker", Kind: value.KindString},
		{Name: "qty", Kind: value.KindInt},
		{Name: "price", Kind: value.KindFloat},
	})
}

func stocksSchema() *schema.Schema {
	return schema.MustNew("stock", []schema.Attr{
		{Name: "symbol", Kind: value.KindString},
		{Name: "last", Kind: value.KindFloat},
	})
}

func tradesRel() *relation.Relation {
	r := relation.New(tradesSchema())
	rows := []struct {
		acct  int64
		tick  string
		qty   int64
		price float64
		src   string
	}{
		{1, "IBM", 100, 98.5, "feedA"},
		{1, "DEC", 50, 22.0, "feedB"},
		{2, "IBM", 200, 99.0, "feedA"},
		{3, "HP", 75, 44.0, "feedC"},
		{2, "DEC", 10, 21.5, "feedB"},
	}
	for _, row := range rows {
		tags := tag.NewSet(tag.Tag{Indicator: "source", Value: value.Str(row.src)})
		r.Tuples = append(r.Tuples, relation.Tuple{Cells: []relation.Cell{
			{V: value.Int(row.acct)},
			{V: value.Str(row.tick), Tags: tags, Sources: tag.NewSources(row.src)},
			{V: value.Int(row.qty), Tags: tags, Sources: tag.NewSources(row.src)},
			{V: value.Float(row.price), Tags: tags, Sources: tag.NewSources(row.src)},
		}})
	}
	return r
}

func stocksRel() *relation.Relation {
	r := relation.New(stocksSchema())
	for _, row := range []struct {
		sym  string
		last float64
	}{{"IBM", 99.25}, {"DEC", 21.75}, {"HP", 43.5}, {"SUN", 30.0}} {
		r.Tuples = append(r.Tuples, relation.Tuple{Cells: []relation.Cell{
			{V: value.Str(row.sym), Sources: tag.NewSources("exchange")},
			{V: value.Float(row.last), Sources: tag.NewSources("exchange")},
		}})
	}
	return r
}

func drain(t *testing.T, it BatchIterator) *relation.Relation {
	t.Helper()
	out, err := Collect(it)
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	return out
}

func TestSelect(t *testing.T) {
	pred := &Cmp{OpGt, &ColRef{Name: "qty"}, &Const{value.Int(60)}}
	it, err := newRefSelect(rowsOf(tradesRel()), pred, ctx())
	if err != nil {
		t.Fatal(err)
	}
	out := drainRows(t, it)
	if out.Len() != 3 {
		t.Fatalf("select kept %d rows", out.Len())
	}
	// Tags survive selection.
	for _, tup := range out.Tuples {
		if !tup.Cells[1].Tags.Has("source") {
			t.Error("selection dropped tags")
		}
	}
}

func TestSelectOverIndicator(t *testing.T) {
	pred := &Cmp{OpEq, &IndRef{Col: "qty", Indicator: "source"}, &Const{value.Str("feedA")}}
	it, err := newRefSelect(rowsOf(tradesRel()), pred, ctx())
	if err != nil {
		t.Fatal(err)
	}
	out := drainRows(t, it)
	if out.Len() != 2 {
		t.Fatalf("quality select kept %d rows, want 2", out.Len())
	}
}

// project runs NewBatchProject over a relation streamed at one batch size.
func project(t *testing.T, in *relation.Relation, items []ProjectItem, size int) BatchIterator {
	t.Helper()
	it, err := NewBatchProject(NewRelationScan(in, size), items, ctx(), size)
	if err != nil {
		t.Fatal(err)
	}
	return it
}

func TestProjectPlainAndComputed(t *testing.T) {
	for _, size := range batchSizes {
		items := []ProjectItem{
			{Expr: &ColRef{Name: "ticker"}},
			{Expr: &Arith{OpMul, &ColRef{Name: "qty"}, &ColRef{Name: "price"}}, As: "notional"},
		}
		out := drain(t, project(t, tradesRel(), items, size))
		if out.Len() != 5 {
			t.Fatalf("size %d: project emitted %d rows", size, out.Len())
		}
		if out.Schema.Attrs[0].Name != "ticker" || out.Schema.Attrs[1].Name != "notional" {
			t.Fatalf("size %d: schema = %v", size, out.Schema)
		}
		first := out.Tuples[0]
		// Plain column keeps tags; computed cell keeps unanimous tags and
		// unions sources.
		if !first.Cells[0].Tags.Has("source") {
			t.Errorf("size %d: plain projection dropped tags", size)
		}
		if got := first.Cells[1].V.AsFloat(); got != 100*98.5 {
			t.Errorf("size %d: notional = %v", size, got)
		}
		if got := out.Tuples[4].Cells[1].V.AsFloat(); got != 10*21.5 {
			t.Errorf("size %d: last notional = %v", size, got)
		}
		if v, ok := first.Cells[1].Tags.Get("source"); !ok || v.AsString() != "feedA" {
			t.Errorf("size %d: derived cell should keep unanimous source tag", size)
		}
		if !first.Cells[1].Sources.Equal(tag.NewSources("feedA")) {
			t.Errorf("size %d: derived sources = %v", size, first.Cells[1].Sources)
		}
	}
}

func TestProjectDefaultNames(t *testing.T) {
	for _, size := range batchSizes {
		items := []ProjectItem{{Expr: &Arith{OpAdd, &ColRef{Name: "qty"}, &Const{value.Int(1)}}}}
		it := project(t, tradesRel(), items, size)
		if it.Schema().Attrs[0].Name != "col1" {
			t.Errorf("size %d: default name = %q", size, it.Schema().Attrs[0].Name)
		}
		if out := drain(t, it); out.Tuples[2].Cells[0].V.AsInt() != 201 {
			t.Errorf("size %d: qty + 1 of row 2 = %v", size, out.Tuples[2].Cells[0].V)
		}
	}
}

func TestRename(t *testing.T) {
	it, err := newRefRename(rowsOf(tradesRel()), "t2", map[string]string{"acct": "account"})
	if err != nil {
		t.Fatal(err)
	}
	if it.Schema().Name != "t2" || it.Schema().ColIndex("account") != 0 {
		t.Fatalf("rename schema = %v", it.Schema())
	}
	if _, err := newRefRename(rowsOf(tradesRel()), "", map[string]string{"zz": "y"}); err == nil {
		t.Error("rename of unknown column should fail")
	}
}

// joinRels joins two relations with NewBatchHashJoin at every batch size,
// requires byte-identical output across sizes, and returns it.
func joinRels(t *testing.T, l, r *relation.Relation, lk, rk, residual Expr) *relation.Relation {
	t.Helper()
	var first *relation.Relation
	for _, size := range batchSizes {
		j, err := NewBatchHashJoin(NewRelationScan(l, size), NewRelationScan(r, size),
			lk, rk, residual, nil, ctx(), size)
		if err != nil {
			t.Fatal(err)
		}
		out := drain(t, j)
		if first == nil {
			first = out
			continue
		}
		sameRelation(t, first, out, fmt.Sprintf("join at batch size %d", size))
	}
	return first
}

// trueKeys are the constant join keys that make NewBatchHashJoin a
// nested-loop join over its residual.
func trueKeys() (Expr, Expr) { return &Const{V: value.Bool(true)}, &Const{V: value.Bool(true)} }

func TestNestedLoopJoin(t *testing.T) {
	pred := &Cmp{OpEq, &ColRef{Name: "ticker"}, &ColRef{Name: "symbol"}}
	lk, rk := trueKeys()
	out := joinRels(t, tradesRel(), stocksRel(), lk, rk, pred)
	if out.Len() != 5 {
		t.Fatalf("join produced %d rows, want 5", out.Len())
	}
	// Joined cells keep their original provenance.
	for _, tup := range out.Tuples {
		if !tup.Cells[1].Tags.Has("source") {
			t.Error("left tags lost in join")
		}
		if !tup.Cells[5].Sources.Contains("exchange") {
			t.Error("right sources lost in join")
		}
	}
}

func TestCrossProduct(t *testing.T) {
	lk, rk := trueKeys()
	out := joinRels(t, tradesRel(), stocksRel(), lk, rk, nil)
	if out.Len() != 5*4 {
		t.Fatalf("cross product = %d rows", out.Len())
	}
	// Left stream order × build order.
	if got := out.Tuples[5].Cells[1].V.AsString() + "/" + out.Tuples[5].Cells[4].V.AsString(); got != "DEC/DEC" {
		t.Errorf("cross product row 5 = %s, want DEC/DEC", got)
	}
}

// TestHashJoinMatchesNestedLoop: keyed on ticker = symbol, the join gives
// byte for byte what the nested-loop form gives with the comparison as its
// residual.
func TestHashJoinMatchesNestedLoop(t *testing.T) {
	hout := joinRels(t, tradesRel(), stocksRel(), &ColRef{Name: "ticker"}, &ColRef{Name: "symbol"}, nil)
	lk, rk := trueKeys()
	nout := joinRels(t, tradesRel(), stocksRel(), lk, rk, &Cmp{OpEq, &ColRef{Name: "ticker"}, &ColRef{Name: "symbol"}})
	sameRelation(t, nout, hout, "hash join vs nested loop")
}

func TestHashJoinResidual(t *testing.T) {
	residual := &Cmp{OpGt, &ColRef{Name: "qty"}, &Const{value.Int(60)}}
	out := joinRels(t, tradesRel(), stocksRel(), &ColRef{Name: "ticker"}, &ColRef{Name: "symbol"}, residual)
	if out.Len() != 3 {
		t.Fatalf("residual join = %d rows, want 3", out.Len())
	}
}

func TestJoinSchemaCollision(t *testing.T) {
	// Self-join: all columns collide and get prefixed.
	lk, rk := trueKeys()
	s := joinRels(t, tradesRel(), tradesRel(), lk, rk, nil).Schema
	if s.ColIndex("trade_acct") < 0 {
		t.Errorf("collision should qualify names, got %v", s.AttrNames())
	}
}

// TestDistinctDropsDuplicates: a relation holding every row twice comes
// out of Distinct once per row, in first-seen order, keeping each first
// occurrence's tags and sources.
func TestDistinctDropsDuplicates(t *testing.T) {
	for _, size := range batchSizes {
		twice := relation.New(tradesSchema())
		twice.Tuples = append(append(twice.Tuples, tradesRel().Tuples...), tradesRel().Tuples...)
		twice.Tuples[5].Cells[1].Tags = tag.Set{}
		twice.Tuples[5].Cells[1].Sources = tag.NewSources("late")
		out := drain(t, NewDistinct(NewRelationScan(twice, size)))
		if out.Len() != 5 {
			t.Fatalf("size %d: distinct = %d rows", size, out.Len())
		}
		for i, tup := range out.Tuples {
			if !tup.Equal(tradesRel().Tuples[i]) {
				t.Fatalf("size %d: row %d = %v, want the first occurrence %v", size, i, tup, tradesRel().Tuples[i])
			}
		}
		if !out.Tuples[0].Cells[1].Tags.Has("source") || !out.Tuples[0].Cells[1].Sources.Equal(tag.NewSources("feedA")) {
			t.Errorf("size %d: distinct should keep the first occurrence's tags and sources", size)
		}
	}
}

// TestDistinctMatchesLiterals: Distinct treats values as duplicates
// exactly when their QQL literals match — Int(1) and Float(1) are one
// value, +0 and -0 are two — across batches and hash collisions alike.
func TestDistinctMatchesLiterals(t *testing.T) {
	sch := schema.MustNew("d", []schema.Attr{{Name: "x"}, {Name: "y", Kind: value.KindString}})
	rel := relation.New(sch)
	for _, row := range [][2]value.Value{
		{value.Int(1), value.Str("a")},
		{value.Float(1), value.Str("a")},
		{value.Float(0), value.Str("b")},
		{value.Float(math.Copysign(0, -1)), value.Str("b")},
		{value.Null, value.Str("a")},
		{value.Null, value.Str("a")},
		{value.Int(1), value.Str("b")},
	} {
		rel.Tuples = append(rel.Tuples, relation.NewTuple(row[0], row[1]))
	}
	for _, size := range batchSizes {
		out := drain(t, NewDistinct(NewRelationScan(rel, size)))
		var got []string
		for _, tup := range out.Tuples {
			got = append(got, tup.Cells[0].V.Literal()+"/"+tup.Cells[1].V.Literal())
		}
		if want := "[1/'a' 0/'b' -0/'b' null/'a' 1/'b']"; fmt.Sprint(got) != want {
			t.Errorf("size %d: distinct = %v, want %s", size, got, want)
		}
	}
}

// aggRows runs the global or grouped batch aggregate over a relation.
func aggRows(t *testing.T, in *relation.Relation, groupBy []Expr, aggs []AggSpec) *relation.Relation {
	t.Helper()
	var it BatchIterator
	var err error
	if groupBy == nil {
		it, err = NewBatchAggregate(NewRelationScan(in, 0), aggs, ctx(), 0)
	} else {
		it, err = NewBatchGroupedAggregate(NewRelationScan(in, 0), groupBy, aggs, ctx(), 0)
	}
	if err != nil {
		t.Fatal(err)
	}
	return drain(t, it)
}

func TestAggregateGlobal(t *testing.T) {
	aggs := []AggSpec{
		{Fn: AggCount},
		{Fn: AggSum, Arg: &ColRef{Name: "qty"}, As: "total_qty"},
		{Fn: AggAvg, Arg: &ColRef{Name: "price"}, As: "avg_price"},
		{Fn: AggMin, Arg: &ColRef{Name: "qty"}, As: "min_qty"},
		{Fn: AggMax, Arg: &ColRef{Name: "qty"}, As: "max_qty"},
	}
	out := aggRows(t, tradesRel(), nil, aggs)
	if out.Len() != 1 {
		t.Fatalf("global aggregate rows = %d", out.Len())
	}
	row := out.Tuples[0]
	if row.Cells[0].V.AsInt() != 5 {
		t.Errorf("count = %v", row.Cells[0].V)
	}
	if row.Cells[1].V.AsInt() != 435 {
		t.Errorf("sum qty = %v", row.Cells[1].V)
	}
	if got := row.Cells[2].V.AsFloat(); got != (98.5+22.0+99.0+44.0+21.5)/5 {
		t.Errorf("avg price = %v", got)
	}
	if row.Cells[3].V.AsInt() != 10 || row.Cells[4].V.AsInt() != 200 {
		t.Errorf("min/max = %v/%v", row.Cells[3].V, row.Cells[4].V)
	}
	// Aggregate provenance: sources union across all contributing cells.
	if !row.Cells[1].Sources.Equal(tag.NewSources("feedA", "feedB", "feedC")) {
		t.Errorf("aggregate sources = %v", row.Cells[1].Sources)
	}
	// Conflicting source tags across groups are dropped.
	if row.Cells[1].Tags.Has("source") {
		t.Error("conflicting tags should be dropped from aggregates")
	}
}

func TestAggregateGroupBy(t *testing.T) {
	aggs := []AggSpec{{Fn: AggSum, Arg: &ColRef{Name: "qty"}, As: "qty"}}
	out := aggRows(t, tradesRel(), []Expr{&ColRef{Name: "ticker"}}, aggs)
	if out.Len() != 3 {
		t.Fatalf("groups = %d", out.Len())
	}
	byTicker := map[string]int64{}
	for _, tup := range out.Tuples {
		byTicker[tup.Cells[0].V.AsString()] = tup.Cells[1].V.AsInt()
	}
	want := map[string]int64{"IBM": 300, "DEC": 60, "HP": 75}
	for k, v := range want {
		if byTicker[k] != v {
			t.Errorf("sum(%s) = %d, want %d", k, byTicker[k], v)
		}
	}
	// Per-group source tag is unanimous within group, so it survives.
	for _, tup := range out.Tuples {
		if !tup.Cells[1].Tags.Has("source") {
			t.Errorf("group %v lost unanimous source tag", tup.Cells[0].V)
		}
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	empty := relation.New(tradesSchema())
	out := aggRows(t, empty, nil, []AggSpec{{Fn: AggCount}, {Fn: AggSum, Arg: &ColRef{Name: "qty"}}})
	if out.Len() != 1 {
		t.Fatalf("empty global aggregate rows = %d", out.Len())
	}
	if out.Tuples[0].Cells[0].V.AsInt() != 0 {
		t.Errorf("count over empty = %v", out.Tuples[0].Cells[0].V)
	}
	if !out.Tuples[0].Cells[1].V.IsNull() {
		t.Errorf("sum over empty should be null, got %v", out.Tuples[0].Cells[1].V)
	}
	// Grouped aggregate over empty input yields no rows.
	if got := aggRows(t, empty, []Expr{&ColRef{Name: "ticker"}}, []AggSpec{{Fn: AggCount}}).Len(); got != 0 {
		t.Errorf("grouped aggregate over empty = %d rows", got)
	}
}

func TestSortAndLimit(t *testing.T) {
	for _, size := range batchSizes {
		sorted := func(keys ...SortKey) BatchIterator {
			it, err := NewSort(NewRelationScan(tradesRel(), size), keys, ctx(), size)
			if err != nil {
				t.Fatal(err)
			}
			return it
		}
		qtys := func(out *relation.Relation) []int64 {
			var q []int64
			for _, tup := range out.Tuples {
				q = append(q, tup.Cells[2].V.AsInt())
			}
			return q
		}
		if got := qtys(drain(t, sorted(SortKey{Expr: &ColRef{Name: "qty"}, Desc: true}))); fmt.Sprint(got) != "[200 100 75 50 10]" {
			t.Errorf("size %d: sorted desc = %v", size, got)
		}
		lim := drain(t, NewBatchLimit(sorted(SortKey{Expr: &ColRef{Name: "qty"}}), 2, 1))
		if got := qtys(lim); fmt.Sprint(got) != "[50 75]" {
			t.Errorf("size %d: LIMIT 2 OFFSET 1 = %v, want [50 75]", size, got)
		}
		// Ties keep input order: acct 1 is IBM then DEC, acct 2 IBM then DEC.
		var tickers []string
		for _, tup := range drain(t, sorted(SortKey{Expr: &ColRef{Name: "acct"}, Desc: true})).Tuples {
			tickers = append(tickers, tup.Cells[1].V.AsString())
		}
		if fmt.Sprint(tickers) != "[HP IBM DEC IBM DEC]" {
			t.Errorf("size %d: sort by acct desc = %v, want [HP IBM DEC IBM DEC]", size, tickers)
		}
		if got := drain(t, NewBatchLimit(NewRelationScan(tradesRel(), size), -1, 0)).Len(); got != 5 {
			t.Errorf("size %d: unlimited limit = %d", size, got)
		}
		if got := drain(t, NewBatchLimit(sorted(SortKey{Expr: &ColRef{Name: "qty"}}), 3, 9)).Len(); got != 0 {
			t.Errorf("size %d: offset past the end = %d rows", size, got)
		}
	}
}

// TestSortIsStable: over many ties, at every batch size, rows with equal
// keys leave the sort in input order.
func TestSortIsStable(t *testing.T) {
	sch := schema.MustNew("s", []schema.Attr{{Name: "id", Kind: value.KindInt}, {Name: "k", Kind: value.KindInt}})
	rel := relation.New(sch)
	for i := 0; i < 500; i++ {
		rel.Tuples = append(rel.Tuples, relation.NewTuple(value.Int(int64(i)), value.Int(int64((i*7)%5))))
	}
	for _, size := range batchSizes {
		it, err := NewSort(NewRelationScan(rel, size), []SortKey{{Expr: &ColRef{Name: "k"}, Desc: true}}, ctx(), size)
		if err != nil {
			t.Fatal(err)
		}
		out := drain(t, it)
		for i := 1; i < out.Len(); i++ {
			prev, cur := out.Tuples[i-1].Cells, out.Tuples[i].Cells
			if k0, k1 := prev[1].V.AsInt(), cur[1].V.AsInt(); k0 < k1 || k0 == k1 && prev[0].V.AsInt() > cur[0].V.AsInt() {
				t.Fatalf("size %d: row %d (k %d, id %d) after (k %d, id %d)", size, i, k1, cur[0].V.AsInt(), k0, prev[0].V.AsInt())
			}
		}
	}
}

// TestSortLazyAndUnpooled: the sort pulls nothing until its first
// NextBatch, a key error surfaces with the evaluator's own text, and the
// windows it emits alias its own vectors — never a pooled batch — so they
// stay intact after the sort is stopped and the pool reused.
func TestSortLazyAndUnpooled(t *testing.T) {
	src := &errBatch{in: NewRelationScan(tradesRel(), 2), after: 1 << 30}
	it, err := NewSort(src, []SortKey{{Expr: &ColRef{Name: "qty"}}}, ctx(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if src.calls != 0 {
		t.Fatalf("building the sort pulled %d batches", src.calls)
	}

	b := getBatch(2)
	defer putBatch(b)
	if ok, err := it.NextBatch(b); !ok || err != nil {
		t.Fatalf("NextBatch = %v, %v", ok, err)
	}
	if src.calls != 4 { // three batches of ≤2 rows, then the end
		t.Errorf("first NextBatch pulled %d batches, want the whole input (4 calls)", src.calls)
	}
	it.(Stopper).Stop()
	for range 4 { // churn the pool: a pooled array would be overwritten
		x := getBatch(2)
		NewRelationScan(stocksRel(), 2).NextBatch(x)
		putBatch(x)
	}
	cells := make([]relation.Cell, 3)
	b.FillRow(0, []int{2}, cells)
	first := cells[2].V
	b.FillRow(1, []int{2}, cells)
	if got := fmt.Sprint(first, cells[2].V); got != "10 50" {
		t.Errorf("window after Stop = %s, want 10 50", got)
	}

	bad, err := NewSort(NewRelationScan(tradesRel(), 0), []SortKey{{Expr: &Arith{OpDiv, &ColRef{Name: "qty"}, &Const{value.Int(0)}}}}, ctx(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(bad); err == nil || err.Error() != "value: integer division by zero" {
		t.Errorf("sort key error = %v, want value: integer division by zero", err)
	}
}

func TestIndexScan(t *testing.T) {
	tbl := storage.NewTable(tradesSchema(), false)
	if err := tbl.Load(tradesRel()); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex(storage.IndexTarget{Attr: "qty"}, storage.IndexBTree); err != nil {
		t.Fatal(err)
	}
	it, err := NewIndexScan(tbl, storage.IndexTarget{Attr: "qty"},
		storage.Incl(value.Int(50)), storage.Incl(value.Int(100)), 0, tbl.Schema().ColIndexes(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := drain(t, it)
	if out.Len() != 3 {
		t.Fatalf("index scan = %d rows", out.Len())
	}
	// Indicator index scan.
	if err := tbl.CreateIndex(storage.IndexTarget{Attr: "qty", Indicator: "source"}, storage.IndexHash); err != nil {
		t.Fatal(err)
	}
	ids, err := tbl.LookupEq(storage.IndexTarget{Attr: "qty", Indicator: "source"}, value.Str("feedB"))
	if err != nil || len(ids) != 2 {
		t.Fatalf("indicator lookup = %v, %v", ids, err)
	}
}

func TestSelectionSplittingLaw(t *testing.T) {
	// sigma(p AND q) == sigma(p) then sigma(q).
	p := &Cmp{OpGt, &ColRef{Name: "qty"}, &Const{value.Int(20)}}
	q := &Cmp{OpEq, &IndRef{Col: "qty", Indicator: "source"}, &Const{value.Str("feedA")}}
	both := &Logic{OpAnd, p, q}
	s1, err := newRefSelect(rowsOf(tradesRel()), both, ctx())
	if err != nil {
		t.Fatal(err)
	}
	out1 := drainRows(t, s1)

	p2 := &Cmp{OpGt, &ColRef{Name: "qty"}, &Const{value.Int(20)}}
	q2 := &Cmp{OpEq, &IndRef{Col: "qty", Indicator: "source"}, &Const{value.Str("feedA")}}
	sp, err := newRefSelect(rowsOf(tradesRel()), p2, ctx())
	if err != nil {
		t.Fatal(err)
	}
	sq, err := newRefSelect(sp, q2, ctx())
	if err != nil {
		t.Fatal(err)
	}
	out2 := drainRows(t, sq)
	if out1.Len() != out2.Len() {
		t.Fatalf("selection splitting broken: %d vs %d", out1.Len(), out2.Len())
	}
	for i := range out1.Tuples {
		if !out1.Tuples[i].Equal(out2.Tuples[i]) {
			t.Fatalf("selection splitting row %d differs", i)
		}
	}
}

func TestProjectionIdempotent(t *testing.T) {
	for _, size := range batchSizes {
		items := []ProjectItem{{Expr: &ColRef{Name: "ticker"}}, {Expr: &ColRef{Name: "qty"}}}
		p1 := project(t, tradesRel(), items, size)
		items2 := []ProjectItem{{Expr: &ColRef{Name: "ticker"}}, {Expr: &ColRef{Name: "qty"}}}
		p2, err := NewBatchProject(p1, items2, ctx(), size)
		if err != nil {
			t.Fatal(err)
		}
		out := drain(t, p2)
		if out.Len() != 5 || len(out.Schema.Attrs) != 2 {
			t.Fatalf("size %d: double projection = %d rows x %d cols", size, out.Len(), len(out.Schema.Attrs))
		}
		if out.Tuples[3].Cells[0].V.AsString() != "HP" || out.Tuples[3].Cells[1].V.AsInt() != 75 {
			t.Errorf("size %d: row 3 = %v", size, out.Tuples[3])
		}
	}
}
