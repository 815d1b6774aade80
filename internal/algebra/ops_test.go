package algebra

import (
	"fmt"
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

func drain(t *testing.T, it Iterator) *relation.Relation {
	t.Helper()
	out, err := Collect(it)
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	return out
}

func TestSelect(t *testing.T) {
	pred := &Cmp{OpGt, &ColRef{Name: "qty"}, &Const{value.Int(60)}}
	it, err := newRefSelect(NewRelationScan(tradesRel()), pred, ctx())
	if err != nil {
		t.Fatal(err)
	}
	out := drain(t, it)
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
	it, err := newRefSelect(NewRelationScan(tradesRel()), pred, ctx())
	if err != nil {
		t.Fatal(err)
	}
	out := drain(t, it)
	if out.Len() != 2 {
		t.Fatalf("quality select kept %d rows, want 2", out.Len())
	}
}

func TestProjectPlainAndComputed(t *testing.T) {
	items := []ProjectItem{
		{Expr: &ColRef{Name: "ticker"}},
		{Expr: &Arith{OpMul, &ColRef{Name: "qty"}, &ColRef{Name: "price"}}, As: "notional"},
	}
	it, err := NewProject(NewRelationScan(tradesRel()), items, ctx())
	if err != nil {
		t.Fatal(err)
	}
	out := drain(t, it)
	if out.Len() != 5 {
		t.Fatalf("project emitted %d rows", out.Len())
	}
	if out.Schema.Attrs[0].Name != "ticker" || out.Schema.Attrs[1].Name != "notional" {
		t.Fatalf("schema = %v", out.Schema)
	}
	first := out.Tuples[0]
	// Plain column keeps tags; computed cell keeps unanimous tags and
	// unions sources.
	if !first.Cells[0].Tags.Has("source") {
		t.Error("plain projection dropped tags")
	}
	if got := first.Cells[1].V.AsFloat(); got != 100*98.5 {
		t.Errorf("notional = %v", got)
	}
	if v, ok := first.Cells[1].Tags.Get("source"); !ok || v.AsString() != "feedA" {
		t.Error("derived cell should keep unanimous source tag")
	}
	if !first.Cells[1].Sources.Equal(tag.NewSources("feedA")) {
		t.Errorf("derived sources = %v", first.Cells[1].Sources)
	}
}

func TestProjectDefaultNames(t *testing.T) {
	items := []ProjectItem{{Expr: &Arith{OpAdd, &ColRef{Name: "qty"}, &Const{value.Int(1)}}}}
	it, err := NewProject(NewRelationScan(tradesRel()), items, ctx())
	if err != nil {
		t.Fatal(err)
	}
	if it.Schema().Attrs[0].Name != "col1" {
		t.Errorf("default name = %q", it.Schema().Attrs[0].Name)
	}
}

func TestRename(t *testing.T) {
	it, err := newRefRename(NewRelationScan(tradesRel()), "t2", map[string]string{"acct": "account"})
	if err != nil {
		t.Fatal(err)
	}
	if it.Schema().Name != "t2" || it.Schema().ColIndex("account") != 0 {
		t.Fatalf("rename schema = %v", it.Schema())
	}
	if _, err := newRefRename(NewRelationScan(tradesRel()), "", map[string]string{"zz": "y"}); err == nil {
		t.Error("rename of unknown column should fail")
	}
}

// joinRels joins two relations with NewBatchHashJoin at every batch size,
// requires byte-identical output across sizes, and returns it.
func joinRels(t *testing.T, l, r *relation.Relation, lk, rk, residual Expr) *relation.Relation {
	t.Helper()
	var first *relation.Relation
	for _, size := range batchSizes {
		j, err := NewBatchHashJoin(NewToBatch(NewRelationScan(l), size), NewToBatch(NewRelationScan(r), size),
			lk, rk, residual, nil, ctx(), size)
		if err != nil {
			t.Fatal(err)
		}
		out := drain(t, NewFromBatch(j, size))
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
// out of Distinct once per row, keeping the first occurrence.
func TestDistinctDropsDuplicates(t *testing.T) {
	a := tradesRel()
	twice := relation.New(tradesSchema())
	twice.Tuples = append(append(twice.Tuples, a.Tuples...), tradesRel().Tuples...)
	twice.Tuples[5].Cells[1].Tags = tag.Set{}
	out := drain(t, NewDistinct(NewRelationScan(twice)))
	if out.Len() != 5 {
		t.Fatalf("distinct = %d rows", out.Len())
	}
	if !out.Tuples[0].Cells[1].Tags.Has("source") {
		t.Error("distinct should keep the first occurrence's tags")
	}
}

// aggRows runs the global or grouped batch aggregate over a relation.
func aggRows(t *testing.T, in *relation.Relation, groupBy []Expr, aggs []AggSpec) *relation.Relation {
	t.Helper()
	var it Iterator
	var err error
	if groupBy == nil {
		it, err = NewBatchAggregate(NewToBatch(NewRelationScan(in), 0), aggs, ctx(), 0)
	} else {
		it, err = NewBatchGroupedAggregate(NewToBatch(NewRelationScan(in), 0), groupBy, aggs, ctx(), 0)
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
	it, err := NewSort(NewRelationScan(tradesRel()),
		[]SortKey{{Expr: &ColRef{Name: "qty"}, Desc: true}}, ctx())
	if err != nil {
		t.Fatal(err)
	}
	out := drain(t, it)
	prev := int64(1 << 40)
	for _, tup := range out.Tuples {
		q := tup.Cells[2].V.AsInt()
		if q > prev {
			t.Fatalf("not sorted desc: %d after %d", q, prev)
		}
		prev = q
	}
	it2, _ := NewSort(NewRelationScan(tradesRel()), []SortKey{{Expr: &ColRef{Name: "qty"}}}, ctx())
	lim := NewLimit(it2, 2, 1)
	lout := drain(t, lim)
	if lout.Len() != 2 {
		t.Fatalf("limit emitted %d", lout.Len())
	}
	if lout.Tuples[0].Cells[2].V.AsInt() != 50 {
		t.Errorf("offset skipped wrong row: %v", lout.Tuples[0])
	}
	// Unlimited.
	un := NewLimit(NewRelationScan(tradesRel()), -1, 0)
	if got := drain(t, un).Len(); got != 5 {
		t.Errorf("unlimited limit = %d", got)
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
		storage.Incl(value.Int(50)), storage.Incl(value.Int(100)), 0, tbl.Schema().ColIndexes())
	if err != nil {
		t.Fatal(err)
	}
	out := drain(t, NewFromBatch(it, 0))
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
	s1, err := newRefSelect(NewRelationScan(tradesRel()), both, ctx())
	if err != nil {
		t.Fatal(err)
	}
	out1 := drain(t, s1)

	p2 := &Cmp{OpGt, &ColRef{Name: "qty"}, &Const{value.Int(20)}}
	q2 := &Cmp{OpEq, &IndRef{Col: "qty", Indicator: "source"}, &Const{value.Str("feedA")}}
	sp, err := newRefSelect(NewRelationScan(tradesRel()), p2, ctx())
	if err != nil {
		t.Fatal(err)
	}
	sq, err := newRefSelect(sp, q2, ctx())
	if err != nil {
		t.Fatal(err)
	}
	out2 := drain(t, sq)
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
	items := []ProjectItem{{Expr: &ColRef{Name: "ticker"}}, {Expr: &ColRef{Name: "qty"}}}
	p1, err := NewProject(NewRelationScan(tradesRel()), items, ctx())
	if err != nil {
		t.Fatal(err)
	}
	items2 := []ProjectItem{{Expr: &ColRef{Name: "ticker"}}, {Expr: &ColRef{Name: "qty"}}}
	p2, err := NewProject(p1, items2, ctx())
	if err != nil {
		t.Fatal(err)
	}
	out := drain(t, p2)
	if out.Len() != 5 || len(out.Schema.Attrs) != 2 {
		t.Fatalf("double projection = %d rows x %d cols", out.Len(), len(out.Schema.Attrs))
	}
}
