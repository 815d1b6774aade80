package storage

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/value"
)

func TestBTreeInsertLookup(t *testing.T) {
	bt := NewBTree()
	for i := 0; i < 500; i++ {
		bt.Insert(value.Int(int64(i%50)), RowID(i))
	}
	if bt.Len() != 500 {
		t.Fatalf("Len = %d", bt.Len())
	}
	ids := bt.Lookup(value.Int(7))
	if len(ids) != 10 {
		t.Fatalf("Lookup(7) returned %d ids", len(ids))
	}
	for _, id := range ids {
		if int(id)%50 != 7 {
			t.Errorf("Lookup(7) returned id %d", id)
		}
	}
	if got := bt.Lookup(value.Int(99)); got != nil {
		t.Errorf("Lookup(absent) = %v", got)
	}
}

func TestBTreeDelete(t *testing.T) {
	bt := NewBTree()
	for i := 0; i < 100; i++ {
		bt.Insert(value.Int(int64(i)), RowID(i))
	}
	if !bt.Delete(value.Int(42), 42) {
		t.Fatal("Delete existing failed")
	}
	if bt.Delete(value.Int(42), 42) {
		t.Fatal("Delete of removed pair should report false")
	}
	if bt.Delete(value.Int(9999), 1) {
		t.Fatal("Delete of absent key should report false")
	}
	if bt.Len() != 99 {
		t.Fatalf("Len after delete = %d", bt.Len())
	}
	if ids := bt.Lookup(value.Int(42)); len(ids) != 0 {
		t.Errorf("deleted key still has ids %v", ids)
	}
}

func TestBTreeRange(t *testing.T) {
	bt := NewBTree()
	for i := 0; i < 200; i++ {
		bt.Insert(value.Int(int64(i)), RowID(i))
	}
	var got []int64
	bt.Range(Incl(value.Int(10)), Excl(value.Int(15)), func(k value.Value, _ RowID) bool {
		got = append(got, k.AsInt())
		return true
	})
	want := []int64{10, 11, 12, 13, 14}
	if len(got) != len(want) {
		t.Fatalf("range = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("range = %v, want %v", got, want)
		}
	}
	// Early stop.
	n := 0
	bt.Range(Unbounded, Unbounded, func(value.Value, RowID) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Errorf("early stop visited %d", n)
	}
	// Unbounded covers everything in order.
	var all []int64
	bt.Range(Unbounded, Unbounded, func(k value.Value, _ RowID) bool {
		all = append(all, k.AsInt())
		return true
	})
	if len(all) != 200 || !sort.SliceIsSorted(all, func(i, j int) bool { return all[i] < all[j] }) {
		t.Errorf("unbounded range wrong: n=%d sorted=%v", len(all), sort.SliceIsSorted(all, func(i, j int) bool { return all[i] < all[j] }))
	}
}

func TestBTreeMinMaxCompact(t *testing.T) {
	bt := NewBTree()
	if _, ok := bt.Min(); ok {
		t.Error("Min on empty should be !ok")
	}
	if _, ok := bt.Max(); ok {
		t.Error("Max on empty should be !ok")
	}
	for _, k := range []int64{5, 3, 9, 1, 7} {
		bt.Insert(value.Int(k), RowID(k))
	}
	if mn, _ := bt.Min(); mn.AsInt() != 1 {
		t.Errorf("Min = %v", mn)
	}
	if mx, _ := bt.Max(); mx.AsInt() != 9 {
		t.Errorf("Max = %v", mx)
	}
	bt.Delete(value.Int(1), 1)
	bt.Delete(value.Int(9), 9)
	if mn, _ := bt.Min(); mn.AsInt() != 3 {
		t.Errorf("Min after delete = %v", mn)
	}
	if mx, _ := bt.Max(); mx.AsInt() != 7 {
		t.Errorf("Max after delete = %v", mx)
	}
	bt.Compact()
	if bt.Len() != 3 {
		t.Errorf("Len after compact = %d", bt.Len())
	}
}

// TestBTreeVersusModel cross-checks the B-tree against a simple sorted-pairs
// model over a long random operation sequence, including range queries with
// all four bound combinations.
func TestBTreeVersusModel(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	bt := NewBTree()
	type pair struct {
		k  int64
		id RowID
	}
	var model []pair

	modelRange := func(lo, hi int64, loIncl, hiIncl bool) []pair {
		var out []pair
		for _, p := range model {
			okLo := p.k > lo || (loIncl && p.k == lo)
			okHi := p.k < hi || (hiIncl && p.k == hi)
			if okLo && okHi {
				out = append(out, p)
			}
		}
		sort.Slice(out, func(i, j int) bool {
			if out[i].k != out[j].k {
				return out[i].k < out[j].k
			}
			return out[i].id < out[j].id
		})
		return out
	}

	for step := 0; step < 4000; step++ {
		switch r.Intn(10) {
		case 0, 1, 2, 3, 4, 5: // insert
			k := r.Int63n(80)
			id := RowID(step)
			bt.Insert(value.Int(k), id)
			model = append(model, pair{k, id})
		case 6, 7: // delete random model element
			if len(model) > 0 {
				i := r.Intn(len(model))
				p := model[i]
				if !bt.Delete(value.Int(p.k), p.id) {
					t.Fatalf("step %d: Delete(%d,%d) failed", step, p.k, p.id)
				}
				model = append(model[:i], model[i+1:]...)
			}
		default: // range check
			lo, hi := r.Int63n(80), r.Int63n(80)
			if lo > hi {
				lo, hi = hi, lo
			}
			loIncl, hiIncl := r.Intn(2) == 0, r.Intn(2) == 0
			lb, hb := Bound{Value: value.Int(lo), Inclusive: loIncl}, Bound{Value: value.Int(hi), Inclusive: hiIncl}
			var got []pair
			bt.Range(lb, hb, func(k value.Value, id RowID) bool {
				got = append(got, pair{k.AsInt(), id})
				return true
			})
			sort.Slice(got, func(i, j int) bool {
				if got[i].k != got[j].k {
					return got[i].k < got[j].k
				}
				return got[i].id < got[j].id
			})
			want := modelRange(lo, hi, loIncl, hiIncl)
			if len(got) != len(want) {
				t.Fatalf("step %d: range[%d,%d] got %d pairs, want %d", step, lo, hi, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("step %d: range mismatch at %d: %v vs %v", step, i, got[i], want[i])
				}
			}
		}
		if bt.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, model %d", step, bt.Len(), len(model))
		}
	}
}

// TestHashIndex drives a hash index's chains through a float column, which
// takes ints too: Equal values share one chain, lookups list
// its live rows in ascending order, and a drained chain answers nothing.
func TestHashIndex(t *testing.T) {
	tbl := NewTable(schema.MustNew("h", []schema.Attr{{Name: "v", Kind: value.KindFloat}}), false)
	if err := tbl.CreateIndex(IndexTarget{Attr: "v"}, IndexHash); err != nil {
		t.Fatal(err)
	}
	for _, v := range []value.Value{value.Float(0.5), value.Float(0.5), value.Float(3), value.Int(2), value.Float(2.0)} {
		if _, err := tbl.Insert(relation.Tuple{Cells: []relation.Cell{{V: v}}}); err != nil {
			t.Fatal(err)
		}
	}
	lookup := func(v value.Value) []RowID {
		t.Helper()
		ids, err := tbl.LookupEq(IndexTarget{Attr: "v"}, v)
		if err != nil {
			t.Fatal(err)
		}
		return ids
	}
	if ids := lookup(value.Float(0.5)); !slices.Equal(ids, []RowID{0, 1}) {
		t.Errorf("Lookup(0.5) = %v", ids)
	}
	if ids := lookup(value.Int(2)); !slices.Equal(ids, []RowID{3, 4}) {
		t.Errorf("Lookup(2) should see Float(2.0) too: %v", ids)
	}
	if err := tbl.Delete(0); err != nil {
		t.Fatal(err)
	}
	if ids := lookup(value.Float(0.5)); !slices.Equal(ids, []RowID{1}) {
		t.Errorf("after delete Lookup(0.5) = %v", ids)
	}
	// Drain the chain; a moved row joins its new chain in order.
	if err := tbl.Update(1, relation.Tuple{Cells: []relation.Cell{{V: value.Float(2)}}}); err != nil {
		t.Fatal(err)
	}
	if ids := lookup(value.Float(0.5)); ids != nil {
		t.Errorf("drained key lookup = %v", ids)
	}
	if ids := lookup(value.Float(2)); !slices.Equal(ids, []RowID{1, 3, 4}) {
		t.Errorf("Lookup(2.0) after the update = %v", ids)
	}
	if ids := lookup(value.Str("zz")); ids != nil {
		t.Errorf("absent key lookup = %v", ids)
	}
}
