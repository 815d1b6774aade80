package algebra

import (
	"math/rand"
	"testing"

	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/tag"
	"repro/internal/value"
)

// randomRelation builds a relation with random values, tags, and sources.
func randomRelation(r *rand.Rand, n int) *relation.Relation {
	s := schema.MustNew("r", []schema.Attr{
		{Name: "k", Kind: value.KindInt},
		{Name: "v", Kind: value.KindString},
	})
	rel := relation.New(s)
	srcs := []string{"s1", "s2", "s3"}
	for i := 0; i < n; i++ {
		cells := []relation.Cell{
			{V: value.Int(r.Int63n(8))},
			{V: value.Str(string(rune('a' + r.Intn(4))))},
		}
		if r.Intn(2) == 0 {
			cells[1].Tags = tag.NewSet(tag.Tag{Indicator: "source", Value: value.Str(srcs[r.Intn(3)])})
			cells[1].Sources = tag.NewSources(srcs[r.Intn(3)])
		}
		rel.Tuples = append(rel.Tuples, relation.Tuple{Cells: cells})
	}
	return rel
}

// TestJoinCommutativityUpToColumnOrder: |A ⋈ B| == |B ⋈ A| on random
// inputs, and A ⋈ B has one row per matching key pair.
func TestJoinCommutativityUpToColumnOrder(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	ctx := &EvalContext{}
	renamed := func(b *relation.Relation) BatchIterator {
		// Rename b's columns so join schemas disambiguate.
		it, err := newRefRename(rowsOf(b), "r2", map[string]string{"k": "k2", "v": "v2"})
		if err != nil {
			t.Fatal(err)
		}
		return NewRelationScan(drainRows(t, it), 3)
	}
	join := func(l, r BatchIterator, lk, rk string) *relation.Relation {
		j, err := NewBatchHashJoin(l, r, &ColRef{Name: lk}, &ColRef{Name: rk}, nil, nil, ctx, 3)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Collect(j)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for trial := 0; trial < 30; trial++ {
		a := randomRelation(r, 1+r.Intn(40))
		b := randomRelation(r, 1+r.Intn(40))
		abOut := join(NewRelationScan(a, 3), renamed(b), "k", "k2")
		baOut := join(renamed(b), NewRelationScan(a, 3), "k2", "k")
		if abOut.Len() != baOut.Len() {
			t.Fatalf("trial %d: |A⋈B| = %d, |B⋈A| = %d", trial, abOut.Len(), baOut.Len())
		}
		pairs := 0
		for _, x := range a.Tuples {
			for _, y := range b.Tuples {
				if x.Cells[0].V.AsInt() == y.Cells[0].V.AsInt() {
					pairs++
				}
			}
		}
		if abOut.Len() != pairs {
			t.Fatalf("trial %d: |A⋈B| = %d, want %d matching pairs", trial, abOut.Len(), pairs)
		}
	}
}

// TestDistinctIdempotent: distinct(distinct(x)) == distinct(x).
func TestDistinctIdempotent(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		rel := randomRelation(r, r.Intn(60))
		d1, err := Collect(NewDistinct(NewRelationScan(rel, 3)))
		if err != nil {
			t.Fatal(err)
		}
		d2, err := Collect(NewDistinct(NewRelationScan(d1, 3)))
		if err != nil {
			t.Fatal(err)
		}
		if d1.Len() != d2.Len() {
			t.Fatalf("trial %d: distinct not idempotent: %d vs %d", trial, d1.Len(), d2.Len())
		}
		for i := range d1.Tuples {
			if !d1.Tuples[i].Equal(d2.Tuples[i]) {
				t.Fatalf("trial %d: row %d changed", trial, i)
			}
		}
	}
}

// TestSelectPartition: select(p) and select(NOT p) partition the non-null
// rows of the predicate.
func TestSelectPartition(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	ctx := &EvalContext{}
	for trial := 0; trial < 30; trial++ {
		rel := randomRelation(r, r.Intn(80))
		pred := func() Expr {
			return &Cmp{Op: OpGt, L: &ColRef{Name: "k"}, R: &Const{V: value.Int(r.Int63n(8))}}
		}
		p1 := pred()
		sel, err := newRefSelect(rowsOf(rel), p1, ctx)
		if err != nil {
			t.Fatal(err)
		}
		yes := drainRows(t, sel)
		p2 := pred()
		p2.(*Cmp).R = p1.(*Cmp).R
		selNot, err := newRefSelect(rowsOf(rel), &Not{E: p2}, ctx)
		if err != nil {
			t.Fatal(err)
		}
		no := drainRows(t, selNot)
		// k is never null here, so the two selections partition exactly.
		if yes.Len()+no.Len() != rel.Len() {
			t.Fatalf("trial %d: %d + %d != %d", trial, yes.Len(), no.Len(), rel.Len())
		}
	}
}

// TestProjectPreservesProvenanceAlways: a plain column projection never
// alters tags or sources, for any random input.
func TestProjectPreservesProvenanceAlways(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	ctx := &EvalContext{}
	for trial := 0; trial < 30; trial++ {
		rel := randomRelation(r, r.Intn(50))
		it, err := NewBatchProject(NewRelationScan(rel, 3), []ProjectItem{{Expr: &ColRef{Name: "v"}}}, ctx, 3)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Collect(it)
		if err != nil {
			t.Fatal(err)
		}
		for i := range out.Tuples {
			want := rel.Tuples[i].Cells[1]
			got := out.Tuples[i].Cells[0]
			if !got.Equal(want) {
				t.Fatalf("trial %d row %d: provenance changed: %v vs %v", trial, i, got, want)
			}
		}
	}
}
