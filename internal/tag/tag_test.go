package tag

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/value"
)

func TestIndicatorValidate(t *testing.T) {
	good := Indicator{Name: "creation_time", Kind: value.KindTime}
	if err := good.Validate(); err != nil {
		t.Errorf("good indicator rejected: %v", err)
	}
	for _, name := range []string{"", "has space", "a@b", "a.b", "a'b"} {
		if err := (Indicator{Name: name}).Validate(); err == nil {
			t.Errorf("indicator %q should be rejected", name)
		}
	}
}

func TestSetBasics(t *testing.T) {
	s := NewSet(
		Tag{"source", value.Str("Nexis")},
		Tag{"creation_time", value.Time(time.Date(1991, 10, 3, 0, 0, 0, 0, time.UTC))},
	)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if v, ok := s.Get("source"); !ok || v.AsString() != "Nexis" {
		t.Errorf("Get(source) = %v, %v", v, ok)
	}
	if _, ok := s.Get("missing"); ok {
		t.Error("Get(missing) should report absent")
	}
	if !s.Has("creation_time") || s.Has("nope") {
		t.Error("Has broken")
	}
	// Sorted order by indicator name.
	tags := s.Tags()
	if tags[0].Indicator != "creation_time" || tags[1].Indicator != "source" {
		t.Errorf("tags not sorted: %v", tags)
	}
}

func TestNewSetDuplicatesLastWins(t *testing.T) {
	s := NewSet(Tag{"a", value.Int(1)}, Tag{"a", value.Int(2)})
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
	if v, _ := s.Get("a"); !value.Equal(v, value.Int(2)) {
		t.Errorf("last write should win, got %v", v)
	}
}

// TestSortedSet: SortedSet accepts exactly the strictly ascending tag
// lists and then equals NewSet over the same tags.
func TestSortedSet(t *testing.T) {
	a, b, c := Tag{"a", value.Int(1)}, Tag{"b", value.Str("x")}, Tag{"c", value.Null}
	for _, tags := range [][]Tag{nil, {a}, {a, b, c}} {
		s, ok := SortedSet(append([]Tag(nil), tags...))
		if !ok || !s.Equal(NewSet(tags...)) {
			t.Errorf("SortedSet(%v) = %v, %v; want %v", tags, s, ok, NewSet(tags...))
		}
	}
	for _, tags := range [][]Tag{{b, a}, {a, a}, {a, c, b}} {
		if s, ok := SortedSet(tags); ok || !s.IsEmpty() {
			t.Errorf("SortedSet(%v) = %v, %v; want refused", tags, s, ok)
		}
	}
}

func TestWithWithoutImmutability(t *testing.T) {
	s0 := NewSet(Tag{"b", value.Int(1)})
	s1 := s0.With("a", value.Int(2))
	s2 := s1.With("b", value.Int(9))
	s3 := s2.Without("a")

	if s0.Len() != 1 || s1.Len() != 2 || s2.Len() != 2 || s3.Len() != 1 {
		t.Fatalf("lengths: %d %d %d %d", s0.Len(), s1.Len(), s2.Len(), s3.Len())
	}
	if v, _ := s0.Get("b"); !value.Equal(v, value.Int(1)) {
		t.Error("original set mutated by With")
	}
	if v, _ := s2.Get("b"); !value.Equal(v, value.Int(9)) {
		t.Error("With replace failed")
	}
	if s3.Has("a") {
		t.Error("Without failed")
	}
	if got := s3.Without("zz"); !got.Equal(s3) {
		t.Error("Without of absent indicator should be identity")
	}
}

func TestMergePolicies(t *testing.T) {
	a := NewSet(Tag{"x", value.Int(1)}, Tag{"shared", value.Str("same")}, Tag{"conflict", value.Int(10)})
	b := NewSet(Tag{"y", value.Int(2)}, Tag{"shared", value.Str("same")}, Tag{"conflict", value.Int(20)})

	left := Merge(a, b, MergePreferLeft)
	if v, _ := left.Get("conflict"); !value.Equal(v, value.Int(10)) {
		t.Errorf("MergePreferLeft conflict = %v", v)
	}
	right := Merge(a, b, MergePreferRight)
	if v, _ := right.Get("conflict"); !value.Equal(v, value.Int(20)) {
		t.Errorf("MergePreferRight conflict = %v", v)
	}
	drop := Merge(a, b, MergeDrop)
	if drop.Has("conflict") {
		t.Error("MergeDrop should remove conflicting indicator")
	}
	for _, m := range []Set{left, right, drop} {
		if !m.Has("x") || !m.Has("y") {
			t.Error("merge must keep one-sided indicators")
		}
		if v, _ := m.Get("shared"); !value.Equal(v, value.Str("same")) {
			t.Error("merge must keep agreeing indicators")
		}
	}
}

func TestSetString(t *testing.T) {
	if got := EmptySet.String(); got != "{}" {
		t.Errorf("empty set string = %q", got)
	}
	s := NewSet(Tag{"a", value.Int(1)}, Tag{"b", value.Str("x")})
	if got := s.String(); got != "{a=1, b=x}" {
		t.Errorf("set string = %q", got)
	}
}

type setGen struct{ S Set }

func (setGen) Generate(r *rand.Rand, _ int) reflect.Value {
	names := []string{"a", "b", "c", "d", "e"}
	n := r.Intn(5)
	var tags []Tag
	for i := 0; i < n; i++ {
		tags = append(tags, Tag{names[r.Intn(len(names))], value.Int(r.Int63n(5))})
	}
	return reflect.ValueOf(setGen{S: NewSet(tags...)})
}

func TestMergeProperties(t *testing.T) {
	// Idempotence: Merge(s, s) == s under every policy.
	idem := func(g setGen) bool {
		for _, p := range []MergePolicy{MergePreferLeft, MergePreferRight, MergeDrop} {
			if !Merge(g.S, g.S, p).Equal(g.S) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(idem, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
	// MergeDrop is commutative.
	comm := func(a, b setGen) bool {
		return Merge(a.S, b.S, MergeDrop).Equal(Merge(b.S, a.S, MergeDrop))
	}
	if err := quick.Check(comm, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
	// PreferLeft(a,b) == PreferRight(b,a).
	dual := func(a, b setGen) bool {
		return Merge(a.S, b.S, MergePreferLeft).Equal(Merge(b.S, a.S, MergePreferRight))
	}
	if err := quick.Check(dual, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
	// Merge with empty set is identity.
	unit := func(a setGen) bool {
		return Merge(a.S, EmptySet, MergeDrop).Equal(a.S) && Merge(EmptySet, a.S, MergeDrop).Equal(a.S)
	}
	if err := quick.Check(unit, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSourcesBasics(t *testing.T) {
	s := NewSources("wsj", "nexis", "wsj")
	if len(s) != 2 || s[0] != "nexis" || s[1] != "wsj" {
		t.Fatalf("NewSources dedup/sort broken: %v", s)
	}
	if !s.Contains("wsj") || s.Contains("reuters") {
		t.Error("Contains broken")
	}
	u := s.Union(NewSources("reuters", "wsj"))
	if !u.Equal(NewSources("nexis", "reuters", "wsj")) {
		t.Errorf("Union = %v", u)
	}
	i := s.Intersect(NewSources("wsj", "ap"))
	if !i.Equal(NewSources("wsj")) {
		t.Errorf("Intersect = %v", i)
	}
	if got := s.String(); got != "<nexis, wsj>" {
		t.Errorf("String = %q", got)
	}
	if got := (Sources)(nil).String(); got != "<>" {
		t.Errorf("empty String = %q", got)
	}
	c := s.Clone()
	if !c.Equal(s) {
		t.Error("Clone broken")
	}
	c[0] = "mutated"
	if s[0] == "mutated" {
		t.Error("Clone aliases original")
	}
}

type srcGen struct{ S Sources }

func (srcGen) Generate(r *rand.Rand, _ int) reflect.Value {
	names := []string{"a", "b", "c", "d"}
	n := r.Intn(4)
	var out []string
	for i := 0; i < n; i++ {
		out = append(out, names[r.Intn(len(names))])
	}
	return reflect.ValueOf(srcGen{S: NewSources(out...)})
}

func TestSourcesLattice(t *testing.T) {
	comm := func(a, b srcGen) bool {
		return a.S.Union(b.S).Equal(b.S.Union(a.S)) && a.S.Intersect(b.S).Equal(b.S.Intersect(a.S))
	}
	if err := quick.Check(comm, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
	assoc := func(a, b, c srcGen) bool {
		return a.S.Union(b.S).Union(c.S).Equal(a.S.Union(b.S.Union(c.S)))
	}
	if err := quick.Check(assoc, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
	idem := func(a srcGen) bool {
		return a.S.Union(a.S).Equal(a.S) && a.S.Intersect(a.S).Equal(a.S)
	}
	if err := quick.Check(idem, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	absorb := func(a, b srcGen) bool {
		return a.S.Union(a.S.Intersect(b.S)).Equal(a.S)
	}
	if err := quick.Check(absorb, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// mixedSetGen draws tag sets whose values mix kinds that compare Equal
// (Int(1), Float(1), Bool(true); 0 and -0), so SubsetOf is held to Equal,
// not ==.
type mixedSetGen struct{ S Set }

func (mixedSetGen) Generate(r *rand.Rand, _ int) reflect.Value {
	names := []string{"a", "b", "c", "d"}
	vals := []value.Value{value.Int(0), value.Int(1), value.Float(1), value.Bool(true), value.Float(math.Copysign(0, -1)), value.Str("x")}
	var tags []Tag
	for i := r.Intn(5); i > 0; i-- {
		tags = append(tags, Tag{names[r.Intn(len(names))], vals[r.Intn(len(vals))]})
	}
	return reflect.ValueOf(mixedSetGen{S: NewSet(tags...)})
}

// TestSetSubsetOf: a.SubsetOf(b) holds exactly when Intersect(a, b)
// equals a, and then Intersect returns a's own tags, so a fold that skips
// it keeps the same set. SubsetOf never allocates.
func TestSetSubsetOf(t *testing.T) {
	prop := func(a, b mixedSetGen) bool {
		in := Intersect(a.S, b.S)
		if a.S.SubsetOf(b.S) != in.Equal(a.S) {
			return false
		}
		return !a.S.SubsetOf(b.S) || reflect.DeepEqual(in.Tags(), a.S.Tags())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	a := NewSet(Tag{"source", value.Str("sales")})
	b := NewSet(Tag{"creation_time", value.Int(3)}, Tag{"source", value.Str("sales")})
	if !a.SubsetOf(b) || b.SubsetOf(a) || !EmptySet.SubsetOf(a) || !a.SubsetOf(a) {
		t.Error("SubsetOf broken on fixed sets")
	}
	if n := testing.AllocsPerRun(100, func() { _ = a.SubsetOf(b) }); n != 0 {
		t.Errorf("SubsetOf allocates %v times", n)
	}
}

// TestSourcesCovers: s.Covers(o) holds exactly when s.Union(o) equals s,
// and never allocates.
func TestSourcesCovers(t *testing.T) {
	prop := func(a, b srcGen) bool {
		return a.S.Covers(b.S) == a.S.Union(b.S).Equal(a.S)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	s, o := NewSources("a", "c", "d"), NewSources("a", "d")
	if !s.Covers(o) || o.Covers(s) || !s.Covers(nil) || Sources(nil).Covers(o) {
		t.Error("Covers broken on fixed sets")
	}
	if n := testing.AllocsPerRun(100, func() { _ = s.Covers(o) }); n != 0 {
		t.Errorf("Covers allocates %v times", n)
	}
}
