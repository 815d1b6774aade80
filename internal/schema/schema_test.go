package schema

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/tag"
	"repro/internal/value"
)

func validAttrs() []Attr {
	return []Attr{
		{Name: "id", Kind: value.KindInt, Required: true},
		{Name: "name", Kind: value.KindString,
			Indicators: []tag.Indicator{{Name: "source", Kind: value.KindString}}},
	}
}

func TestNewAndValidate(t *testing.T) {
	s, err := New("t", validAttrs(), "id")
	if err != nil {
		t.Fatal(err)
	}
	if s.ColIndex("name") != 1 || s.ColIndex("ghost") != -1 {
		t.Error("ColIndex broken")
	}
	a, ok := s.Attr("name")
	if !ok || a.Kind != value.KindString {
		t.Error("Attr broken")
	}
	if _, ok := s.Attr("ghost"); ok {
		t.Error("Attr should miss unknown names")
	}
	if got := s.KeyIndexes(); len(got) != 1 || got[0] != 0 {
		t.Errorf("KeyIndexes = %v", got)
	}
	if got := s.AttrNames(); len(got) != 2 || got[0] != "id" {
		t.Errorf("AttrNames = %v", got)
	}
	if ind, ok := a.IndicatorNamed("source"); !ok || ind.Kind != value.KindString {
		t.Error("IndicatorNamed broken")
	}
	if _, ok := a.IndicatorNamed("ghost"); ok {
		t.Error("IndicatorNamed should miss")
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Schema
	}{
		{"empty relation name", func() *Schema { return &Schema{Name: "", Attrs: validAttrs()} }},
		{"no attributes", func() *Schema { return &Schema{Name: "t"} }},
		{"empty attr name", func() *Schema {
			return &Schema{Name: "t", Attrs: []Attr{{Name: "", Kind: value.KindInt}}}
		}},
		{"bad attr chars", func() *Schema {
			return &Schema{Name: "t", Attrs: []Attr{{Name: "a b", Kind: value.KindInt}}}
		}},
		{"duplicate attr", func() *Schema {
			return &Schema{Name: "t", Attrs: []Attr{{Name: "a", Kind: value.KindInt}, {Name: "a", Kind: value.KindInt}}}
		}},
		{"unknown key", func() *Schema {
			return &Schema{Name: "t", Attrs: []Attr{{Name: "a", Kind: value.KindInt}}, Key: []string{"zz"}}
		}},
		{"bad indicator", func() *Schema {
			return &Schema{Name: "t", Attrs: []Attr{{Name: "a", Kind: value.KindInt,
				Indicators: []tag.Indicator{{Name: "x y"}}}}}
		}},
		{"duplicate indicator", func() *Schema {
			return &Schema{Name: "t", Attrs: []Attr{{Name: "a", Kind: value.KindInt,
				Indicators: []tag.Indicator{{Name: "x"}, {Name: "x"}}}}}
		}},
	}
	for _, tc := range cases {
		if err := tc.build().Validate(); err == nil {
			t.Errorf("%s: should fail", tc.name)
		}
	}
	if _, err := New("t", validAttrs(), "ghost"); err == nil {
		t.Error("New with bad key should fail")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on invalid schema")
		}
	}()
	MustNew("", nil)
}

func TestCloneIndependence(t *testing.T) {
	s := MustNew("t", validAttrs(), "id")
	c := s.Clone()
	c.Attrs[1].Indicators[0].Name = "mutated"
	c.Key[0] = "mutated"
	if s.Attrs[1].Indicators[0].Name != "source" {
		t.Error("Clone aliases indicators")
	}
	if s.Key[0] != "id" {
		t.Error("Clone aliases key")
	}
}

func TestString(t *testing.T) {
	s := MustNew("t", validAttrs(), "id")
	out := s.String()
	for _, want := range []string{"t(", "id int", "name string", "@[source]", "key(id)"} {
		if !strings.Contains(out, want) {
			t.Errorf("String missing %q: %s", want, out)
		}
	}
}

// TestDuplicateNameText pins the duplicate-attribute error, first
// duplicate in column order, at narrow and wide schemas, and that a
// projection-width schema costs only its own allocation.
func TestDuplicateNameText(t *testing.T) {
	for _, width := range []int{3, 64, 192} {
		attrs := make([]Attr, width)
		for i := range attrs {
			attrs[i] = Attr{Name: "c" + strconv.Itoa(i), Kind: value.KindInt}
		}
		attrs[width-1].Name = "c1"
		if width > 3 {
			attrs[width-2].Name = "c2"
		}
		want := `schema t: duplicate attribute "c1"`
		if width > 3 {
			want = `schema t: duplicate attribute "c2"`
		}
		if _, err := New("t", attrs); err == nil || err.Error() != want {
			t.Errorf("width %d: err = %v, want %q", width, err, want)
		}
	}
	attrs := validAttrs()
	if n := testing.AllocsPerRun(100, func() {
		if _, err := New("t", attrs); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("New allocates %v times, want 1", n)
	}
}
