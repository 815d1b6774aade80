// Package schema defines relation schemas for the quality-extended data
// model. A schema names its attributes, fixes their value kinds, declares a
// primary key, and — this is the quality extension from the paper — declares,
// per attribute, which quality indicators are required to be tagged on that
// attribute's cells (the paper's "data quality requirements": the indicators
// required to be tagged or otherwise documented for the data, §1.3).
//
// Schemas are produced in two ways: directly (QQL CREATE TABLE) or compiled
// from a dqm.QualitySchema at the end of the four-step methodology.
package schema

import (
	"fmt"
	"strings"

	"repro/internal/tag"
	"repro/internal/value"
)

// Attr declares one attribute (column) of a relation.
type Attr struct {
	// Name is the attribute name, unique within the schema.
	Name string
	// Kind is the value kind of stored values.
	Kind value.Kind
	// Required forbids null values when true.
	Required bool
	// Indicators lists the quality indicators that must be tagged on
	// every cell of this attribute (e.g. creation_time, source). The
	// engine rejects inserts missing a required indicator unless the
	// table is opened in lenient mode.
	Indicators []tag.Indicator
	// Doc documents the attribute.
	Doc string
}

// IndicatorNamed returns the declared indicator with the given name.
func (a Attr) IndicatorNamed(name string) (tag.Indicator, bool) {
	for _, ind := range a.Indicators {
		if ind.Name == name {
			return ind, true
		}
	}
	return tag.Indicator{}, false
}

// Schema is the definition of a relation.
type Schema struct {
	// Name is the relation name.
	Name string
	// Attrs are the attributes in column order.
	Attrs []Attr
	// Key lists the attribute names forming the primary key. Empty means
	// no key (bag semantics).
	Key []string
	// Doc documents the relation.
	Doc string
}

// New builds a schema and validates it.
func New(name string, attrs []Attr, key ...string) (*Schema, error) {
	s := &Schema{Name: name, Attrs: attrs, Key: key}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// MustNew is New that panics on error; for fixtures and tests.
func MustNew(name string, attrs []Attr, key ...string) *Schema {
	s, err := New(name, attrs, key...)
	if err != nil {
		panic(err)
	}
	return s
}

// Validate checks the schema for structural errors: duplicate or empty
// names, unknown key attributes, invalid indicator declarations.
func (s *Schema) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("schema: relation has empty name")
	}
	if len(s.Attrs) == 0 {
		return fmt.Errorf("schema %s: no attributes", s.Name)
	}
	// Schemas are built per plan (projections, joins), so names are
	// checked against the earlier ones by a linear scan, with no map.
	for i, a := range s.Attrs {
		if a.Name == "" {
			return fmt.Errorf("schema %s: attribute with empty name", s.Name)
		}
		if strings.ContainsAny(a.Name, " \t\n@.'\"") {
			return fmt.Errorf("schema %s: attribute name %q contains forbidden characters", s.Name, a.Name)
		}
		if s.ColIndex(a.Name) < i { // an earlier attribute has the name
			return fmt.Errorf("schema %s: duplicate attribute %q", s.Name, a.Name)
		}
		for j, ind := range a.Indicators {
			if err := ind.Validate(); err != nil {
				return fmt.Errorf("schema %s, attribute %s: %v", s.Name, a.Name, err)
			}
			for _, earlier := range a.Indicators[:j] {
				if earlier.Name == ind.Name {
					return fmt.Errorf("schema %s, attribute %s: duplicate indicator %q", s.Name, a.Name, ind.Name)
				}
			}
		}
	}
	for _, k := range s.Key {
		if s.ColIndex(k) < 0 {
			return fmt.Errorf("schema %s: key attribute %q not declared", s.Name, k)
		}
	}
	return nil
}

// ColIndex returns the column position of the named attribute, or -1.
func (s *Schema) ColIndex(name string) int {
	for i, a := range s.Attrs {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// Attr returns the attribute declaration by name.
func (s *Schema) Attr(name string) (Attr, bool) {
	i := s.ColIndex(name)
	if i < 0 {
		return Attr{}, false
	}
	return s.Attrs[i], true
}

// KeyIndexes returns the column positions of the key attributes.
func (s *Schema) KeyIndexes() []int {
	out := make([]int, len(s.Key))
	for i, k := range s.Key {
		out[i] = s.ColIndex(k)
	}
	return out
}

// ColIndexes returns every column position, 0..len(Attrs)-1 — the column
// list that reads whole rows out of a table's column views.
func (s *Schema) ColIndexes() []int {
	out := make([]int, len(s.Attrs))
	for i := range out {
		out[i] = i
	}
	return out
}

// AttrNames returns the attribute names in column order.
func (s *Schema) AttrNames() []string {
	out := make([]string, len(s.Attrs))
	for i, a := range s.Attrs {
		out[i] = a.Name
	}
	return out
}

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() *Schema {
	out := &Schema{Name: s.Name, Doc: s.Doc}
	out.Attrs = make([]Attr, len(s.Attrs))
	for i, a := range s.Attrs {
		ca := a
		ca.Indicators = append([]tag.Indicator(nil), a.Indicators...)
		out.Attrs[i] = ca
	}
	out.Key = append([]string(nil), s.Key...)
	return out
}

// String renders a compact one-line description of the schema.
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteString(s.Name)
	b.WriteByte('(')
	for i, a := range s.Attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.Name)
		b.WriteByte(' ')
		b.WriteString(a.Kind.String())
		if len(a.Indicators) > 0 {
			names := make([]string, len(a.Indicators))
			for j, ind := range a.Indicators {
				names[j] = ind.Name
			}
			b.WriteString(" @[" + strings.Join(names, ",") + "]")
		}
	}
	b.WriteByte(')')
	if len(s.Key) > 0 {
		b.WriteString(" key(" + strings.Join(s.Key, ",") + ")")
	}
	return b.String()
}
