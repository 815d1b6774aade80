// Package tag implements the two provenance mechanisms the paper relies on:
//
//   - quality indicator tags from the attribute-based model (ref [28] of the
//     paper): a small set of named, single-valued, objective measurements
//     attached to each data cell — e.g. source = 'Nexis',
//     creation_time = 1991-10-03, collection_method = 'estimate'; and
//   - polygen source sets (refs [24][25]): the set of originating data
//     sources a cell's value was derived from, propagated through relational
//     operators by set union.
//
// Tag sets are kept sorted by indicator name so that rendering, hashing and
// comparison are deterministic. They are value types: mutating operations
// return a new Set and never alias the receiver's backing array in a way
// visible to the caller.
package tag

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/value"
)

// Indicator describes a quality indicator: an objective, measurable
// dimension of the data manufacturing process (paper §1.3). Indicators are
// declared once (in a catalog or a schema) and referenced by name from tags.
type Indicator struct {
	// Name is the indicator identifier, lower_snake_case by convention
	// (e.g. "creation_time", "collection_method").
	Name string
	// Kind is the value kind of the indicator's measured values.
	Kind value.Kind
	// Doc describes what the indicator measures.
	Doc string
}

// Validate reports whether the indicator declaration is well formed.
func (ind Indicator) Validate() error {
	if ind.Name == "" {
		return fmt.Errorf("tag: indicator has empty name")
	}
	if strings.ContainsAny(ind.Name, " \t\n@.'\"") {
		return fmt.Errorf("tag: indicator name %q contains forbidden characters", ind.Name)
	}
	return nil
}

// Tag is a single quality indicator value attached to a cell.
type Tag struct {
	// Indicator is the indicator name.
	Indicator string
	// Value is the measured indicator value.
	Value value.Value
}

// String renders the tag as "indicator=value".
func (t Tag) String() string { return t.Indicator + "=" + t.Value.String() }

// Set is an immutable collection of tags, sorted by indicator name, with at
// most one tag per indicator.
type Set struct {
	tags []Tag
}

// EmptySet is the set with no tags.
var EmptySet = Set{}

// NewSet builds a set from the given tags. Later duplicates of the same
// indicator override earlier ones.
func NewSet(tags ...Tag) Set {
	if len(tags) == 0 {
		return Set{}
	}
	m := make(map[string]value.Value, len(tags))
	for _, t := range tags {
		m[t.Indicator] = t.Value
	}
	out := make([]Tag, 0, len(m))
	for k, v := range m {
		out = append(out, Tag{Indicator: k, Value: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Indicator < out[j].Indicator })
	return Set{tags: out}
}

// SortedSet builds a set over tags already in strictly ascending
// indicator order, taking ownership of the slice where NewSet would copy
// and sort it. It reports false, with the empty set, when the order does
// not hold.
func SortedSet(tags []Tag) (Set, bool) {
	for i := 1; i < len(tags); i++ {
		if tags[i-1].Indicator >= tags[i].Indicator {
			return Set{}, false
		}
	}
	if len(tags) == 0 {
		return Set{}, true
	}
	return Set{tags: tags}, true
}

// Len reports the number of tags in the set.
func (s Set) Len() int { return len(s.tags) }

// IsEmpty reports whether the set has no tags.
func (s Set) IsEmpty() bool { return len(s.tags) == 0 }

// Get returns the value tagged for the indicator and whether it is present.
// Cells carry a handful of tags, where a scan testing equality beats a
// binary search's ordered string compares.
func (s Set) Get(indicator string) (value.Value, bool) {
	for i := range s.tags {
		if s.tags[i].Indicator == indicator {
			return s.tags[i].Value, true
		}
	}
	return value.Null, false
}

// Has reports whether the set carries a tag for the indicator.
func (s Set) Has(indicator string) bool {
	_, ok := s.Get(indicator)
	return ok
}

// With returns a copy of the set with the indicator set to v, replacing any
// existing tag for the same indicator.
func (s Set) With(indicator string, v value.Value) Set {
	i := sort.Search(len(s.tags), func(i int) bool { return s.tags[i].Indicator >= indicator })
	out := make([]Tag, 0, len(s.tags)+1)
	out = append(out, s.tags[:i]...)
	if i < len(s.tags) && s.tags[i].Indicator == indicator {
		out = append(out, Tag{Indicator: indicator, Value: v})
		out = append(out, s.tags[i+1:]...)
	} else {
		out = append(out, Tag{Indicator: indicator, Value: v})
		out = append(out, s.tags[i:]...)
	}
	return Set{tags: out}
}

// Without returns a copy of the set with the indicator's tag removed.
func (s Set) Without(indicator string) Set {
	i := sort.Search(len(s.tags), func(i int) bool { return s.tags[i].Indicator >= indicator })
	if i >= len(s.tags) || s.tags[i].Indicator != indicator {
		return s
	}
	out := make([]Tag, 0, len(s.tags)-1)
	out = append(out, s.tags[:i]...)
	out = append(out, s.tags[i+1:]...)
	return Set{tags: out}
}

// Tags returns the tags in indicator-name order. The returned slice must not
// be modified.
func (s Set) Tags() []Tag { return s.tags }

// MergePolicy controls how Merge resolves an indicator present in both sets
// with different values.
type MergePolicy uint8

const (
	// MergePreferLeft keeps the left set's value on conflict.
	MergePreferLeft MergePolicy = iota
	// MergePreferRight keeps the right set's value on conflict.
	MergePreferRight
	// MergeDrop removes conflicting indicators entirely. This is the
	// propagation rule for derived cells: a tag survives derivation only
	// if every contributing cell agrees on it.
	MergeDrop
)

// Merge combines two tag sets under the given policy. Indicators present in
// only one set are always kept; indicators present in both with Equal values
// are kept; conflicts resolve per the policy.
func Merge(a, b Set, policy MergePolicy) Set {
	out := make([]Tag, 0, len(a.tags)+len(b.tags))
	i, j := 0, 0
	for i < len(a.tags) && j < len(b.tags) {
		switch {
		case a.tags[i].Indicator < b.tags[j].Indicator:
			out = append(out, a.tags[i])
			i++
		case a.tags[i].Indicator > b.tags[j].Indicator:
			out = append(out, b.tags[j])
			j++
		default:
			if value.Equal(a.tags[i].Value, b.tags[j].Value) {
				out = append(out, a.tags[i])
			} else {
				switch policy {
				case MergePreferLeft:
					out = append(out, a.tags[i])
				case MergePreferRight:
					out = append(out, b.tags[j])
				case MergeDrop:
					// skip both
				}
			}
			i++
			j++
		}
	}
	out = append(out, a.tags[i:]...)
	out = append(out, b.tags[j:]...)
	return Set{tags: out}
}

// Intersect returns the tags present in both sets with Equal values. This
// is the unanimity fold used for derived-cell provenance: folding a list of
// tag sets with Intersect keeps exactly the tags every set agrees on
// (Intersect is associative and commutative, unlike Merge with MergeDrop,
// which keeps one-sided tags).
func Intersect(a, b Set) Set {
	var out []Tag
	i, j := 0, 0
	for i < len(a.tags) && j < len(b.tags) {
		switch {
		case a.tags[i].Indicator < b.tags[j].Indicator:
			i++
		case a.tags[i].Indicator > b.tags[j].Indicator:
			j++
		default:
			if value.Equal(a.tags[i].Value, b.tags[j].Value) {
				out = append(out, a.tags[i])
			}
			i++
			j++
		}
	}
	return Set{tags: out}
}

// SubsetOf reports whether every tag of s is in o with an Equal value, that
// is, whether Intersect(s, o) carries exactly s's tags. It does not
// allocate, so a provenance fold can skip an Intersect that would change
// nothing.
func (s Set) SubsetOf(o Set) bool {
	if len(s.tags) > len(o.tags) {
		return false
	}
	j := 0
	for i := range s.tags {
		ind := s.tags[i].Indicator
		for j < len(o.tags) && o.tags[j].Indicator != ind {
			if o.tags[j].Indicator > ind {
				return false
			}
			j++
		}
		if j == len(o.tags) || !value.EqualPtr(&s.tags[i].Value, &o.tags[j].Value) {
			return false
		}
		j++
	}
	return true
}

// Equal reports whether two sets carry the same indicators with Equal values.
func (s Set) Equal(o Set) bool {
	if len(s.tags) != len(o.tags) {
		return false
	}
	for i := range s.tags {
		if s.tags[i].Indicator != o.tags[i].Indicator || !value.Equal(s.tags[i].Value, o.tags[i].Value) {
			return false
		}
	}
	return true
}

// String renders the set as "{a=1, b=x}"; the empty set renders as "{}".
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, t := range s.tags {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	b.WriteByte('}')
	return b.String()
}
