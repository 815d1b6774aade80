package tag

import (
	"sort"
	"strings"
)

// Sources is a polygen source set: the sorted, duplicate-free set of data
// source names a cell's value originated from (Wang & Madnick, VLDB 1990).
// The polygen model propagates these through relational operators by set
// union: a derived value is attributed to every source that contributed to
// it. The nil slice is the empty set.
type Sources []string

// NewSources builds a normalized source set from the given names.
func NewSources(names ...string) Sources {
	if len(names) == 0 {
		return nil
	}
	out := append(Sources(nil), names...)
	sort.Strings(out)
	return dedupSorted(out)
}

func dedupSorted(s Sources) Sources {
	w := 0
	for i, name := range s {
		if i == 0 || name != s[w-1] {
			s[w] = name
			w++
		}
	}
	return s[:w]
}

// Contains reports whether the set includes the named source.
func (s Sources) Contains(name string) bool {
	i := sort.SearchStrings(s, name)
	return i < len(s) && s[i] == name
}

// Union returns the set union of s and o, per the polygen propagation rule
// for derived cells.
func (s Sources) Union(o Sources) Sources {
	if len(s) == 0 {
		return append(Sources(nil), o...)
	}
	if len(o) == 0 {
		return append(Sources(nil), s...)
	}
	out := make(Sources, 0, len(s)+len(o))
	i, j := 0, 0
	for i < len(s) && j < len(o) {
		switch {
		case s[i] < o[j]:
			out = append(out, s[i])
			i++
		case s[i] > o[j]:
			out = append(out, o[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, o[j:]...)
	return out
}

// Covers reports whether every source of o is in s, that is, whether
// s.Union(o) equals s. It does not allocate, so a provenance fold can skip
// a Union that would change nothing.
func (s Sources) Covers(o Sources) bool {
	if len(o) > len(s) {
		return false
	}
	i := 0
	for _, name := range o {
		for i < len(s) && s[i] < name {
			i++
		}
		if i == len(s) || s[i] != name {
			return false
		}
		i++
	}
	return true
}

// Intersect returns the set intersection of s and o. The polygen model uses
// intersection for the "originated jointly" credibility analysis.
func (s Sources) Intersect(o Sources) Sources {
	var out Sources
	i, j := 0, 0
	for i < len(s) && j < len(o) {
		switch {
		case s[i] < o[j]:
			i++
		case s[i] > o[j]:
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	return out
}

// Equal reports whether the two sets contain the same sources.
func (s Sources) Equal(o Sources) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the set.
func (s Sources) Clone() Sources {
	if s == nil {
		return nil
	}
	return append(Sources(nil), s...)
}

// String renders the set as "<a, b>"; the empty set renders as "<>".
func (s Sources) String() string {
	return "<" + strings.Join(s, ", ") + ">"
}
