// Package valuecopytest exercises the valuecopy analyzer: by-value
// value.Value comparators are banned from per-row contexts.
package valuecopytest

import (
	"sort"

	"repro/internal/value"
)

// findBad compares by value inside a loop body.
func findBad(keys []value.Value, key value.Value) int {
	for i := range keys {
		if value.Equal(keys[i], key) { // want `value.Equal copies two 32-byte Values`
			return i
		}
	}
	return -1
}

// sortBad compares by value inside a per-comparison closure.
func sortBad(keys []value.Value) {
	sort.Slice(keys, func(i, j int) bool {
		return value.Less(keys[i], keys[j]) // want `value.Less copies two 32-byte Values`
	})
}

// rangeBad compares by value inside a range body.
func rangeBad(keys []value.Value, key value.Value) int {
	n := 0
	for _, k := range keys {
		if value.Compare(k, key) > 0 { // want `value.Compare copies two 32-byte Values`
			n++
		}
	}
	return n
}

// onceOK: straight-line comparisons outside loops stay legal (bind-time
// constant folding, one-off bounds checks).
func onceOK(a, b value.Value) bool {
	return value.Equal(a, b)
}

// ptrOK is the fix shape: pointer twins in the loop.
func ptrOK(keys []value.Value, key value.Value) int {
	for i := range keys {
		if value.EqualPtr(&keys[i], &key) {
			return i
		}
	}
	return -1
}
