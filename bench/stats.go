package main

import (
	"sort"
	"time"
)

// median of a non-empty sample; it sorts xs in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quantile reads the q-quantile out of an ascending sample (nearest rank).
func quantile(sorted []int64, q float64) int64 {
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailLadder lists the percentiles a tail may be reported at, each with the
// number of samples of which one lies beyond it.
var tailLadder = []struct {
	q     float64
	oneIn int
}{{0.9999, 10000}, {0.999, 1000}, {0.99, 100}, {0.95, 20}, {0.9, 10}}

// tailQuantile picks the highest percentile of the ladder that still has at
// least ten samples beyond it: a p99.9 read off 2000 samples is two points,
// not a percentile. Below 100 samples only the median is left.
func tailQuantile(n int) float64 {
	for _, step := range tailLadder {
		if n >= 10*step.oneIn {
			return step.q
		}
	}
	return 0.5
}

// latSummary is a latency sample reduced to what is reported.
type latSummary struct {
	n      int
	p50ms  float64
	tailQ  float64
	tailMs float64
}

func ms(ns int64) float64 { return float64(ns) / float64(time.Millisecond) }

// summarize sorts lats in place.
func summarize(lats []int64) latSummary {
	if len(lats) == 0 {
		return latSummary{}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	q := tailQuantile(len(lats))
	return latSummary{n: len(lats), p50ms: ms(quantile(lats, 0.5)), tailQ: q, tailMs: ms(quantile(lats, q))}
}
