package main

import (
	"sort"
	"strings"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one op share Op;
// Parent is the ID of the span that caused this one, 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps one goroutine's spans in memory until the run ends. IDs are
// index+1 within the log; merge renumbers them.
type spanLog struct {
	t0    time.Time
	spans []span
}

func (l *spanLog) begin(name string, parent, op int) int {
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Op: op, Name: name, Start: int64(time.Since(l.t0))})
	return len(l.spans)
}

func (l *spanLog) end(id int) { l.spans[id-1].End = int64(time.Since(l.t0)) }

// add records a span whose interval was measured elsewhere.
func (l *spanLog) add(name string, parent, op int, start time.Time, d time.Duration) int {
	s := int64(start.Sub(l.t0))
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Op: op, Name: name, Start: s, End: s + int64(d)})
	return len(l.spans)
}

// mergeSpans concatenates per-goroutine logs into one ID space; ops are
// renumbered too so that they stay unique across goroutines.
func mergeSpans(logs ...*spanLog) []span {
	var all []span
	opBase := 0
	for _, l := range logs {
		base, maxOp := len(all), 0
		for _, s := range l.spans {
			s.ID += base
			if s.Parent != 0 {
				s.Parent += base
			}
			if s.Op > maxOp {
				maxOp = s.Op
			}
			s.Op += opBase
			all = append(all, s)
		}
		opBase += maxOp
	}
	return all
}

// selfTimes sums, per span name, each span's duration minus the part of its
// interval that its child spans cover (overlapping children count once).
func selfTimes(spans []span) map[string]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]int64{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, upTo := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, upTo), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[s.Name] += (s.End - s.Start) - covered
	}
	return self
}

// layerOf maps a span name to the module it measures: "wire.encode_req" is
// wire, "algebra.BatchHashJoin" is algebra.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// layerSelf folds span self times into their layers.
func layerSelf(self map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for name, ns := range self {
		out[layerOf(name)] += ns
	}
	return out
}
