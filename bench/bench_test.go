package main

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/qql"
	"repro/internal/storage"
)

// The tail is read at the highest percentile that still has ten samples
// beyond it.
func TestTailQuantileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1, 0.5}, {19, 0.5}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {199, 0.9}, {200, 0.95},
		{999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {100000, 0.9999}, {5000000, 0.9999},
	} {
		if got := tailQuantile(tc.n); got != tc.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		if q := tailQuantile(tc.n); q > 0.5 && float64(tc.n)*(1-q) < 10-1e-6 {
			t.Errorf("tailQuantile(%d) = %v leaves fewer than ten samples beyond it", tc.n, q)
		}
	}
}

func TestSummarize(t *testing.T) {
	lats := make([]int64, 1000)
	for i := range lats {
		lats[i] = int64(1000-i) * int64(time.Millisecond) // descending: summarize must sort
	}
	s := summarize(lats)
	if s.n != 1000 || s.p50ms != 501 || s.tailQ != 0.99 || s.tailMs != 991 {
		t.Errorf("summarize = %+v", s)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := summarize(nil); got != (latSummary{}) {
		t.Errorf("summarize(nil) = %+v", got)
	}
}

// The same seed gives the same rows, keys and statements; another seed does
// not.
func TestGeneratorsDeterministic(t *testing.T) {
	a, b, c := genCustomers(7, 500, ""), genCustomers(7, 500, ""), genCustomers(8, 500, "")
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different rows")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds, same rows")
	}
	if a[3].insertStmt() != b[3].insertStmt() {
		t.Fatal("same row, different INSERT")
	}
	keys := func(seed int64, client int) []int {
		k := newKeyPicker(seed, client, 500, 1)
		out := make([]int, 200)
		for i := range out {
			out[i] = k.next()
		}
		return out
	}
	if !reflect.DeepEqual(keys(7, 0), keys(7, 0)) {
		t.Fatal("same seed and client, different keys")
	}
	if reflect.DeepEqual(keys(7, 0), keys(7, 1)) || reflect.DeepEqual(keys(7, 0), keys(8, 0)) {
		t.Fatal("key sequence ignores client or seed")
	}
	writes := func(seed int64) []string {
		g := &writeGen{r: clientRand(seed, 1), rows: genCustomers(seed, 500, "")}
		out := make([]string, 50)
		for i := range out {
			out[i] = g.next().stmt
		}
		return out
	}
	if !reflect.DeepEqual(writes(7), writes(7)) || reflect.DeepEqual(writes(7), writes(8)) {
		t.Fatal("write statements are not a function of the seed")
	}
}

// Four draws in five come from the shared hot set; stride 2 keeps the reader
// of mixed_rw on even rows and its writer on odd ones.
func TestKeyPickerHotAndStride(t *testing.T) {
	const n, draws = 100000, 20000
	k := newKeyPicker(3, 0, n, 1)
	if other := newKeyPicker(3, 1, n, 1); !reflect.DeepEqual(k.hot, other.hot) {
		t.Fatal("clients of one seed disagree on the hot set")
	}
	hot := map[int]bool{}
	for _, i := range k.hot {
		hot[i] = true
	}
	if len(k.hot) != hotKeys {
		t.Fatalf("hot set has %d keys", len(k.hot))
	}
	inHot := 0
	for i := 0; i < draws; i++ {
		if hot[k.next()] {
			inHot++
		}
	}
	if share := float64(inHot) / draws; math.Abs(share-hotShare) > 0.02 {
		t.Errorf("hot share %.3f, want about %.1f", share, hotShare)
	}
	even := newKeyPicker(3, 0, n, 2)
	for i := 0; i < 1000; i++ {
		if idx := even.next(); idx%2 != 0 || idx >= n {
			t.Fatalf("stride-2 picker drew row %d", idx)
		}
	}
	g := &writeGen{r: clientRand(3, 1), rows: genCustomers(3, 1000, "")}
	updates := 0
	for i := 0; i < 1000; i++ {
		w := g.next()
		if w.update {
			updates++
			if w.idx%2 != 1 {
				t.Fatalf("writer updated even row %d", w.idx)
			}
		}
		if w.row.empSrc != writerSrc {
			t.Fatalf("write tagged with source %q", w.row.empSrc)
		}
	}
	if updates < 750 || updates > 850 {
		t.Errorf("%d of 1000 writes are updates, want about 800", updates)
	}
}

// Every generated statement parses, and a row loaded as a tuple checksums
// the same as its model.
func TestStatementsParseAndChecksum(t *testing.T) {
	rows := genCustomers(5, 300, "")
	g := &writeGen{r: clientRand(5, 1), rows: rows}
	stmts := append([]string{lookupStmt(rows[0].name), rows[1].insertStmt(), qCount}, reportStmts...)
	for i := 0; i < 20; i++ {
		stmts = append(stmts, g.next().stmt)
	}
	for _, q := range stmts {
		if _, err := qql.Parse(q); err != nil {
			t.Errorf("%s: %v", q, err)
		}
	}
	cat := storage.NewCatalog()
	tbl, err := cat.Create(customerSchema(), false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if _, err := tbl.Insert(rows[i].tuple()); err != nil {
			t.Fatal(err)
		}
	}
	n, sum, err := tableSum(cat)
	if err != nil || n != len(rows) || sum != modelSum(rows) {
		t.Errorf("tableSum = %d rows %x (%v), model %d rows %x", n, sum, err, len(rows), modelSum(rows))
	}
	rows[17].empSrc = "estimate?"
	if sum == modelSum(rows) {
		t.Error("checksum ignores a tag")
	}
}

// A span's self time is its duration minus the union of what its children
// cover, clipped to its own interval.
func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},    // overlaps a: 10..60 counts once
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120},   // clipped to 90..100
		{ID: 5, Parent: 2, Name: "leaf", Start: 10, End: 25}, // child of a
		{ID: 6, Name: "root", Start: 200, End: 230},          // a second root, no children
	}
	want := map[string]int64{"root": (100 - 50 - 10) + 30, "a": 30 - 15, "b": 30 + 30, "leaf": 15}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if got := layerSelf(map[string]int64{"wire.encode_req": 2, "wire.decode_req": 3, "algebra.Project": 5, "replay": 7}); !reflect.DeepEqual(got,
		map[string]int64{"wire": 5, "algebra": 5, "replay": 7}) {
		t.Errorf("layerSelf = %v", got)
	}
}

func TestSpanLogAndMerge(t *testing.T) {
	t0 := time.Now()
	a, b := &spanLog{t0: t0}, &spanLog{t0: t0}
	root := a.begin("replay", 0, 1)
	kid := a.begin("wire.encode_req", root, 1)
	a.end(kid)
	a.end(root)
	b.add("client.do", 0, 1, t0.Add(time.Millisecond), 2*time.Millisecond)
	kid2 := b.add("qql.exec", 1, 1, t0.Add(time.Millisecond), time.Millisecond)
	all := mergeSpans(a, b)
	if len(all) != 4 || all[2].ID != 3 || all[3].ID != 4 || all[3].Parent != 3 || kid2 != 2 {
		t.Fatalf("merged spans %+v", all)
	}
	if all[0].Op == all[2].Op {
		t.Error("ops of different goroutines share an id")
	}
	if all[1].Parent != all[0].ID || all[0].End < all[1].End || all[1].End < all[1].Start {
		t.Errorf("begin/end produced %+v", all[:2])
	}
	if got := all[2]; got.Start != int64(time.Millisecond) || got.End != int64(3*time.Millisecond) {
		t.Errorf("add produced %+v", got)
	}
}

// Op i is due at start + i*interval whatever happened before it; latency
// runs from the due time and lateness is how far behind the send was.
func TestPacerAndOpenLoopAccounting(t *testing.T) {
	start := time.Unix(1000, 0)
	pc := pacer{start: start, interval: 125 * time.Millisecond}
	if got := pc.due(0); !got.Equal(start) {
		t.Errorf("due(0) = %v", got)
	}
	if got := pc.due(8); !got.Equal(start.Add(time.Second)) {
		t.Errorf("due(8) = %v", got)
	}
	var ol openLoop
	// On time: sent at its due time, answered 40ms later.
	ol.record(pc.due(1), pc.due(1), pc.due(1).Add(40*time.Millisecond))
	// Behind a stall: due at 250ms, sent at 400ms, answered at 450ms. The
	// op itself took 50ms but its user waited 200ms.
	ol.record(pc.due(2), start.Add(400*time.Millisecond), start.Add(450*time.Millisecond))
	wantLat := []int64{int64(40 * time.Millisecond), int64(200 * time.Millisecond)}
	wantLate := []int64{0, int64(150 * time.Millisecond)}
	if !reflect.DeepEqual(ol.lats, wantLat) || !reflect.DeepEqual(ol.lateness, wantLate) {
		t.Errorf("openLoop = %+v", ol)
	}
}

func TestClosedLoop(t *testing.T) {
	calls := make([]int, 2)
	st := closedLoop(2, 30*time.Millisecond, nil, func(c int) (time.Duration, error) {
		calls[c]++
		time.Sleep(time.Millisecond)
		if c == 1 && calls[c]%2 == 0 {
			return 0, errors.New("wrong answer")
		}
		return time.Millisecond, nil
	})
	if st.attempted() != calls[0]+calls[1] || st.failed != calls[1]/2 || st.err == nil {
		t.Errorf("closedLoop counted %d attempted %d failed, ops made %v", st.attempted(), st.failed, calls)
	}
	if st.opsPerSec <= 0 {
		t.Errorf("opsPerSec = %v", st.opsPerSec)
	}
	// A transport failure stops the client that saw it.
	n := 0
	st = closedLoop(1, time.Second, nil, func(int) (time.Duration, error) {
		n++
		return 0, transport(errors.New("reset"))
	})
	if n != 1 || st.failed != 1 || !errors.Is(st.err, errTransport) {
		t.Errorf("after a transport error: %d calls, %+v", n, st)
	}
}
