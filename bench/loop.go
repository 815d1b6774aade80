package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the number of load-generating connections, one goroutine each:
// the sandbox has two cores and the server runs in the same process, so more
// generators would only measure the scheduler.
const clients = 2

// errTransport marks a failure of the connection itself; the client that
// sees one stops, since every later call would fail the same way.
var errTransport = errors.New("transport")

func transport(err error) error { return fmt.Errorf("%w: %v", errTransport, err) }

// loopStats is what a set of closed-loop clients did.
type loopStats struct {
	lats      []int64 // ns per completed op
	failed    int
	opsPerSec float64 // sum over clients of ops / that client's elapsed time
	err       error   // first failure seen
}

func (s *loopStats) attempted() int { return len(s.lats) + s.failed }

// opFunc performs one op for client c and returns the latency its caller
// observed. A non-nil error counts the op as failed.
type opFunc func(c int) (time.Duration, error)

// closedLoop runs n clients, each sending its next op only when the previous
// one has answered, until d has passed or stop is set (stop wins when given).
func closedLoop(n int, d time.Duration, stop *atomic.Bool, op opFunc) loopStats {
	per := make([]loopStats, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &per[c]
			start := time.Now()
			for {
				if stop != nil {
					if stop.Load() {
						break
					}
				} else if time.Since(start) >= d {
					break
				}
				lat, err := op(c)
				if err != nil {
					st.failed++
					if st.err == nil {
						st.err = err
					}
					if errors.Is(err, errTransport) {
						break
					}
					continue
				}
				st.lats = append(st.lats, int64(lat))
			}
			st.opsPerSec = float64(len(st.lats)) / time.Since(start).Seconds()
		}(c)
	}
	wg.Wait()
	return mergeLoops(per)
}

func mergeLoops(per []loopStats) loopStats {
	var all loopStats
	for i := range per {
		all.lats = append(all.lats, per[i].lats...)
		all.failed += per[i].failed
		all.opsPerSec += per[i].opsPerSec
		if all.err == nil {
			all.err = per[i].err
		}
	}
	return all
}

// liveHeapMB is the heap still reachable after a forced collection: the
// catalog, its indexes, the plan cache and the generator's own model.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// pacer is an open-loop schedule: op i is due at start + i*interval whether
// or not earlier ops have answered.
type pacer struct {
	start    time.Time
	interval time.Duration
}

func (p pacer) due(i int) time.Time { return p.start.Add(time.Duration(i) * p.interval) }

// openLoop accounts for ops sent on a pacer's schedule. Latency runs from
// the due time, not the send time, so a stall is charged to every op that
// queued behind it; lateness is how far behind schedule the generator sent.
type openLoop struct {
	lats     []int64
	lateness []int64
}

func (o *openLoop) record(due, sent, done time.Time) {
	late := sent.Sub(due)
	if late < 0 {
		late = 0
	}
	o.lateness = append(o.lateness, int64(late))
	o.lats = append(o.lats, int64(done.Sub(due)))
}
