// Package locksafetest exercises the locksafe analyzer. The harness
// type-checks it under an import path ending in internal/storage, so its
// mutexes count as storage-owned and arm the interface-method rule.
package locksafetest

import (
	"sort"
	"sync"
)

type sink interface{ Emit(int) }

type table struct {
	mu   sync.RWMutex
	rows []int
}

// scanBad is the PR 2 deadlock shape: a caller-supplied visitor invoked
// under the read lock.
func (t *table) scanBad(visit func(int) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, r := range t.rows {
		if !visit(r) { // want `calls function value visit`
			return
		}
	}
}

// flushBad dispatches through an interface while the storage lock is held.
func (t *table) flushBad(s sink) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.Emit(len(t.rows)) // want `calls interface method s.Emit`
}

// reindex acquires t.mu, so it lands in the package mayLock set.
func (t *table) reindex() {
	t.mu.Lock()
	t.rows = append([]int(nil), t.rows...)
	t.mu.Unlock()
}

// nestedBad calls a lock-acquiring helper inside a locked region.
func (t *table) nestedBad(u *table) {
	t.mu.Lock()
	defer t.mu.Unlock()
	u.reindex() // want `acquires a lock`
}

// doubleLockBad re-acquires a lock it already holds.
func (t *table) doubleLockBad() {
	t.mu.Lock()
	t.mu.Lock() // want `while already holding`
	t.mu.Unlock()
	t.mu.Unlock()
}

func runner(f func()) { f() }

// passBad hands an opaque function value to a callee under the lock.
func (t *table) passBad(f func()) {
	t.mu.Lock()
	defer t.mu.Unlock()
	runner(f) // want `passes function value f`
}

// each is the audited visitor helper: no lock of its own.
func (t *table) each(visit func(int)) {
	for _, r := range t.rows {
		visit(r)
	}
}

// literalOK: function literals passed under the lock are analyzed inline,
// not reported — the btree.Range / sort.Slice idiom.
func (t *table) literalOK() int {
	total := 0
	t.mu.RLock()
	defer t.mu.RUnlock()
	t.each(func(r int) { total += r })
	sort.Slice(t.rows, func(i, j int) bool { return t.rows[i] < t.rows[j] })
	return total
}

// localClosureOK: a local bound once to a literal is as auditable as the
// literal, so calling it under the lock is fine.
func (t *table) localClosureOK() int {
	n := 0
	add := func(d int) { n += d }
	t.mu.Lock()
	defer t.mu.Unlock()
	add(len(t.rows))
	return n
}

// unlockFirstOK releases the lock before transferring control.
func (t *table) unlockFirstOK(visit func(int)) {
	t.mu.Lock()
	n := len(t.rows)
	t.mu.Unlock()
	visit(n)
}
