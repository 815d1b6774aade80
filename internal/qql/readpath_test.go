package qql

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/tag"
	"repro/internal/value"
	"repro/internal/workload"
)

// filterOrderTable builds a two-segment table whose row 2050 has x null
// and a string creation_time tag: AGE of it fails, so a WITH QUALITY AGE
// filter may only run on the rows a WHERE on x kept.
func filterOrderTable(t *testing.T) *Session {
	t.Helper()
	cat := storage.NewCatalog()
	s := NewSession(cat)
	s.SetNow(workload.Epoch)
	s.MustExec(`CREATE TABLE t (id int REQUIRED, x int, c string, mark int) KEY (id)`)
	tbl, _ := cat.Get("t")
	for i := 0; i < storage.SegmentSize+10; i++ {
		x := value.Int(int64(i % 10))
		made := value.Time(workload.Epoch.Add(-time.Duration(i) * time.Hour))
		if i == 2050 {
			x, made = value.Null, value.Str("yesterday")
		}
		c := relation.Cell{V: value.Str("c"), Tags: tag.NewSet(tag.Tag{Indicator: "creation_time", Value: made})}
		if _, err := tbl.Insert(relation.Tuple{Cells: []relation.Cell{{V: value.Int(int64(i))}, {V: x}, c, {V: value.Null}}}); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// sameAnswer reports how got/gotErr differs from the reference's answer,
// or "" when rows (tags and sources included) or error text agree.
func sameAnswer(got *relation.Relation, gotErr error, want *relation.Relation, wantErr error) string {
	switch {
	case wantErr != nil:
		if gotErr == nil || gotErr.Error() != wantErr.Error() {
			return fmt.Sprintf("err %v, want %v", gotErr, wantErr)
		}
	case gotErr != nil:
		return fmt.Sprintf("err %v, want %d rows", gotErr, want.Len())
	case relation.Format(got, true) != relation.Format(want, true):
		return fmt.Sprintf("%d rows, want %d", got.Len(), want.Len())
	}
	return ""
}

// TestFiltersAgreeAcrossDegrees: a SELECT's WHERE and WITH QUALITY, and an
// UPDATE's WHERE, give the reference's answer — rows, or the error text —
// at every degree and batch size. WHERE runs first and WITH QUALITY only on
// the rows it kept, so the quality filter never sees row 2050; a WHERE
// that ANDs the two conditions evaluates AGE there and fails everywhere.
func TestFiltersAgreeAcrossDegrees(t *testing.T) {
	s := filterOrderTable(t)
	tbl, _ := s.cat.Get("t")
	const age = `AGE(c@creation_time) < d'1000000h'`
	queries := []string{
		`SELECT id FROM t WHERE x > 5 WITH QUALITY ` + age,
		`SELECT id FROM t WHERE x > 5 AND ` + age,
	}
	wheres := []string{`x > 5`, `x > 5 AND ` + age}
	mark := 0
	for _, degree := range []int{1, 2, 4} {
		for _, bs := range []int{1, 3, 1024} {
			s.SetParallelism(degree)
			s.batchSize = bs
			for _, q := range queries {
				want, wantErr := referenceSelectErr(t, tbl, q)
				got, err := s.Query(q)
				if diff := sameAnswer(got, err, want, wantErr); diff != "" {
					t.Errorf("%q (deg %d, batch %d): %s", q, degree, bs, diff)
				}
			}
			// The DML twin: each UPDATE marks the rows it collected.
			for _, where := range wheres {
				mark++
				want, wantErr := referenceSelectErr(t, tbl, `SELECT id FROM t WHERE `+where)
				_, err := s.Exec(fmt.Sprintf(`UPDATE t SET mark = %d WHERE %s`, mark, where))
				var got *relation.Relation
				if err == nil {
					got, err = s.Query(fmt.Sprintf(`SELECT id FROM t WHERE mark = %d`, mark))
				}
				if diff := sameAnswer(got, err, want, wantErr); diff != "" {
					t.Errorf("UPDATE ... WHERE %s (deg %d, batch %d): %s", where, degree, bs, diff)
				}
			}
		}
	}
}

// TestLimitStopsFiltering: under a LIMIT the scan filters one window at a
// time, so a filter that would fail on a later row never reaches it —
// at any degree, since a bare LIMIT plans the inline scan — while the
// same query drained to the end fails.
func TestLimitStopsFiltering(t *testing.T) {
	cat := storage.NewCatalog()
	s := NewSession(cat)
	s.MustExec(`CREATE TABLE t (id int REQUIRED) KEY (id)`)
	tbl, _ := cat.Get("t")
	for i := 0; i < 2*storage.SegmentSize+100; i++ { // 3 segments
		if _, err := tbl.Insert(relation.NewTuple(value.Int(int64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	const q = `SELECT id FROM t WHERE 100 / (id - 2000) < 1`
	for _, degree := range []int{1, 4} {
		s.SetParallelism(degree)
		got, err := s.Query(q + ` LIMIT 1`)
		if err != nil || got.Len() != 1 {
			t.Errorf("deg %d: LIMIT 1 = %v, %v; want 1 row", degree, got, err)
		}
		if _, err := s.Query(q); err == nil || err.Error() != "value: integer division by zero" {
			t.Errorf("deg %d: unlimited err = %v, want integer division by zero", degree, err)
		}
	}
}

// TestDMLPathIsSelectSource: an UPDATE's ExecInfo.PlanShape is the source
// step EXPLAIN prints for a SELECT with the same WHERE — an index probe
// as it is, a scan with the segments it skipped added — inline and
// fanned out.
func TestDMLPathIsSelectSource(t *testing.T) {
	s := filterOrderTable(t)
	s.MustExec(`CREATE INDEX ON t (id) USING BTREE`)
	skipped := regexp.MustCompile(`, segments skipped=\d+ of 2\)$`)
	for _, degree := range []int{1, 2} {
		s.SetParallelism(degree)
		for _, where := range []string{`id = 7`, `x > 5`, `x > 5 AND c = 'c'`} {
			step := planSteps(t, s, `SELECT id FROM t WHERE `+where)[0]
			s.MustExec(`UPDATE t SET mark = 0 WHERE ` + where)
			shape := s.LastExecInfo().PlanShape
			if strings.HasPrefix(step, "IndexScan(") {
				if shape != step {
					t.Errorf("deg %d, WHERE %s: path %q, EXPLAIN source %q", degree, where, shape, step)
				}
				continue
			}
			if !skipped.MatchString(shape) || skipped.ReplaceAllString(shape, ")") != step {
				t.Errorf("deg %d, WHERE %s: path %q, EXPLAIN source %q", degree, where, shape, step)
			}
		}
	}
}
