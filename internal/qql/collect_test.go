package qql

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/tag"
	"repro/internal/value"
)

// oracleCollect is DML collection without the planner: bind the WHERE, walk
// one SnapshotCols capture and test every live row with
// algebra.ReferenceTruth. It shares no access-path, compile or skipping code with
// collectMatches, which is what makes it an oracle for it.
func oracleCollect(s *Session, tbl *storage.Table, where algebra.Expr) ([]storage.RowID, []relation.Tuple, error) {
	if where != nil {
		if err := where.Bind(tbl.Schema()); err != nil {
			return nil, nil, err
		}
	}
	cols := tbl.Schema().ColIndexes()
	var ids []storage.RowID
	var rows []relation.Tuple
	for _, cs := range tbl.SnapshotCols(cols) {
		for k := 0; k < cs.Live(); k++ {
			row := relation.Tuple{Cells: make([]relation.Cell, len(cols))}
			id := cs.RowInto(k, row.Cells)
			if where != nil {
				keep, err := algebra.ReferenceTruth(where, row, s.ctx)
				if err != nil {
					return nil, nil, err
				}
				if !keep {
					continue
				}
			}
			ids = append(ids, id)
			rows = append(rows, row)
		}
	}
	return ids, rows, nil
}

// collectFixture builds a three-segment customer table with deleted rows,
// null employees, untagged cells, a hash index on co_name, a B-tree on
// employees and a hash index on the indicator employees@source. Every call
// builds the same table, row IDs included.
func collectFixture(t testing.TB) (*Session, *storage.Table) {
	t.Helper()
	s := NewSession(storage.NewCatalog())
	now := time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC)
	s.SetNow(now)
	s.MustExec(`CREATE TABLE customer (
  co_name string REQUIRED,
  employees int QUALITY (creation_time time, source string),
  region string
) KEY (co_name)`)
	tbl, _ := s.Catalog().Get("customer")
	const n = 2*storage.SegmentSize + 700
	for i := 0; i < n; i++ {
		emp := relation.Cell{V: value.Int(int64(i * 37 % 1000))}
		if i%13 == 0 {
			emp.V = value.Null
		}
		if i%17 != 0 {
			emp.Tags = tag.NewSet(
				tag.Tag{Indicator: "creation_time", Value: value.Time(now.Add(-time.Duration(i%61) * 24 * time.Hour))},
				tag.Tag{Indicator: "source", Value: value.Str(source(i))},
			)
		}
		region := "east"
		if i%20 != 0 {
			region = "west"
		}
		tup := relation.Tuple{Cells: []relation.Cell{{V: value.Str(fmt.Sprintf("k%05d", i))}, emp, {V: value.Str(region)}}}
		if _, err := tbl.Insert(tup); err != nil {
			t.Fatal(err)
		}
	}
	// Keep about one row in twelve live, spread over every segment: an
	// UPDATE copies the segment's runs per row, so few live rows keep the
	// test quick under -race.
	for i := 0; i < n; i++ {
		if i%10 != 0 || i%7 == 0 {
			if err := tbl.Delete(storage.RowID(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.MustExec(`CREATE INDEX ON customer (co_name) USING HASH;
CREATE INDEX ON customer (employees) USING BTREE;
CREATE INDEX ON customer (employees@source) USING HASH`)
	return s, tbl
}

// source is row i's employees@source: 'estimate' on one row in nine.
func source(i int) string {
	switch {
	case i%9 == 0:
		return "estimate"
	case i%2 == 0:
		return "sales"
	}
	return "Nexis"
}

// dumpTable renders every live row with its tags, in row-ID order.
func dumpTable(tbl *storage.Table) string {
	rel := relation.New(tbl.Schema())
	tbl.Scan(func(_ storage.RowID, tup relation.Tuple) bool {
		rel.Tuples = append(rel.Tuples, tup)
		return true
	})
	return relation.Format(rel, true)
}

// whereOf parses src (a DML statement) and returns its WHERE, nil if none.
func whereOf(t *testing.T, src string) algebra.Expr {
	t.Helper()
	stmts, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	switch st := stmts[0].(type) {
	case *DeleteStmt:
		return st.Where
	case *UpdateStmt:
		return st.Where
	}
	t.Fatalf("%s is not UPDATE or DELETE", src)
	return nil
}

// TestCollectMatchesOracle holds the planned DML collection — index probe
// plus re-check, compiled snapshot scan with segment skipping, or nothing
// for a never-true WHERE — to the reference snapshot walk: the same row
// IDs for every predicate, and byte-identical tables after the same UPDATE
// and the same DELETE.
func TestCollectMatchesOracle(t *testing.T) {
	cases := []struct {
		name, where, path string
		n                 int // rows the fixture holds that match
	}{
		{"hash_eq", `co_name = 'k00040'`, "IndexScan(customer on co_name:", 1},
		{"hash_eq_deleted", `co_name = 'k00070'`, "IndexScan(customer on co_name:", 0},
		{"hash_eq_recheck", `co_name = 'k00050' AND employees > 2000`, "IndexScan(customer on co_name:", 0},
		{"btree_range", `employees >= 100 AND employees < 250`, "IndexScan(customer on employees:", 105},
		{"indicator_eq", `employees@source = 'estimate'`, "IndexScan(customer on employees@source:", 79},
		{"indicator_eq_recheck", `employees@source = 'estimate' AND region = 'east'`, "IndexScan(customer on employees@source:", 40},
		{"or_not_sargable", `co_name = 'k00040' OR employees < 50`, "BatchTableScan(customer WHERE ", 38},
		{"age", `AGE(employees@creation_time) <= d'240h'`, "BatchTableScan(customer WHERE ", 131},
		{"null_const", `employees = null`, "IndexScan(customer on employees:", 0},
		{"hash_range_skips", `co_name >= 'k08192'`, "BatchTableScan(customer WHERE ", 60},
		{"never_true", `1 = 0`, "EmptyScan(customer)", 0},
		{"no_where", ``, "BatchTableScan(customer, segments skipped=0 of 3)", 762},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			where := ""
			if tc.where != "" {
				where = " WHERE " + tc.where
			}
			del := `DELETE FROM customer` + where
			upd := `UPDATE customer SET employees = employees + 1 @ {source: 'recert'}, region = 'north'` + where

			planned, ptbl := collectFixture(t)
			oracle, otbl := collectFixture(t)

			var got []storage.RowID
			path, err := planned.collectMatches(ptbl, whereOf(t, del), nil, func(id storage.RowID, _ relation.Tuple) error {
				got = append(got, id)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := oracleCollect(oracle, otbl, whereOf(t, del))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("collected %d row IDs %v, oracle %d %v", len(got), head(got), len(want), head(want))
			}
			if len(want) != tc.n {
				t.Errorf("oracle matched %d rows, fixture has %d", len(want), tc.n)
			}
			if !strings.HasPrefix(path, tc.path) {
				t.Errorf("path %q, want prefix %q", path, tc.path)
			}

			// The same UPDATE: planned through Exec, oracle through the
			// reference walk and the reference SET evaluation.
			if _, err := planned.Exec(upd); err != nil {
				t.Fatal(err)
			}
			stmts, err := Parse(upd)
			if err != nil {
				t.Fatal(err)
			}
			ust := stmts[0].(*UpdateStmt)
			ids, rows, err := oracleCollect(oracle, otbl, ust.Where)
			if err != nil {
				t.Fatal(err)
			}
			for i, id := range ids {
				tup, err := referenceUpdatedRow(ust.Sets, otbl.Schema(), rows[i], oracle.ctx)
				if err != nil {
					t.Fatal(err)
				}
				if err := otbl.Update(id, tup); err != nil {
					t.Fatal(err)
				}
			}
			if p, o := dumpTable(ptbl), dumpTable(otbl); p != o {
				t.Fatalf("tables differ after %s", upd)
			}

			// The same DELETE, over the updated tables.
			if _, err := planned.Exec(del); err != nil {
				t.Fatal(err)
			}
			ids, _, err = oracleCollect(oracle, otbl, whereOf(t, del))
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range ids {
				if err := otbl.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
			if p, o := dumpTable(ptbl), dumpTable(otbl); p != o {
				t.Fatalf("tables differ after %s", del)
			}
		})
	}
}

// TestCollectSkipsRefutedSegments checks the scan path reports the segments
// its min/max statistics refuted: co_name is hash-indexed, so a range on it
// scans, and rows k08192 and up live only in the third segment.
func TestCollectSkipsRefutedSegments(t *testing.T) {
	s, _ := collectFixture(t)
	res, err := s.Exec(`DELETE FROM customer WHERE co_name >= 'k08192'`)
	if err != nil {
		t.Fatal(err)
	}
	if want := "segments skipped=2 of 3)"; !strings.HasSuffix(s.LastExecInfo().PlanShape, want) {
		t.Errorf("path %q, want suffix %q (%s)", s.LastExecInfo().PlanShape, want, res[0].Msg)
	}
}

// head abbreviates a row-ID list for failure messages.
func head(ids []storage.RowID) []storage.RowID {
	if len(ids) > 8 {
		return ids[:8]
	}
	return ids
}
