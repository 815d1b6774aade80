package qql

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/tag"
	"repro/internal/value"
)

// referenceUpdatedRow applies an UPDATE's SET clauses to a copy of tup the
// naive way: each clause bound against sc and evaluated through
// algebra.Reference over tup as collected, in clause order — value, then
// each tag and its meta tags.
func referenceUpdatedRow(sets []SetClause, sc *schema.Schema, tup relation.Tuple, ctx *algebra.EvalContext) (relation.Tuple, error) {
	eval := func(e algebra.Expr) (value.Value, error) {
		if err := e.Bind(sc); err != nil {
			return value.Null, err
		}
		return algebra.Reference(e, tup, ctx)
	}
	updated := tup.Clone()
	for _, set := range sets {
		cell := &updated.Cells[sc.ColIndex(set.Col)]
		if set.Expr != nil {
			v, err := eval(set.Expr)
			if err != nil {
				return relation.Tuple{}, err
			}
			cell.V = v
		}
		for _, ta := range set.Tags {
			v, err := eval(ta.Expr)
			if err != nil {
				return relation.Tuple{}, err
			}
			cell.Tags = cell.Tags.With(ta.Name, v)
			for _, m := range ta.Meta {
				mv, err := eval(m.Expr)
				if err != nil {
					return relation.Tuple{}, err
				}
				*cell = cell.WithMetaTag(ta.Name, m.Name, mv)
			}
		}
	}
	return updated, nil
}

// referenceInsertRows evaluates an INSERT's rows through algebra.Reference
// over the empty tuple.
func referenceInsertRows(t *testing.T, st *InsertStmt, sc *schema.Schema, ctx *algebra.EvalContext) []relation.Tuple {
	t.Helper()
	eval := func(e algebra.Expr) value.Value {
		if err := e.Bind(sc); err != nil {
			t.Fatal(err)
		}
		v, err := algebra.Reference(e, relation.Tuple{}, ctx)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	var out []relation.Tuple
	for _, row := range st.Rows {
		cells := make([]relation.Cell, len(row))
		for i, ic := range row {
			cells[i].V = eval(ic.Expr)
			for _, ta := range ic.Tags {
				cells[i].Tags = cells[i].Tags.With(ta.Name, eval(ta.Expr))
				for _, m := range ta.Meta {
					cells[i] = cells[i].WithMetaTag(ta.Name, m.Name, eval(m.Expr))
				}
			}
			if len(ic.Sources) > 0 {
				cells[i].Sources = tag.NewSources(ic.Sources...)
			}
		}
		out = append(out, relation.Tuple{Cells: cells})
	}
	return out
}

// setFixture builds a three-segment table whose cells carry creation_time
// and source tags, source carrying a credibility meta tag on some, with
// nulls and untagged cells among them and few live rows. Every call builds
// the same table, row IDs included.
func setFixture(t *testing.T) (*Session, *storage.Table) {
	t.Helper()
	s := NewSession(storage.NewCatalog())
	now := time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC)
	s.SetNow(now)
	s.MustExec(`CREATE TABLE m (
  id int REQUIRED,
  a int QUALITY (creation_time time, source string),
  b int QUALITY (creation_time time, source string),
  s string
) KEY (id)`)
	tbl, _ := s.Catalog().Get("m")
	const n = 2*storage.SegmentSize + 300
	tagged := func(i int, v value.Value) relation.Cell {
		c := relation.Cell{V: v}
		if i%11 == 0 {
			return c
		}
		c.Tags = tag.NewSet(
			tag.Tag{Indicator: "creation_time", Value: value.Time(now.Add(-time.Duration(i%41) * 24 * time.Hour))},
			tag.Tag{Indicator: "source", Value: value.Str([]string{"Nexis", "sales", "estimate"}[i%3])},
		)
		if i%4 == 0 {
			c = c.WithMetaTag("source", "credibility", value.Str([]string{"high", "low"}[i%8/4]))
		}
		return c
	}
	for i := 0; i < n; i++ {
		a, b, str := value.Int(int64(i%97)), value.Int(int64(i*7%50)), value.Str(fmt.Sprintf("Co %d", i%13))
		if i%9 == 0 {
			a = value.Null
		}
		if i%14 == 0 {
			b = value.Null
		}
		if i%15 == 0 {
			str = value.Null
		}
		tup := relation.Tuple{Cells: []relation.Cell{{V: value.Int(int64(i))}, tagged(i, a), tagged(i+5, b), {V: str}}}
		if _, err := tbl.Insert(tup); err != nil {
			t.Fatal(err)
		}
	}
	// One row in sixteen stays live, in every segment.
	for i := 0; i < n; i++ {
		if i%16 != 3 {
			if err := tbl.Delete(storage.RowID(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s, tbl
}

// TestUpdateMatchesReference holds UPDATE's compiled SET evaluation to
// algebra.Reference: after each statement the table equals the one built
// by applying referenceUpdatedRow to the rows the reference collection
// read before it. Every SET reads the row as collected, so a swap swaps,
// and tags and meta tags computed from pre-update cells and indicators
// see the old ones. A multi-row INSERT with computed values, tags and meta
// tags is held to the reference evaluated over the empty row.
func TestUpdateMatchesReference(t *testing.T) {
	stmts := []string{
		`UPDATE m SET a = b, b = a`,
		`UPDATE m SET a = a * 2 + b - 1, b = -a WHERE id > 4000`,
		`UPDATE m SET a = b @ {source: b@source, creation_time: a@creation_time}, b = a @ {source: a@source}`,
		`UPDATE m SET b = 1 @ {source: a@source @ {credibility: a@source@credibility}} WHERE a@source@credibility = 'high' OR b IS NULL`,
		`UPDATE m SET a = COALESCE(a, b, 0), s = COALESCE(s, LOWER(b@source), 'none')`,
		`UPDATE m SET a @ {creation_time: NOW(), source: 'recert'} WHERE AGE(a@creation_time) > d'240h'`,
		`UPDATE m SET s = UPPER(s) @ {source: s}, b = YEAR(NOW()) - YEAR(b@creation_time) WHERE SOURCE(s, 'x') = false`,
		`UPDATE m SET a = 5 @ {source: 'recert'} WHERE id = 4099`,
		`UPDATE m SET a = a, b = a + b WHERE a IN (1, 2, 3) OR b NOT IN (7, NULL)`,
	}
	planned, ptbl := setFixture(t)
	oracle, otbl := setFixture(t)
	sc := otbl.Schema()
	for _, q := range stmts {
		res, err := planned.Exec(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		stmt, err := Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		ust := stmt[0].(*UpdateStmt)
		ids, rows, err := oracleCollect(oracle, otbl, ust.Where)
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) == 0 {
			t.Errorf("%s: the reference matched no row", q)
		}
		if want := fmt.Sprintf("updated %d row(s) in m", len(ids)); res[0].Msg != want {
			t.Errorf("%s: %q, reference %q", q, res[0].Msg, want)
		}
		for i, id := range ids {
			tup, err := referenceUpdatedRow(ust.Sets, sc, rows[i], oracle.ctx)
			if err != nil {
				t.Fatal(err)
			}
			if err := otbl.Update(id, tup); err != nil {
				t.Fatal(err)
			}
		}
		if p, o := dumpTable(ptbl), dumpTable(otbl); p != o {
			t.Fatalf("tables differ after %s: %s", q, firstDiff(p, o))
		}
	}

	ins := `INSERT INTO m VALUES
  (90001, 2 * 3 + 1 @ {creation_time: NOW(), source: LOWER('NEXIS') @ {credibility: UPPER('high')}}, COALESCE(NULL, -4) @ {source: 'dnb'}, LOWER('ABC') SOURCE ('feed', 'dnb')),
  (90002, ABS(-7) @ {creation_time: NOW() - d'24h'}, LENGTH('four') / 2, NULL),
  (90003, YEAR(NOW()), 1 + 2 * 3, 'x')`
	if _, err := planned.Exec(ins); err != nil {
		t.Fatal(err)
	}
	stmt, err := Parse(ins)
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range referenceInsertRows(t, stmt[0].(*InsertStmt), sc, oracle.ctx) {
		if _, err := otbl.Insert(tup); err != nil {
			t.Fatal(err)
		}
	}
	if p, o := dumpTable(ptbl), dumpTable(otbl); p != o {
		t.Fatalf("tables differ after the INSERT: %s", firstDiff(p, o))
	}
}

// firstDiff names the first line where two table dumps differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n  got       %s\n  reference %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, reference %d", len(g), len(w))
}
