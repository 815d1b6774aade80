package qql

import (
	"testing"

	"repro/internal/storage"
)

// TestDMLErrorTexts pins the errors INSERT values, tags and meta tags and
// UPDATE SETs raise, byte for byte: binding, evaluation over the empty row
// INSERT reads (where every reference is not bound, whichever node holds
// it) and evaluation over a collected row.
func TestDMLErrorTexts(t *testing.T) {
	cases := []struct{ stmt, want string }{
		{`INSERT INTO t VALUES (a, 'x')`, `qql: insert value 1: algebra: column "a" not bound`},
		{`INSERT INTO t VALUES (1 @ {source: b}, 'x')`, `qql: insert tag source: algebra: column "b" not bound`},
		{`INSERT INTO t VALUES (1 / 0, 'x')`, `qql: insert value 1: value: integer division by zero`},
		{`INSERT INTO t VALUES (1, 'x' @ {source: 'feed' @ {credibility: a + 1}})`, `qql: insert meta tag source@credibility: algebra: column "a" not bound`},
		{`INSERT INTO t VALUES (1, b@source)`, `qql: insert value 2: algebra: indicator ref b@source not bound`},
		{`INSERT INTO t VALUES (1, b@source@credibility)`, `qql: insert value 2: algebra: meta ref b@source@credibility not bound`},
		{`INSERT INTO t VALUES (SOURCE(b, 'x'), 'y')`, `qql: insert value 1: algebra: SOURCE(b) not bound`},
		{`INSERT INTO t VALUES (a = 1, 'x')`, `qql: insert value 1: algebra: column "a" not bound`},
		{`INSERT INTO t VALUES (a = NULL, 'x')`, `qql: insert value 1: algebra: column "a" not bound`},
		{`INSERT INTO t VALUES (1, b@source = 'x')`, `qql: insert value 2: algebra: indicator ref b@source not bound`},
		{`INSERT INTO t VALUES (COALESCE(NULL, a), 'x')`, `qql: insert value 1: algebra: column "a" not bound`},
		{`INSERT INTO t VALUES (1, nosuch)`, `qql: insert value 2: algebra: unknown column "nosuch" in t`},
		{`INSERT INTO t VALUES (NOSUCH(1), 'x')`, `qql: insert value 1: algebra: unknown function "NOSUCH"`},
		{`UPDATE t SET a = a / 0`, `value: integer division by zero`},
		{`UPDATE t SET b = 'z' @ {source: nosuch}`, `algebra: unknown column "nosuch" in t`},
		{`UPDATE t SET a = AGE(b)`, `algebra: AGE wants a time, got string`},
		{`UPDATE t SET b = 5 LIKE 'x'`, `algebra: LIKE on non-string int`},
		{`UPDATE t SET nosuch = 1`, `qql: unknown column "nosuch" in UPDATE`},
		{`UPDATE t SET a = 1, b = 'y' @ {source: 'x' @ {credibility: a / 0}}`, `value: integer division by zero`},
	}
	for _, tc := range cases {
		s := NewSession(storage.NewCatalog())
		s.MustExec(`CREATE TABLE t (a int, b string); INSERT INTO t VALUES (1, 'x')`)
		_, err := s.Exec(tc.stmt)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: error %v, want %q", tc.stmt, err, tc.want)
		}
	}
}

// TestStringBuiltinsRejectNonStrings: LENGTH, LOWER and UPPER raise a type
// error on a value that is not a string, as ABS, YEAR and AGE do, in a
// projection, a filter and an UPDATE's SET alike.
func TestStringBuiltinsRejectNonStrings(t *testing.T) {
	cases := []struct{ stmt, want string }{
		{`SELECT LENGTH(a) FROM t`, `algebra: LENGTH wants a string, got int`},
		{`SELECT LOWER(a) FROM t`, `algebra: LOWER wants a string, got int`},
		{`SELECT UPPER(c) FROM t`, `algebra: UPPER wants a string, got time`},
		{`SELECT LENGTH(c) FROM t`, `algebra: LENGTH wants a string, got time`},
		{`SELECT a FROM t WHERE LENGTH(a) = 0`, `algebra: LENGTH wants a string, got int`},
		{`UPDATE t SET a = LENGTH(a)`, `algebra: LENGTH wants a string, got int`},
		{`UPDATE t SET b = LOWER(c)`, `algebra: LOWER wants a string, got time`},
		{`UPDATE t SET b = 'y' @ {source: UPPER(a)}`, `algebra: UPPER wants a string, got int`},
	}
	for _, tc := range cases {
		s := NewSession(storage.NewCatalog())
		s.MustExec(`CREATE TABLE t (a int, b string, c time); INSERT INTO t VALUES (1, 'Fruit Co', t'1991-10-03T00:00:00Z')`)
		_, err := s.Exec(tc.stmt)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: error %v, want %q", tc.stmt, err, tc.want)
		}
	}
	// On strings, and on null, they answer as before.
	s := NewSession(storage.NewCatalog())
	s.MustExec(`CREATE TABLE t (a int, b string, c time); INSERT INTO t VALUES (1, 'Fruit Co', NULL), (2, NULL, NULL)`)
	res := s.MustExec(`SELECT LENGTH(b) AS n, LOWER(b) AS l, UPPER(b) AS u FROM t ORDER BY a`)
	if got := res[0].Rel.Tuples; len(got) != 2 || got[0].Cells[0].V.AsInt() != 8 ||
		got[0].Cells[1].V.AsString() != "fruit co" || got[0].Cells[2].V.AsString() != "FRUIT CO" ||
		!got[1].Cells[0].V.IsNull() || !got[1].Cells[1].V.IsNull() || !got[1].Cells[2].V.IsNull() {
		t.Errorf("string builtins over strings and null: %v", got)
	}
}
