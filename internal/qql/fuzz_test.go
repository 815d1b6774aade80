package qql

import "testing"

// FuzzParse drives the QQL lexer and parser with arbitrary input. The
// properties under test are crash-freedom (no panics, no infinite loops on
// malformed statements) plus one consistency invariant: anything Parse
// accepts must also tokenize cleanly, since the parser consumes the token
// stream the lexer produces.
//
// Seeds cover the grammar's distinctive corners: quality-tagged inserts
// (@ {source: ...}, SOURCE lists), WITH QUALITY predicates on indicator
// columns, QUALITY column clauses in DDL, and plain relational statements.
// The committed corpus lives in testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"SELECT co_name FROM customer WHERE employees > 100",
		"EXPLAIN SELECT co_name FROM customer WITH QUALITY employees@source = 'Nexis'",
		"CREATE TABLE m (x int QUALITY (source string))",
		"INSERT INTO m VALUES (1 @ {source: 'a'}), (2)",
		"INSERT INTO r VALUES (1 SOURCE 'a', 'one'), (2 SOURCE 'b', 'two' SOURCE ('c', 'd'))",
		"SELECT x, COUNT(y) FROM n GROUP BY x ORDER BY x DESC LIMIT 3;",
		"DELETE FROM trades WHERE qty < 50",
		"UPDATE t SET x = x + 1 WHERE x IS NOT NULL",
		"CREATE INDEX ON nums (n)",
		"DESCRIBE customer",
		"SELECT a FROM t WHERE s LIKE 'ab%' AND n IN (1, 2, 3)",
		"SELECT 'unterminated",
		"INSERT INTO nums VALUES (",
		"\x00\xff@@QUALITY",
		"-- leading comment\n  select a FROM t",
		";; explain analyze SELECT a FROM t;",
		"\t;\nSeLeCt a FROM t -- trailing",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmts, err := Parse(src)
		if err != nil {
			return
		}
		if _, terr := Tokenize(src); terr != nil {
			t.Fatalf("Parse accepted %q (%d stmts) but Tokenize rejects it: %v", src, len(stmts), terr)
		}
		// A script that is one SELECT or EXPLAIN must get a plan-cache key:
		// no legal spelling may silently lose plan caching.
		if len(stmts) == 1 {
			switch stmts[0].(type) {
			case *SelectStmt, *ExplainStmt:
				if selectKey(src) == "" {
					t.Fatalf("%q parses to one %T but selectKey gives it no key", src, stmts[0])
				}
			}
		}
	})
}
