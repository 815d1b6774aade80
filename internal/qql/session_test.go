package qql

import (
	"strings"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/value"
)

// newPaperSession loads the paper's Table 1/2 customer example plus a trade
// table for join tests.
func newPaperSession(t *testing.T) *Session {
	t.Helper()
	s := NewSession(storage.NewCatalog())
	s.SetNow(time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC))
	_, err := s.Exec(`
CREATE TABLE customer (
  co_name string REQUIRED,
  address string QUALITY (creation_time time, source string),
  employees int QUALITY (creation_time time, source string)
) KEY (co_name) STRICT;

INSERT INTO customer VALUES (
  'Fruit Co',
  '12 Jay St' @ {creation_time: t'1991-01-02', source: 'sales'} SOURCE 'sales_db',
  4004 @ {creation_time: t'1991-10-03', source: 'Nexis'} SOURCE 'nexis'
);
INSERT INTO customer VALUES (
  'Nut Co',
  '62 Lois Av' @ {creation_time: t'1991-10-24', source: 'acct''g'} SOURCE 'acctg_db',
  700 @ {creation_time: t'1991-10-09', source: 'estimate'} SOURCE 'estimate'
);

CREATE TABLE trades (
  co_name string,
  qty int,
  price float QUALITY (source string)
);
INSERT INTO trades VALUES ('Fruit Co', 100, 10.5 @ {source: 'feedA'}),
                          ('Fruit Co', 50, 11.0 @ {source: 'feedB'}),
                          ('Nut Co', 25, 7.25 @ {source: 'feedA'});
`)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCreateInsertSelectStar(t *testing.T) {
	s := newPaperSession(t)
	rel, err := s.Query(`SELECT * FROM customer`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Fatalf("rows = %d", rel.Len())
	}
	// Cell tags present (Table 2 shape).
	addr := rel.Tuples[0].Cells[1]
	if v, ok := addr.Tags.Get("source"); !ok || v.AsString() != "sales" {
		t.Errorf("address source tag = %v, %v", v, ok)
	}
	if !addr.Sources.Contains("sales_db") {
		t.Errorf("address polygen sources = %v", addr.Sources)
	}
}

func TestWhereAndQualityClauses(t *testing.T) {
	s := newPaperSession(t)
	// Application predicate only.
	rel, err := s.Query(`SELECT co_name FROM customer WHERE employees > 1000`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 || rel.Tuples[0].Cells[0].V.AsString() != "Fruit Co" {
		t.Fatalf("where result = %v", rel.Tuples)
	}
	// Quality predicate over indicator: exclude estimates.
	rel, err = s.Query(`SELECT co_name, employees FROM customer WITH QUALITY employees@source != 'estimate'`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 || rel.Tuples[0].Cells[0].V.AsString() != "Fruit Co" {
		t.Fatalf("quality filter result = %v", rel.Tuples)
	}
	// Both clauses.
	rel, err = s.Query(`SELECT co_name FROM customer WHERE employees < 5000 WITH QUALITY AGE(employees@creation_time) <= d'2160h'`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Fatalf("combined clauses = %d rows", rel.Len())
	}
}

func TestQualityAgeFilter(t *testing.T) {
	s := newPaperSession(t)
	// As of 1992-01-01, address tagged 1991-01-02 is ~364 days old;
	// 1991-10-24 is ~69 days old. Filter to < 90 days.
	rel, err := s.Query(`SELECT co_name FROM customer WITH QUALITY AGE(address@creation_time) < d'2160h'`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 || rel.Tuples[0].Cells[0].V.AsString() != "Nut Co" {
		t.Fatalf("age filter = %v", rel.Tuples)
	}
}

func TestSourcePredicate(t *testing.T) {
	s := newPaperSession(t)
	rel, err := s.Query(`SELECT co_name FROM customer WHERE SOURCE(employees, 'nexis')`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 || rel.Tuples[0].Cells[0].V.AsString() != "Fruit Co" {
		t.Fatalf("source predicate = %v", rel.Tuples)
	}
}

func TestProjectionExpressionsAndAliases(t *testing.T) {
	s := newPaperSession(t)
	rel, err := s.Query(`SELECT co_name AS company, employees * 2 AS doubled FROM customer ORDER BY employees DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Schema.Attrs[0].Name != "company" || rel.Schema.Attrs[1].Name != "doubled" {
		t.Fatalf("schema = %v", rel.Schema.AttrNames())
	}
	if rel.Tuples[0].Cells[1].V.AsInt() != 8008 {
		t.Fatalf("doubled = %v", rel.Tuples[0].Cells[1].V)
	}
	// Derived cell keeps the employees tags (only contributor).
	if v, ok := rel.Tuples[0].Cells[1].Tags.Get("source"); !ok || v.AsString() != "Nexis" {
		t.Errorf("derived tag = %v, %v", v, ok)
	}
}

func TestOrderByAliasAndLimitOffset(t *testing.T) {
	s := newPaperSession(t)
	rel, err := s.Query(`SELECT co_name, employees + 0 AS e FROM customer ORDER BY e DESC LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 || rel.Tuples[0].Cells[0].V.AsString() != "Fruit Co" {
		t.Fatalf("order by alias = %v", rel.Tuples)
	}
	rel, err = s.Query(`SELECT co_name FROM customer ORDER BY co_name LIMIT 1 OFFSET 1`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 || rel.Tuples[0].Cells[0].V.AsString() != "Nut Co" {
		t.Fatalf("offset = %v", rel.Tuples)
	}
}

func TestJoinQualifiedNames(t *testing.T) {
	s := newPaperSession(t)
	rel, err := s.Query(`
SELECT c.co_name, t.qty, t.price
FROM customer c JOIN trades t ON c.co_name = t.co_name
WHERE t.qty >= 50
ORDER BY t.qty DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Fatalf("join rows = %d", rel.Len())
	}
	if rel.Tuples[0].Cells[1].V.AsInt() != 100 {
		t.Fatalf("join order = %v", rel.Tuples)
	}
	// Quality tags survive the join.
	if v, ok := rel.Tuples[0].Cells[2].Tags.Get("source"); !ok || v.AsString() != "feedA" {
		t.Errorf("join lost price tags: %v %v", v, ok)
	}
}

func TestJoinQualityClause(t *testing.T) {
	s := newPaperSession(t)
	rel, err := s.Query(`
SELECT c.co_name, t.price FROM customer c JOIN trades t ON c.co_name = t.co_name
WITH QUALITY t.price@source = 'feedA' AND c.employees@source != 'estimate'`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 || rel.Tuples[0].Cells[0].V.AsString() != "Fruit Co" {
		t.Fatalf("join quality = %v", rel.Tuples)
	}
}

func TestAggregates(t *testing.T) {
	s := newPaperSession(t)
	rel, err := s.Query(`SELECT co_name, COUNT(*) AS n, SUM(qty) AS total, AVG(price) AS avg_p
FROM trades GROUP BY co_name ORDER BY total DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Fatalf("groups = %d", rel.Len())
	}
	first := rel.Tuples[0]
	if first.Cells[0].V.AsString() != "Fruit Co" || first.Cells[1].V.AsInt() != 2 || first.Cells[2].V.AsInt() != 150 {
		t.Fatalf("agg row = %v", first)
	}
	// Global aggregate.
	rel, err = s.Query(`SELECT COUNT(*) AS n, MIN(qty) AS lo, MAX(qty) AS hi FROM trades`)
	if err != nil {
		t.Fatal(err)
	}
	row := rel.Tuples[0]
	if row.Cells[0].V.AsInt() != 3 || row.Cells[1].V.AsInt() != 25 || row.Cells[2].V.AsInt() != 100 {
		t.Fatalf("global agg = %v", row)
	}
}

func TestAggregateErrors(t *testing.T) {
	s := newPaperSession(t)
	if _, err := s.Query(`SELECT qty, COUNT(*) FROM trades`); err == nil {
		t.Error("non-grouped item with aggregate should fail")
	}
	if _, err := s.Query(`SELECT *, COUNT(*) FROM trades`); err == nil {
		t.Error("star with aggregate should fail")
	}
}

func TestDistinct(t *testing.T) {
	s := newPaperSession(t)
	rel, err := s.Query(`SELECT DISTINCT co_name FROM trades`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Fatalf("distinct = %d rows", rel.Len())
	}
}

func TestDeleteAndUpdate(t *testing.T) {
	s := newPaperSession(t)
	res, err := s.Exec(`DELETE FROM trades WHERE qty < 50`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res[0].Msg, "deleted 1") {
		t.Fatalf("delete msg = %q", res[0].Msg)
	}
	res, err = s.Exec(`UPDATE trades SET qty = qty + 1 WHERE co_name = 'Fruit Co'`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res[0].Msg, "updated 2") {
		t.Fatalf("update msg = %q", res[0].Msg)
	}
	rel, _ := s.Query(`SELECT SUM(qty) AS q FROM trades`)
	if rel.Tuples[0].Cells[0].V.AsInt() != 152 {
		t.Fatalf("after update sum = %v", rel.Tuples[0].Cells[0].V)
	}
	// Tag-only update (re-certification by the data quality administrator).
	res, err = s.Exec(`UPDATE customer SET address @ {source: 'verified'} WHERE co_name = 'Nut Co'`)
	if err != nil {
		t.Fatal(err)
	}
	rel, _ = s.Query(`SELECT co_name FROM customer WITH QUALITY address@source = 'verified'`)
	if rel.Len() != 1 {
		t.Fatalf("tag update not visible: %d rows", rel.Len())
	}
}

func TestShowAndDescribe(t *testing.T) {
	s := newPaperSession(t)
	res := s.MustExec(`SHOW TABLES`)
	if res[0].Rel.Len() != 2 {
		t.Fatalf("show tables = %d rows", res[0].Rel.Len())
	}
	res = s.MustExec(`DESCRIBE customer`)
	if res[0].Rel.Len() != 3 {
		t.Fatalf("describe = %d rows", res[0].Rel.Len())
	}
	found := false
	for _, tup := range res[0].Rel.Tuples {
		if tup.Cells[0].V.AsString() == "address" &&
			strings.Contains(tup.Cells[3].V.AsString(), "creation_time time") {
			found = true
		}
	}
	if !found {
		t.Error("describe should list indicators")
	}
}

func TestExplainAndIndexPushdown(t *testing.T) {
	s := newPaperSession(t)
	s.MustExec(`CREATE INDEX ON customer (employees) USING BTREE;
	            CREATE INDEX ON customer (employees@source) USING HASH`)
	res := s.MustExec(`EXPLAIN SELECT co_name FROM customer WHERE employees > 100`)
	if !strings.Contains(res[0].Plan, "IndexScan") {
		t.Errorf("range plan missing IndexScan:\n%s", res[0].Plan)
	}
	res = s.MustExec(`EXPLAIN SELECT co_name FROM customer WITH QUALITY employees@source = 'Nexis'`)
	if !strings.Contains(res[0].Plan, "IndexScan") {
		t.Errorf("quality plan missing IndexScan:\n%s", res[0].Plan)
	}
	// Index and scan paths agree.
	viaIdx, err := s.Query(`SELECT co_name FROM customer WITH QUALITY employees@source = 'Nexis'`)
	if err != nil {
		t.Fatal(err)
	}
	if viaIdx.Len() != 1 || viaIdx.Tuples[0].Cells[0].V.AsString() != "Fruit Co" {
		t.Fatalf("indexed quality query = %v", viaIdx.Tuples)
	}
	res = s.MustExec(`EXPLAIN SELECT co_name FROM customer WHERE co_name = 'Nut Co'`)
	if !strings.Contains(res[0].Plan, "TableScan") {
		t.Errorf("unindexed plan should TableScan:\n%s", res[0].Plan)
	}
}

func TestIndexRangeBoundsCombine(t *testing.T) {
	s := NewSession(storage.NewCatalog())
	s.MustExec(`CREATE TABLE nums (n int);`)
	for i := 0; i < 100; i++ {
		s.MustExec(`INSERT INTO nums VALUES (` + value.Int(int64(i)).String() + `)`)
	}
	s.MustExec(`CREATE INDEX ON nums (n)`)
	rel, err := s.Query(`SELECT n FROM nums WHERE n >= 10 AND n < 20`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 10 {
		t.Fatalf("range = %d rows", rel.Len())
	}
	// Same result without index.
	s2 := NewSession(storage.NewCatalog())
	s2.MustExec(`CREATE TABLE nums (n int);`)
	for i := 0; i < 100; i++ {
		s2.MustExec(`INSERT INTO nums VALUES (` + value.Int(int64(i)).String() + `)`)
	}
	rel2, err := s2.Query(`SELECT n FROM nums WHERE n >= 10 AND n < 20`)
	if err != nil {
		t.Fatal(err)
	}
	if rel2.Len() != rel.Len() {
		t.Fatalf("index vs scan disagree: %d vs %d", rel.Len(), rel2.Len())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`SELECT`,
		`SELECT * FROM`,
		`SELECT * WHERE x = 1`,
		`CREATE TABLE t`,
		`CREATE TABLE t (x blob)`,
		`INSERT INTO t VALUES`,
		`SELECT * FROM t WHERE`,
		`SELECT MIN(x) + 1 FROM t`,
		`UPDATE t SET`,
		`DELETE t`,
		`CREATE INDEX t (x)`,
		`SELECT * FROM t LIMIT x`,
		`SELECT a b c FROM t`,
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestExecErrors(t *testing.T) {
	s := newPaperSession(t)
	bad := []string{
		`SELECT * FROM nosuch`,
		`SELECT nosuch FROM customer`,
		`SELECT c.nope FROM customer c`,
		`INSERT INTO customer VALUES ('X')`,
		`INSERT INTO nosuch VALUES (1)`,
		`CREATE TABLE customer (x int)`,
		`CREATE INDEX ON nosuch (x)`,
		`DELETE FROM nosuch`,
		`UPDATE nosuch SET x = 1`,
		`UPDATE customer SET nosuch = 1`,
		// SET clauses are checked before collection, so a WHERE matching
		// no row does not hide them.
		`UPDATE customer SET nosuch = 1 WHERE co_name = 'absent'`,
		`UPDATE customer SET employees = nosuch + 1 WHERE co_name = 'absent'`,
		`DESCRIBE nosuch`,
		`SELECT co_name FROM customer WHERE employees = co_name@nope AND nosuchfn(1) = 2`,
	}
	for _, src := range bad {
		if _, err := s.Exec(src); err == nil {
			t.Errorf("Exec(%q) should fail", src)
		}
	}
	// Strict table rejects missing tags at the QQL layer too.
	if _, err := s.Exec(`INSERT INTO customer VALUES ('Bare Co', 'addr', 1)`); err == nil {
		t.Error("strict table must reject untagged insert")
	}
}

func TestAmbiguousColumn(t *testing.T) {
	s := newPaperSession(t)
	// co_name exists in both tables: unqualified use in a join must fail.
	if _, err := s.Query(`SELECT co_name FROM customer c JOIN trades t ON c.co_name = t.co_name`); err == nil {
		t.Error("ambiguous unqualified column should fail")
	}
}

func TestSelfJoinDisambiguation(t *testing.T) {
	s := newPaperSession(t)
	rel, err := s.Query(`
SELECT a.co_name, b.qty FROM trades a JOIN trades b ON a.co_name = b.co_name
WHERE a.qty = 100 ORDER BY b.qty`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Fatalf("self join rows = %d", rel.Len())
	}
}

func TestInsertMultiRowAndMultiSource(t *testing.T) {
	s := NewSession(storage.NewCatalog())
	s.MustExec(`CREATE TABLE r (x int, y string)`)
	s.MustExec(`INSERT INTO r VALUES (1 SOURCE 'a', 'one'), (2 SOURCE 'b', 'two' SOURCE ('c', 'd'))`)
	rel, err := s.Query(`SELECT * FROM r ORDER BY x`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Fatalf("rows = %d", rel.Len())
	}
	if !rel.Tuples[0].Cells[0].Sources.Contains("a") {
		t.Errorf("row1 sources = %v", rel.Tuples[0].Cells[0].Sources)
	}
	c := rel.Tuples[1].Cells[1]
	if !c.Sources.Contains("c") || !c.Sources.Contains("d") {
		t.Errorf("multi-source cell = %v", c.Sources)
	}
}

func TestInExpressionAndLike(t *testing.T) {
	s := newPaperSession(t)
	rel, err := s.Query(`SELECT co_name FROM customer WHERE co_name IN ('Nut Co', 'Seed Co')`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 {
		t.Fatalf("IN rows = %d", rel.Len())
	}
	rel, err = s.Query(`SELECT co_name FROM customer WHERE co_name LIKE '%Co' AND co_name NOT LIKE 'Nut%'`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 || rel.Tuples[0].Cells[0].V.AsString() != "Fruit Co" {
		t.Fatalf("LIKE rows = %v", rel.Tuples)
	}
}

func TestNullHandlingInQQL(t *testing.T) {
	s := NewSession(storage.NewCatalog())
	s.MustExec(`CREATE TABLE n (x int, y int)`)
	s.MustExec(`INSERT INTO n VALUES (1, 10), (2, NULL), (3, 30)`)
	rel, _ := s.Query(`SELECT x FROM n WHERE y > 5`)
	if rel.Len() != 2 {
		t.Errorf("null row leaked through predicate: %d rows", rel.Len())
	}
	rel, _ = s.Query(`SELECT x FROM n WHERE y IS NULL`)
	if rel.Len() != 1 || rel.Tuples[0].Cells[0].V.AsInt() != 2 {
		t.Errorf("IS NULL = %v", rel.Tuples)
	}
	rel, _ = s.Query(`SELECT COUNT(y) AS c FROM n`)
	if rel.Tuples[0].Cells[0].V.AsInt() != 2 {
		t.Errorf("COUNT(col) should skip nulls: %v", rel.Tuples[0].Cells[0].V)
	}
}

func TestMissingIndicatorIsNull(t *testing.T) {
	s := NewSession(storage.NewCatalog())
	s.MustExec(`CREATE TABLE m (x int QUALITY (source string))`)
	s.MustExec(`INSERT INTO m VALUES (1 @ {source: 'a'}), (2)`)
	// Untagged rows do not satisfy indicator predicates (unknown).
	rel, _ := s.Query(`SELECT x FROM m WITH QUALITY x@source = 'a'`)
	if rel.Len() != 1 {
		t.Errorf("tagged filter = %d rows", rel.Len())
	}
	rel, _ = s.Query(`SELECT x FROM m WITH QUALITY x@source IS NULL`)
	if rel.Len() != 1 || rel.Tuples[0].Cells[0].V.AsInt() != 2 {
		t.Errorf("untagged filter = %v", rel.Tuples)
	}
}

func TestMultiStatementScriptAndComments(t *testing.T) {
	s := NewSession(storage.NewCatalog())
	res, err := s.Exec(`
-- create and fill
CREATE TABLE t (x int);
INSERT INTO t VALUES (1), (2), (3);
SELECT COUNT(*) AS n FROM t;
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("results = %d", len(res))
	}
	if res[2].Rel.Tuples[0].Cells[0].V.AsInt() != 3 {
		t.Fatalf("count = %v", res[2].Rel.Tuples[0].Cells[0].V)
	}
}
