package qql

import (
	"testing"
	"time"

	"repro/internal/storage"
)

// TestMetaQualityRoundTrip exercises Premise 1.4: the same tagging and
// query mechanism applied to quality indicators themselves. The source tag
// on an employee count carries its own credibility assessment, queryable as
// employees@source@credibility.
func TestMetaQualityRoundTrip(t *testing.T) {
	s := NewSession(storage.NewCatalog())
	s.SetNow(time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC))
	s.MustExec(`
CREATE TABLE customer (
  co_name string REQUIRED,
  employees int QUALITY (source string)
) KEY (co_name);

INSERT INTO customer VALUES
  ('Fruit Co', 4004 @ {source: 'Nexis' @ {credibility: 'high', assessed_by: 'dq_admin'}}),
  ('Nut Co',   700  @ {source: 'estimate' @ {credibility: 'low'}}),
  ('Seed Co',  120  @ {source: 'sales'});
`)
	// Filter by the quality of the quality indicator.
	rel, err := s.Query(`SELECT co_name FROM customer WITH QUALITY employees@source@credibility = 'high'`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 || rel.Tuples[0].Cells[0].V.AsString() != "Fruit Co" {
		t.Fatalf("meta filter = %v", rel.Tuples)
	}
	// Unassessed meta-quality is unknown: never satisfies.
	rel, err = s.Query(`SELECT co_name FROM customer WITH QUALITY employees@source@credibility != 'low'`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 {
		t.Fatalf("unknown meta should not satisfy !=: %v", rel.Tuples)
	}
	// IS NULL finds the unassessed rows.
	rel, err = s.Query(`SELECT co_name FROM customer WITH QUALITY employees@source@credibility IS NULL ORDER BY co_name`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 || rel.Tuples[0].Cells[0].V.AsString() != "Seed Co" {
		t.Fatalf("IS NULL meta = %v", rel.Tuples)
	}
	// Both the indicator and its meta-quality survive projection.
	rel, err = s.Query(`SELECT employees FROM customer WHERE co_name = 'Fruit Co'`)
	if err != nil {
		t.Fatal(err)
	}
	c := rel.Tuples[0].Cells[0]
	if v, ok := c.MetaFor("source").Get("credibility"); !ok || v.AsString() != "high" {
		t.Errorf("meta lost through projection: %v %v", v, ok)
	}
	if v, ok := c.MetaFor("source").Get("assessed_by"); !ok || v.AsString() != "dq_admin" {
		t.Errorf("second meta tag lost: %v %v", v, ok)
	}
}

func TestMetaQualityUpdate(t *testing.T) {
	s := NewSession(storage.NewCatalog())
	s.MustExec(`CREATE TABLE m (x int QUALITY (source string));
INSERT INTO m VALUES (1 @ {source: 'feed'})`)
	// The administrator later assesses the source tag.
	s.MustExec(`UPDATE m SET x @ {source: 'feed' @ {credibility: 'medium'}}`)
	rel, err := s.Query(`SELECT x FROM m WITH QUALITY x@source@credibility = 'medium'`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 {
		t.Fatalf("meta update not visible: %v", rel.Tuples)
	}
}

func TestMetaQualityParserLimits(t *testing.T) {
	// Only one level of meta nesting is supported.
	if _, err := Parse(`INSERT INTO t VALUES (1 @ {a: 1 @ {b: 2 @ {c: 3}}})`); err == nil {
		t.Error("two-level meta nesting should be rejected")
	}
	// col@ind@meta parses in expressions and prints back.
	st, err := ParseOne(`SELECT x FROM t WHERE x@a@b = 1`)
	if err != nil {
		t.Fatal(err)
	}
	sel := st.(*SelectStmt)
	if got := sel.Where.String(); got != "(x@a@b = 1)" {
		t.Errorf("meta ref string = %q", got)
	}
}

// TestTagBlockAfterReference: an @ directly followed by { after a column,
// indicator or meta reference opens the enclosing tag block instead of
// naming another indicator, so a copied value or indicator can be tagged
// without parentheses.
func TestTagBlockAfterReference(t *testing.T) {
	cases := []struct {
		stmt, expr, tag, tagExpr, meta string
	}{
		{`UPDATE m SET a = b @ {source: 'x'}`, "b", "source", "'x'", ""},
		{`UPDATE m SET a = m.b @ {source: 'x'}`, "m.b", "source", "'x'", ""},
		{`UPDATE m SET a = b@source @ {source: 'x'}`, "b@source", "source", "'x'", ""},
		{`UPDATE m SET a = b@source@credibility @ {source: 'x'}`, "b@source@credibility", "source", "'x'", ""},
		{`UPDATE m SET a = 1 @ {source: b@source @ {credibility: 'high'}}`, "1", "source", "b@source", "credibility"},
		{`UPDATE m SET a = 1 @ {source: b@source@credibility @ {credibility: 'high'}}`, "1", "source", "b@source@credibility", "credibility"},
	}
	for _, c := range cases {
		st, err := ParseOne(c.stmt)
		if err != nil {
			t.Errorf("%s: %v", c.stmt, err)
			continue
		}
		set := st.(*UpdateStmt).Sets[0]
		if got := set.Expr.String(); got != c.expr {
			t.Errorf("%s: value %s, want %s", c.stmt, got, c.expr)
		}
		if len(set.Tags) != 1 || set.Tags[0].Name != c.tag || set.Tags[0].Expr.String() != c.tagExpr {
			t.Errorf("%s: tags %+v, want %s: %s", c.stmt, set.Tags, c.tag, c.tagExpr)
			continue
		}
		if meta := set.Tags[0].Meta; (c.meta == "") != (len(meta) == 0) || (c.meta != "" && meta[0].Name != c.meta) {
			t.Errorf("%s: meta %+v, want %q", c.stmt, meta, c.meta)
		}
	}

	s := NewSession(storage.NewCatalog())
	s.MustExec(`CREATE TABLE m (a int QUALITY (source string), b int QUALITY (source string));
INSERT INTO m VALUES (1, 2 @ {source: 'feed'});
UPDATE m SET a = b @ {source: b@source @ {credibility: 'high'}}`)
	rel, err := s.Query(`SELECT a FROM m WITH QUALITY a@source = 'feed' AND a@source@credibility = 'high'`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 || rel.Tuples[0].Cells[0].V.AsInt() != 2 {
		t.Fatalf("tagged copy = %v", rel.Tuples)
	}
}
