package qql

import (
	"strings"
	"testing"
	"unsafe"

	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/tag"
)

// TestStoredStringsDoNotPinStatementText checks that no string a stored
// row or table tag holds points into the text of the statement that wrote
// it. String literals and identifiers are slices of that text, so a row
// keeping one would keep the whole script alive for as long as it lives.
func TestStoredStringsDoNotPinStatementText(t *testing.T) {
	s := NewSession(storage.NewCatalog())
	s.MustExec(`
CREATE TABLE plain (name string, city string);
CREATE TABLE customer (
  co_name string REQUIRED,
  employees int QUALITY (source string)
) KEY (co_name);`)

	pad := "-- " + strings.Repeat("x", 1<<16) + "\n"
	scripts := []string{
		pad + `INSERT INTO plain VALUES ('Fruit Co', 'Cambridge'), ('Nut Co', 'Boston');`,
		pad + `INSERT INTO customer VALUES
  ('Fruit Co', 4004 @ {source: 'Nexis' @ {credibility: 'high'}, checked_by: 'dq_admin'} SOURCE ('acct', 'sales')),
  ('Nut Co', 700 @ {source: 'estimate'} SOURCE 'survey');`,
		pad + `UPDATE plain SET city = 'Salem' WHERE name = 'Nut Co';`,
		pad + `UPDATE customer SET employees @ {source: 'feed' @ {credibility: 'medium'}, reviewer: 'ops'} WHERE co_name = 'Nut Co';`,
		pad + `TAG TABLE customer {steward: 'data_office'};`,
	}
	for _, src := range scripts {
		s.MustExec(src)
		inSrc := func(what, str string) {
			if len(str) == 0 {
				return
			}
			p := uintptr(unsafe.Pointer(unsafe.StringData(str)))
			lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
			if p >= lo && p < lo+uintptr(len(src)) {
				t.Errorf("%s %q points into the statement text", what, str)
			}
		}
		inSet := func(where string, set tag.Set) {
			for _, tg := range set.Tags() {
				inSrc(where+" indicator name", tg.Indicator)
				inSrc(where+" indicator value", tg.Value.AsString())
			}
		}
		for _, name := range []string{"plain", "customer"} {
			tbl, _ := s.cat.Get(name)
			inSet(name+" table tag", tbl.TableTags())
			tbl.Scan(func(_ storage.RowID, tup relation.Tuple) bool {
				for _, c := range tup.Cells {
					inSrc(name+" value", c.V.AsString())
					inSet(name+" tag", c.Tags)
					for ind, meta := range c.Meta {
						inSrc(name+" meta key", ind)
						inSet(name+" meta", meta)
					}
					for _, src := range c.Sources {
						inSrc(name+" source", src)
					}
				}
				return true
			})
		}
	}
	rel, err := s.Query(`SELECT co_name FROM customer WITH QUALITY employees@source@credibility = 'medium' AND employees@reviewer = 'ops'`)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 || rel.Tuples[0].Cells[0].V.AsString() != "Nut Co" {
		t.Fatalf("stored tags answer %v", rel.Tuples)
	}
}
