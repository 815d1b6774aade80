package qql

import (
	"strings"
	"testing"

	"repro/internal/storage"
)

func TestTagTableAndShowTags(t *testing.T) {
	s := NewSession(storage.NewCatalog())
	s.MustExec(`CREATE TABLE t (x int)`)
	res, err := s.Exec(`TAG TABLE t @ {population_method: 'batch_load', record_count: 0}`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res[0].Msg, "tagged table t with 2") {
		t.Errorf("msg = %q", res[0].Msg)
	}
	// Re-tagging replaces.
	s.MustExec(`TAG TABLE t {record_count: 42}`)
	out := s.MustExec(`SHOW TAGS t`)
	rel := out[0].Rel
	if rel.Len() != 2 {
		t.Fatalf("tags = %d", rel.Len())
	}
	found := map[string]string{}
	for _, tup := range rel.Tuples {
		found[tup.Cells[0].V.AsString()] = tup.Cells[1].V.String()
	}
	if found["population_method"] != "batch_load" || found["record_count"] != "42" {
		t.Errorf("tags = %v", found)
	}
	// Table-level tags live on the storage table itself.
	tbl, _ := s.Catalog().Get("t")
	if !tbl.TableTags().Has("population_method") {
		t.Error("storage table lost table tags")
	}
	// Errors.
	if _, err := s.Exec(`TAG TABLE ghost {a: 1}`); err == nil {
		t.Error("tagging unknown table should fail")
	}
	if _, err := s.Exec(`SHOW TAGS ghost`); err == nil {
		t.Error("showing unknown table's tags should fail")
	}
	if _, err := Parse(`TAG t {a: 1}`); err == nil {
		t.Error("TAG without TABLE should fail")
	}
}
