package qql

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/relation"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/tag"
	"repro/internal/value"
	"repro/internal/workload"
)

// TestIndexedVersusScannedDifferential runs randomly generated quality
// queries against two copies of the same data — one fully indexed, one with
// no indexes — and against a naive reference evaluator, and requires
// identical results, tags included. This pins the planner's index pushdown
// (equality and range, over attributes and indicators, including bound
// combination) and the index scan's row-ID order to the semantics of the
// naive scan. The table spans three segments with rows deleted inside
// them; every query runs at batch sizes 1, 3 and 1024, before and after a
// Save/Load of each catalog.
func TestIndexedVersusScannedDifferential(t *testing.T) {
	rel := workload.Customers(workload.CustomerConfig{N: 2*storage.SegmentSize + 700, Seed: 77, Untagged: 0.1})
	// Meta-quality on some source tags, so meta refs have values to read.
	for i := range rel.Tuples {
		c := &rel.Tuples[i].Cells[2]
		if i%4 == 0 && c.Tags.Has("source") {
			*c = c.WithMetaTag("source", "credibility", value.Str([]string{"high", "low"}[i%8/4]))
		}
	}

	mk := func(indexed bool) *storage.Catalog {
		cat := storage.NewCatalog()
		tbl, err := cat.Create(rel.Schema, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.Load(rel); err != nil {
			t.Fatal(err)
		}
		if indexed {
			for _, ix := range []struct {
				target storage.IndexTarget
				kind   storage.IndexKind
			}{
				{storage.IndexTarget{Attr: "employees"}, storage.IndexBTree},
				{storage.IndexTarget{Attr: "employees", Indicator: "creation_time"}, storage.IndexBTree},
				{storage.IndexTarget{Attr: "employees", Indicator: "source"}, storage.IndexHash},
				{storage.IndexTarget{Attr: "address", Indicator: "source"}, storage.IndexHash},
			} {
				if err := tbl.CreateIndex(ix.target, ix.kind); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Dead rows inside every segment the probes land in.
		for id := 3; id < len(rel.Tuples); id += 13 {
			if err := tbl.Delete(storage.RowID(id)); err != nil {
				t.Fatal(err)
			}
		}
		return cat
	}
	reload := func(cat *storage.Catalog) *storage.Catalog {
		var buf bytes.Buffer
		if err := cat.Save(&buf); err != nil {
			t.Fatal(err)
		}
		out, err := storage.LoadCatalog(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	indexedCat, scannedCat := mk(true), mk(false)
	session := func(cat *storage.Catalog) *Session {
		sess := NewSession(cat)
		sess.SetNow(workload.Epoch)
		return sess
	}
	// The index plans run at every batch size; the scans, which the golden
	// matrix covers at every size, at the default one.
	indexed := map[string]*Session{"indexed": session(indexedCat), "indexed after Save/Load": session(reload(indexedCat))}
	scanned := session(scannedCat)
	refTable, _ := scannedCat.Get("customer")

	r := rand.New(rand.NewSource(31))
	sources := []string{"sales", "acct'g", "Nexis", "estimate", "nowhere"}
	randTime := func() string {
		back := time.Duration(r.Int63n(int64(400 * 24 * time.Hour)))
		return workload.Epoch.Add(-back).Format(time.RFC3339)
	}
	items := []string{
		"co_name, employees",
		"co_name, employees@source, employees@creation_time",
		"employees, employees@source@credibility, address@source",
	}
	genQuery := func() string {
		var conj []string
		n := 1 + r.Intn(3)
		for i := 0; i < n; i++ {
			switch r.Intn(6) {
			case 0:
				conj = append(conj, fmt.Sprintf("employees >= %d", r.Intn(10000)))
			case 1:
				conj = append(conj, fmt.Sprintf("employees < %d", r.Intn(10000)))
			case 2:
				src := sources[r.Intn(len(sources))]
				op := []string{"=", "!="}[r.Intn(2)]
				conj = append(conj, fmt.Sprintf("employees@source %s '%s'", op, sqlEscape(src)))
			case 3:
				conj = append(conj, fmt.Sprintf("employees@creation_time >= t'%s'", randTime()))
			case 4:
				conj = append(conj, "employees@source@credibility = 'high'")
			default:
				conj = append(conj, fmt.Sprintf("address@source = '%s'", sqlEscape(sources[r.Intn(len(sources))])))
			}
		}
		// The first k conjuncts filter in WHERE, the rest in WITH QUALITY.
		k := r.Intn(len(conj) + 1)
		q := "SELECT " + items[r.Intn(len(items))] + " FROM customer"
		for i, c := range conj {
			switch {
			case i == 0 && k > 0:
				q += " WHERE " + c
			case i == k:
				q += " WITH QUALITY " + c
			default:
				q += " AND " + c
			}
		}
		switch r.Intn(3) {
		case 0:
			q += " ORDER BY co_name"
		case 1:
			q += fmt.Sprintf(" LIMIT %d", 1+r.Intn(20))
		}
		return q
	}

	check := func(sess *Session, name, q, want string) {
		got, err := sess.Query(q)
		if err != nil {
			t.Fatalf("%s %q: %v", name, q, err)
		}
		if g := relation.Format(got, true); g != want {
			t.Fatalf("query %q, %s at batch size %d:\n got %s\nwant %s", q, name, sess.batchSize, g, want)
		}
	}
	probes := 0
	const queries = 80
	for i := 0; i < queries; i++ {
		q := genQuery()
		want := relation.Format(referenceSelect(t, refTable, q), true)
		check(scanned, "scanned", q, want)
		for _, size := range []int{1, 3, 1024} {
			for name, sess := range indexed {
				sess.batchSize = size
				check(sess, name, q, want)
			}
		}
		if strings.HasPrefix(indexed["indexed"].MustExec("EXPLAIN " + q)[0].Plan, "IndexScan(") {
			probes++
		}
	}
	if probes < queries/2 {
		t.Errorf("only %d of %d queries probed an index", probes, queries)
	}
}

// referenceSelect evaluates a single-table, non-aggregate SELECT the
// naive way, in plain Go over rows and with none of the engine's operators:
// every live row cloned out of the table in row-ID order, both filters and
// the ORDER BY keys through algebra.Reference, a stable sort, LIMIT
// by slicing, and each computed item's cell derived by hand — tags
// intersected and sources unioned across the columns it reads.
func referenceSelect(t *testing.T, tbl *storage.Table, q string) *relation.Relation {
	t.Helper()
	out, err := referenceSelectErr(t, tbl, q)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// referenceSelectErr is referenceSelect returning the first error a filter
// raises, in row-ID order, instead of failing the test: WHERE runs on every
// live row, WITH QUALITY only on the rows WHERE kept.
func referenceSelectErr(t *testing.T, tbl *storage.Table, q string) (*relation.Relation, error) {
	t.Helper()
	stmts, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	st := stmts[0].(*SelectStmt)
	sch := tbl.Schema()
	ctx := &algebra.EvalContext{Now: workload.Epoch}
	eval := func(e algebra.Expr, tup relation.Tuple) value.Value {
		v, err := algebra.Reference(e, tup, ctx)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	bind := func(e algebra.Expr) {
		if err := e.Bind(sch); err != nil {
			t.Fatal(err)
		}
	}
	var preds []algebra.Expr
	for _, pred := range []algebra.Expr{st.Where, st.Quality} {
		if pred != nil {
			bind(pred)
			preds = append(preds, pred)
		}
	}
	var rows []relation.Tuple
	var filterErr error
	tbl.Scan(func(_ storage.RowID, tup relation.Tuple) bool {
		for _, pred := range preds {
			ok, err := algebra.ReferenceTruth(pred, tup, ctx)
			if err != nil {
				filterErr = err
				return false
			}
			if !ok {
				return true
			}
		}
		rows = append(rows, tup)
		return true
	})
	if filterErr != nil {
		return nil, filterErr
	}

	if len(st.OrderBy) > 0 {
		keys := make([][]value.Value, len(rows))
		for _, o := range st.OrderBy {
			bind(o.Expr)
			for i, tup := range rows {
				keys[i] = append(keys[i], eval(o.Expr, tup))
			}
		}
		order := make([]int, len(rows))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(x, y int) bool {
			for j, o := range st.OrderBy {
				c := value.Compare(keys[order[x]][j], keys[order[y]][j])
				if o.Desc {
					c = -c
				}
				if c != 0 {
					return c < 0
				}
			}
			return false
		})
		sorted := make([]relation.Tuple, len(rows))
		for i, j := range order {
			sorted[i] = rows[j]
		}
		rows = sorted
	}
	if st.Limit >= 0 && st.Limit < len(rows) {
		rows = rows[:st.Limit]
	}

	items := projectionItems(st, sch)
	attrs := make([]schema.Attr, len(items))
	for i, it := range items {
		bind(it.Expr)
		attrs[i].Name = it.As
		if attrs[i].Name == "" {
			attrs[i].Name = fmt.Sprintf("col%d", i+1)
		}
	}
	out := relation.New(schema.MustNew(sch.Name, attrs))
	for _, tup := range rows {
		cells := make([]relation.Cell, len(items))
		for i, it := range items {
			if cr, ok := it.Expr.(*algebra.ColRef); ok {
				cells[i] = tup.Cells[sch.ColIndex(cr.Name)]
				continue
			}
			c := relation.Cell{V: eval(it.Expr, tup)}
			for j, col := range algebra.ReferencedCols(it.Expr) {
				if in := tup.Cells[col]; j == 0 {
					c.Tags, c.Sources = in.Tags, in.Sources
				} else {
					c.Tags, c.Sources = tag.Intersect(c.Tags, in.Tags), c.Sources.Union(in.Sources)
				}
			}
			cells[i] = c
		}
		out.Tuples = append(out.Tuples, relation.Tuple{Cells: cells})
	}
	return out, nil
}

func sqlEscape(s string) string {
	out := ""
	for _, c := range s {
		if c == '\'' {
			out += "''"
		} else {
			out += string(c)
		}
	}
	return out
}
