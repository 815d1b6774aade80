// Benchmarks, one per reproduced artifact and ablation (the experiment
// index is `go run ./cmd/benchrunner -list`). Run with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/derive"
	"repro/internal/inspect"
	"repro/internal/qql"
	"repro/internal/quality"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/workload"
)

// BenchmarkTable1 regenerates the paper's Table 1 (untagged relation).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rel := workload.PaperTable1()
		if rel.Len() != 2 {
			b.Fatal("wrong table")
		}
		_ = relation.Format(rel, false)
	}
}

// BenchmarkTable2 regenerates Table 2 (cell-level quality tags).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rel := workload.PaperTable2()
		if rel.Len() != 2 {
			b.Fatal("wrong table")
		}
		_ = relation.Format(rel, true)
	}
}

// BenchmarkMethodology runs the full Figure 2 pipeline (Steps 2-4 plus
// compilation) for the trading application.
func BenchmarkMethodology(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, err := core.TradingPipeline()
		if err != nil {
			b.Fatal(err)
		}
		res, err := p.Run()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Schemas) != 3 {
			b.Fatal("wrong schema count")
		}
	}
}

// loadCustomers builds a session over n generated customers, optionally
// indexing the creation_time indicator.
func loadCustomers(b *testing.B, n int, index bool) *qql.Session {
	b.Helper()
	rel := workload.Customers(workload.CustomerConfig{N: n, Seed: 1})
	cat := storage.NewCatalog()
	sess := qql.NewSession(cat)
	sess.SetNow(workload.Epoch)
	tbl, err := cat.Create(rel.Schema, false)
	if err != nil {
		b.Fatal(err)
	}
	if err := tbl.Load(rel); err != nil {
		b.Fatal(err)
	}
	if index {
		if err := tbl.CreateIndex(storage.IndexTarget{Attr: "employees", Indicator: "creation_time"}, storage.IndexBTree); err != nil {
			b.Fatal(err)
		}
		if err := tbl.CreateIndex(storage.IndexTarget{Attr: "employees", Indicator: "source"}, storage.IndexHash); err != nil {
			b.Fatal(err)
		}
	}
	return sess
}

// BenchmarkQualityFilter measures the §1.2 scenario: query-time filtering
// over quality indicator tags (X1).
func BenchmarkQualityFilter(b *testing.B) {
	sess := loadCustomers(b, 20000, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := sess.Query(`SELECT COUNT(*) AS n FROM customer
WITH QUALITY employees@source != 'estimate' AND AGE(employees@creation_time) <= d'720h'`)
		if err != nil {
			b.Fatal(err)
		}
		if out.Tuples[0].Cells[0].V.AsInt() == 0 {
			b.Fatal("filter degenerated")
		}
	}
}

// BenchmarkIntegration measures Step 4 on the paper's two trading views,
// including the age/creation_time subsumption (X2).
func BenchmarkIntegration(b *testing.B) {
	p, err := core.TradingPipeline()
	if err != nil {
		b.Fatal(err)
	}
	pv, err := core.Step2(p.App, p.Step2)
	if err != nil {
		b.Fatal(err)
	}
	qv, err := core.Step3(pv, p.Step3)
	if err != nil {
		b.Fatal(err)
	}
	second := p.ExtraViews[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qs, err := p.Integrator.Integrate(qv, second)
		if err != nil {
			b.Fatal(err)
		}
		if len(qs.Indicators) == 0 {
			b.Fatal("integration produced nothing")
		}
	}
}

// BenchmarkGrading measures §4 clearing-house classification (X3).
func BenchmarkGrading(b *testing.B) {
	rel := workload.Addresses(workload.AddressConfig{N: 10000, Seed: 42, FreshFraction: 0.4, VerifiedFraction: 0.35})
	ev := &quality.Evaluator{Registry: derive.StandardRegistry(), Now: workload.Epoch}
	classes := []quality.GradeClass{
		{Name: "A", Profile: &quality.Profile{Constraints: []quality.IndicatorConstraint{
			{Attr: "address", Indicator: "source", Op: quality.OpEq, Bound: value.Str("registry")},
			{Attr: "address", Indicator: "creation_time", Op: quality.OpLe,
				Bound: value.Duration(90 * 24 * time.Hour), AgeOf: true},
		}}},
		{Name: "B", Profile: &quality.Profile{Constraints: []quality.IndicatorConstraint{
			{Attr: "address", Indicator: "creation_time", Op: quality.OpLe,
				Bound: value.Duration(365 * 24 * time.Hour), AgeOf: true},
		}}},
		{Name: "C", Profile: &quality.Profile{}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, counts, err := ev.Classify(rel, classes)
		if err != nil {
			b.Fatal(err)
		}
		if counts["A"] == 0 {
			b.Fatal("degenerate grading")
		}
	}
}

// BenchmarkAuditTrace measures lineage and contamination walks on a deep
// manufacturing trail (X4).
func BenchmarkAuditTrace(b *testing.B) {
	tr := audit.NewTrail()
	const depth = 200
	cells := make([]audit.CellRef, depth+1)
	for i := range cells {
		cells[i] = audit.CellRef{Table: "t", Key: fmt.Sprintf("k%d", i), Attr: "v"}
	}
	now := workload.Epoch
	tr.Record(audit.Step{Kind: audit.StepCollect, Actor: "feed", At: now, Outputs: []audit.CellRef{cells[0]}})
	for i := 0; i < depth; i++ {
		tr.Record(audit.Step{Kind: audit.StepTransform, Actor: "batch",
			At:     now.Add(time.Duration(i) * time.Minute),
			Inputs: []audit.CellRef{cells[i]}, Outputs: []audit.CellRef{cells[i+1]}})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := tr.Lineage(cells[depth]); len(got) != depth+1 {
			b.Fatalf("lineage = %d steps", len(got))
		}
		if got := tr.Contaminated(cells[0]); len(got) != depth {
			b.Fatalf("contamination = %d cells", len(got))
		}
	}
}

// BenchmarkTaggingOverhead compares scanning tagged vs untagged relations
// (AB1).
func BenchmarkTaggingOverhead(b *testing.B) {
	for _, tagged := range []bool{false, true} {
		name := "untagged"
		untaggedFrac := 1.0
		if tagged {
			name = "tagged"
			untaggedFrac = 0.0
		}
		rel := workload.Customers(workload.CustomerConfig{N: 20000, Seed: 3, Untagged: untaggedFrac})
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				hits := 0
				for _, t := range rel.Tuples {
					for _, c := range t.Cells {
						if c.Tags.Has("source") {
							hits++
						}
					}
				}
				if tagged && hits == 0 {
					b.Fatal("no tags found")
				}
			}
		})
	}
}

// BenchmarkSelectivitySweep compares indexed vs scanned quality-range
// queries at several selectivities (AB2).
func BenchmarkSelectivitySweep(b *testing.B) {
	for _, idx := range []bool{true, false} {
		sess := loadCustomers(b, 20000, idx)
		for _, hours := range []int{24, 720, 8760} {
			name := fmt.Sprintf("index=%v/window=%dh", idx, hours)
			q := fmt.Sprintf(`SELECT COUNT(*) AS n FROM customer WITH QUALITY employees@creation_time >= t'%s'`,
				workload.Epoch.Add(-time.Duration(hours)*time.Hour).Format(time.RFC3339))
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := sess.Query(q); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPolygenJoin measures source-set propagation through hash joins
// (AB3).
func BenchmarkPolygenJoin(b *testing.B) {
	data := workload.Trading(workload.TradingConfig{Clients: 100, Stocks: 16, Trades: 10000, Seed: 9})
	ctx := &algebra.EvalContext{Now: workload.Epoch}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := algebra.NewBatchHashJoin(
			algebra.NewRelationScan(data.Trades, 0), algebra.NewRelationScan(data.Stocks, 0),
			&algebra.ColRef{Name: "company_stock_ticker_symbol"}, &algebra.ColRef{Name: "ticker_symbol"},
			nil, nil, ctx, 0)
		if err != nil {
			b.Fatal(err)
		}
		out, err := algebra.Collect(j)
		if err != nil {
			b.Fatal(err)
		}
		if out.Len() != 10000 {
			b.Fatalf("join rows = %d", out.Len())
		}
	}
}

// BenchmarkIntegrationScale measures Step 4 at 16 views x 16 indicators
// (AB4).
func BenchmarkIntegrationScale(b *testing.B) {
	app := core.ScalableModel(12)
	views, err := core.ScalableViews(app, 16, 16)
	if err != nil {
		b.Fatal(err)
	}
	ig := core.Integrator{Registry: derive.StandardRegistry()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qs, err := ig.Integrate(views...)
		if err != nil {
			b.Fatal(err)
		}
		if len(qs.Indicators) != 16 {
			b.Fatalf("integrated = %d", len(qs.Indicators))
		}
	}
}

// BenchmarkSPC measures p-chart maintenance over inspection samples (AB5).
func BenchmarkSPC(b *testing.B) {
	base := workload.Customers(workload.CustomerConfig{N: 500, Seed: 100})
	ins := &inspect.Inspector{Rules: []inspect.Rule{
		inspect.NotNull{Attr: "address"}, inspect.NotNull{Attr: "employees"}}}
	batches := make([]inspect.InspectionResult, 10)
	for day := range batches {
		rate := 0.005
		if day == 7 {
			rate = 0.08
		}
		rel, _ := workload.InjectErrors(base, workload.ErrorConfig{Seed: int64(day), NullRate: rate})
		batches[day] = ins.InspectRelation(rel)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chart, err := inspect.NewPChart(0.01, 500)
		if err != nil {
			b.Fatal(err)
		}
		for _, res := range batches {
			if _, err := chart.AddSample(res.Defective); err != nil {
				b.Fatal(err)
			}
		}
		if len(chart.OutOfControl()) == 0 {
			b.Fatal("burst not detected")
		}
	}
}

// BenchmarkQQLParse measures the DSL front end alone.
func BenchmarkQQLParse(b *testing.B) {
	src := `SELECT c.co_name, SUM(t.qty) AS total FROM customer c JOIN trades t ON c.co_name = t.co_name
WHERE t.qty > 10 WITH QUALITY c.employees@source != 'estimate' AND AGE(c.address@creation_time) <= d'720h'
GROUP BY c.co_name ORDER BY total DESC LIMIT 10`
	for i := 0; i < b.N; i++ {
		if _, err := qql.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInsertTagged measures strict-mode tagged inserts into an indexed
// table.
func BenchmarkInsertTagged(b *testing.B) {
	rel := workload.Customers(workload.CustomerConfig{N: 1000, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl := storage.NewTable(rel.Schema, false)
		if err := tbl.CreateIndex(storage.IndexTarget{Attr: "employees", Indicator: "source"}, storage.IndexHash); err != nil {
			b.Fatal(err)
		}
		if err := tbl.Load(rel); err != nil {
			b.Fatal(err)
		}
	}
}
