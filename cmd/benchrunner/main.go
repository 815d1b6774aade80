// Command benchrunner regenerates every table and figure of the paper plus
// the quantitative ablations listed by -list. It reproduces the paper; the
// engine's performance is measured by the benchmark in ./bench.
//
//	benchrunner            # run every experiment
//	benchrunner -exp T2    # run one (T1 T2 F1 F2 F3 F4 F5 A X1 X2 X3 X4 AB1 AB2 AB3 AB4 AB5)
//	benchrunner -list      # list experiment ids
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/algebra"
	"repro/internal/audit"
	"repro/internal/catalog"
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

type experiment struct {
	id    string
	title string
	run   func() error
}

func main() {
	expFlag := flag.String("exp", "", "experiment id to run (default: all)")
	list := flag.Bool("list", false, "list experiment ids")
	flag.Parse()

	exps := experiments()
	if *list {
		for _, e := range exps {
			fmt.Printf("%-4s %s\n", e.id, e.title)
		}
		return
	}
	ran := 0
	for _, e := range exps {
		if *expFlag != "" && !strings.EqualFold(e.id, *expFlag) {
			continue
		}
		fmt.Printf("==== %s: %s ====\n", e.id, e.title)
		if err := e.run(); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.id, err)
			os.Exit(1)
		}
		fmt.Println()
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", *expFlag)
		os.Exit(2)
	}
}

func experiments() []experiment {
	return []experiment{
		{"T1", "Table 1: customer information (untagged)", runT1},
		{"T2", "Table 2: customer information with quality tags", runT2},
		{"F1", "Figure 1: quality attribute taxonomy", runF1},
		{"F2", "Figure 2: the four-step methodology pipeline", runF2},
		{"F3", "Figure 3: trading application view", runF3},
		{"F4", "Figure 4: parameter view", runF4},
		{"F5", "Figure 5: quality view", runF5},
		{"A", "Appendix A: candidate quality attributes", runA},
		{"X1", "§1.2: query-time filtering over quality tags", runX1},
		{"X2", "§3.4: view integration subsumption (age vs creation_time)", runX2},
		{"X3", "§4: clearing-house grading by application profile", runX3},
		{"X4", "§4: erred-transaction audit trace", runX4},
		{"AB1", "ablation: cell tagging overhead", runAB1},
		{"AB2", "ablation: quality predicate selectivity sweep (index vs scan)", runAB2},
		{"AB3", "ablation: polygen source propagation cost vs join size", runAB3},
		{"AB4", "ablation: view integration scaling", runAB4},
		{"AB5", "ablation: SPC detection of injected defect bursts", runAB5},
	}
}

func runT1() error {
	fmt.Println("paper: 2 rows (Fruit Co / Nut Co), no quality information")
	fmt.Print(relation.Format(workload.PaperTable1(), false))
	return nil
}

func runT2() error {
	fmt.Println("paper: same rows, each cell tagged (creation time, source)")
	fmt.Print(relation.Format(workload.PaperTable2(), true))
	return nil
}

func runF1() error {
	fmt.Print(catalog.Taxonomy())
	return nil
}

func runF2() error {
	p, err := core.TradingPipeline()
	if err != nil {
		return err
	}
	res, err := p.Run()
	if err != nil {
		return err
	}
	fmt.Println("step 1 (application view):  ", p.App.Name, "-",
		len(p.App.Entities), "entities,", len(p.App.Relationships), "relationships")
	fmt.Println("step 2 (parameter view):    ", len(res.ParameterView.Annotations), "quality parameters")
	fmt.Println("step 3 (quality view):      ", len(res.QualityView.Indicators), "quality indicators")
	fmt.Println("step 4 (quality schema):    ", len(res.QualitySchema.Indicators), "indicators after integration,",
		len(res.QualitySchema.Decisions), "decisions,", len(res.QualitySchema.Conflicts), "conflicts")
	fmt.Println("compiled storage schemas:   ", len(res.Schemas))
	return nil
}

func runF3() error {
	fmt.Print(core.MustTradingResult().ParameterView.App.Render())
	return nil
}

func runF4() error {
	fmt.Print(core.MustTradingResult().ParameterView.Render())
	return nil
}

func runF5() error {
	fmt.Print(core.MustTradingResult().QualityView.Render())
	return nil
}

func runA() error {
	cands := catalog.Candidates()
	fmt.Printf("%d candidate quality attributes (%d parameters, %d indicators)\n",
		len(cands), len(catalog.Parameters()), len(catalog.Indicators()))
	group := ""
	for _, c := range cands {
		if c.Group != group {
			group = c.Group
			fmt.Printf("[%s]\n", group)
		}
		fmt.Printf("  %-22s %s\n", c.Name, c.Class)
	}
	return nil
}

func runX1() error {
	cat := storage.NewCatalog()
	sess := qql.NewSession(cat)
	sess.SetNow(workload.Epoch)
	rel := workload.Customers(workload.CustomerConfig{N: 10000, Seed: 1})
	tbl, err := cat.Create(rel.Schema, false)
	if err != nil {
		return err
	}
	if err := tbl.Load(rel); err != nil {
		return err
	}
	for _, q := range []string{
		`SELECT COUNT(*) AS n FROM customer`,
		`SELECT COUNT(*) AS n FROM customer WITH QUALITY employees@source != 'estimate'`,
		`SELECT COUNT(*) AS n FROM customer WITH QUALITY AGE(employees@creation_time) <= d'720h'`,
		`SELECT COUNT(*) AS n FROM customer WITH QUALITY employees@source = 'Nexis' AND AGE(employees@creation_time) <= d'720h'`,
	} {
		out, err := sess.Query(q)
		if err != nil {
			return err
		}
		fmt.Printf("%6d rows  <- %s\n", out.Tuples[0].Cells[0].V.AsInt(), q)
	}
	fmt.Println("shape: each added quality requirement strictly narrows the result (paper §1.2)")
	return nil
}

func runX2() error {
	res := core.MustTradingResult()
	for _, d := range res.QualitySchema.Decisions {
		if d.Kind == "subsume" {
			fmt.Println("integration decision:", d.Text)
		}
	}
	fmt.Println("paper: 'the design team may choose creation time ... because age can be")
	fmt.Println("computed given current time and creation time' — reproduced")
	return nil
}

func runX3() error {
	rel := workload.Addresses(workload.AddressConfig{N: 20000, Seed: 42, FreshFraction: 0.4, VerifiedFraction: 0.35})
	ev := &quality.Evaluator{Registry: derive.StandardRegistry(), Now: workload.Epoch}
	fund := &quality.Profile{Name: "fund_raising", Constraints: []quality.IndicatorConstraint{
		{Attr: "address", Indicator: "source", Op: quality.OpEq, Bound: value.Str("registry")},
		{Attr: "address", Indicator: "creation_time", Op: quality.OpLe,
			Bound: value.Duration(90 * 24 * time.Hour), AgeOf: true},
	}}
	classes := []quality.GradeClass{
		{Name: "A", Profile: fund},
		{Name: "B", Profile: &quality.Profile{Constraints: []quality.IndicatorConstraint{
			{Attr: "address", Indicator: "creation_time", Op: quality.OpLe,
				Bound: value.Duration(365 * 24 * time.Hour), AgeOf: true}}}},
		{Name: "C", Profile: &quality.Profile{}},
	}
	_, counts, err := ev.Classify(rel, classes)
	if err != nil {
		return err
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  class %-2s %6d addresses (%.1f%%)\n", k, counts[k], 100*float64(counts[k])/float64(rel.Len()))
	}
	fmt.Println("shape: mass mailing (C) sees everything, fund raising (A) a small verified-and-fresh subset")
	return nil
}

func runX4() error {
	trail := audit.NewTrail()
	quote := audit.CellRef{Table: "company_stock", Key: "IBM", Attr: "share_price"}
	pos := audit.CellRef{Table: "portfolio", Key: "acct_1001", Attr: "position_value"}
	stmt := audit.CellRef{Table: "statements", Key: "acct_1001", Attr: "total"}
	now := workload.Epoch
	trail.Record(audit.Step{Kind: audit.StepCollect, Actor: "feed", At: now.Add(-30 * time.Hour), Outputs: []audit.CellRef{quote}})
	trail.Record(audit.Step{Kind: audit.StepEnter, Actor: "teller_2", At: now.Add(-29 * time.Hour), Outputs: []audit.CellRef{quote}, Note: "erred entry"})
	trail.Record(audit.Step{Kind: audit.StepTransform, Actor: "eod", At: now.Add(-20 * time.Hour), Inputs: []audit.CellRef{quote}, Outputs: []audit.CellRef{pos}})
	trail.Record(audit.Step{Kind: audit.StepTransform, Actor: "stmt", At: now.Add(-10 * time.Hour), Inputs: []audit.CellRef{pos}, Outputs: []audit.CellRef{stmt}})
	fmt.Print(trail.Report(quote))
	return nil
}

func runAB1() error {
	const n = 50000
	fmt.Printf("relation of %d rows, 3 columns; tags: 2 indicators on 2 columns\n", n)
	plain := workload.Customers(workload.CustomerConfig{N: n, Seed: 3, Untagged: 1.0})
	tagged := workload.Customers(workload.CustomerConfig{N: n, Seed: 3, Untagged: 0.0})
	scan := func(rel *relation.Relation) time.Duration {
		start := time.Now()
		count := 0
		for _, t := range rel.Tuples {
			for _, c := range t.Cells {
				if c.Tags.Has("source") {
					count++
				}
			}
		}
		_ = count
		return time.Since(start)
	}
	fmt.Printf("  scan untagged: %v\n", scan(plain))
	fmt.Printf("  scan tagged:   %v\n", scan(tagged))
	fmt.Println("shape: tagging costs memory and a modest scan overhead; queries unaffected unless tags are read")
	return nil
}

func runAB2() error {
	const n = 100000
	rel := workload.Customers(workload.CustomerConfig{N: n, Seed: 5})
	mk := func(withIndex bool) (*qql.Session, error) {
		cat := storage.NewCatalog()
		sess := qql.NewSession(cat)
		sess.SetNow(workload.Epoch)
		tbl, err := cat.Create(rel.Schema, false)
		if err != nil {
			return nil, err
		}
		if err := tbl.Load(rel); err != nil {
			return nil, err
		}
		if withIndex {
			if err := tbl.CreateIndex(storage.IndexTarget{Attr: "employees", Indicator: "creation_time"}, storage.IndexBTree); err != nil {
				return nil, err
			}
		}
		return sess, nil
	}
	indexed, err := mk(true)
	if err != nil {
		return err
	}
	scanned, err := mk(false)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %-12s %-12s %s\n", "selectivity", "indexed", "tablescan", "rows")
	for _, hours := range []int{24, 168, 720, 4380, 8760} {
		q := fmt.Sprintf(`SELECT COUNT(*) AS n FROM customer WITH QUALITY employees@creation_time >= t'%s'`,
			workload.Epoch.Add(-time.Duration(hours)*time.Hour).Format(time.RFC3339))
		t0 := time.Now()
		out, err := indexed.Query(q)
		if err != nil {
			return err
		}
		dIdx := time.Since(t0)
		t0 = time.Now()
		if _, err := scanned.Query(q); err != nil {
			return err
		}
		dScan := time.Since(t0)
		fmt.Printf("%-12s %-12v %-12v %d\n", fmt.Sprintf("<=%dh", hours), dIdx, dScan, out.Tuples[0].Cells[0].V.AsInt())
	}
	fmt.Println("shape: the indicator index wins at low selectivity; the gap narrows as the range widens")
	return nil
}

func runAB3() error {
	ctx := &algebra.EvalContext{Now: workload.Epoch}
	for _, n := range []int{1000, 5000, 20000} {
		data := workload.Trading(workload.TradingConfig{Clients: 100, Stocks: 16, Trades: n, Seed: 9})
		t0 := time.Now()
		j, err := algebra.NewBatchHashJoin(
			algebra.NewRelationScan(data.Trades, 0), algebra.NewRelationScan(data.Stocks, 0),
			&algebra.ColRef{Name: "company_stock_ticker_symbol"}, &algebra.ColRef{Name: "ticker_symbol"},
			nil, nil, ctx, 0)
		if err != nil {
			return err
		}
		out, err := algebra.Collect(j)
		if err != nil {
			return err
		}
		elapsed := time.Since(t0)
		// Count rows whose joined price cell still carries its polygen source.
		withSrc := 0
		col := out.Schema.ColIndex("share_price")
		for _, t := range out.Tuples {
			if len(t.Cells[col].Sources) > 0 {
				withSrc++
			}
		}
		fmt.Printf("  join %6d trades x 16 stocks: %7d rows in %8v; %d carry polygen sources\n",
			n, out.Len(), elapsed, withSrc)
	}
	fmt.Println("shape: propagation is O(rows); source sets ride along without blowup on joins")
	return nil
}

func runAB4() error {
	app := core.ScalableModel(12)
	for _, nViews := range []int{1, 4, 16} {
		for _, nInds := range []int{4, 16} {
			views, err := core.ScalableViews(app, nViews, nInds)
			if err != nil {
				return err
			}
			ig := core.Integrator{Registry: derive.StandardRegistry()}
			t0 := time.Now()
			qs, err := ig.Integrate(views...)
			if err != nil {
				return err
			}
			fmt.Printf("  %2d views x %2d indicators: %4d integrated indicators in %v\n",
				nViews, nInds, len(qs.Indicators), time.Since(t0))
		}
	}
	fmt.Println("shape: integration is near-linear in total annotations; unions dominate")
	return nil
}

func runAB5() error {
	chart, err := inspect.NewPChart(0.01, 500)
	if err != nil {
		return err
	}
	ins := &inspect.Inspector{Rules: []inspect.Rule{
		inspect.NotNull{Attr: "address"}, inspect.NotNull{Attr: "employees"}}}
	base := workload.Customers(workload.CustomerConfig{N: 500, Seed: 100})
	detectedAt := -1
	for day := 0; day < 20; day++ {
		rate := 0.005
		if day >= 12 {
			rate = 0.05 // sustained process shift
		}
		batch, _ := workload.InjectErrors(base, workload.ErrorConfig{Seed: int64(day), NullRate: rate})
		res := ins.InspectRelation(batch)
		p, err := chart.AddSample(res.Defective)
		if err != nil {
			return err
		}
		if p.OutOfControl && detectedAt < 0 {
			detectedAt = day
		}
	}
	fmt.Printf("  shift injected at day 12; chart signalled at day %d (%d out-of-control points total)\n",
		detectedAt, len(chart.OutOfControl()))
	if detectedAt < 12 {
		return fmt.Errorf("false alarm before the shift")
	}
	return nil
}
