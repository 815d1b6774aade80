package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// spec is the part of BENCHMARK.json the benchmark itself reads: the gated
// metrics and their bounds live there and nowhere else.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// pairing is one gated metric on one workload across the repeated sets.
type pairing struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Bound    float64   `json:"bound"`
	Values   []float64 `json:"values"`
	// Spread is (max - min) / min over the sets: with two sets, how far the
	// worse one is from the better one as a share of the better one.
	Spread float64 `json:"spread"`
	Within bool    `json:"within_bound"`
}

func spread(values []float64) float64 {
	lo, hi := values[0], values[0]
	for _, v := range values {
		lo, hi = min(lo, v), max(hi, v)
	}
	if lo <= 0 {
		return 0
	}
	return (hi - lo) / lo
}

// agreement compares the repeated sets: every gated metric on every workload
// must repeat within its own bound, or the benchmark cannot tell a regression
// of that size from noise. It prints each spread, writes agreement.json and,
// with check, fails on the first pairing outside its bound.
func agreement(p params, sets []map[string]*result, check bool) error {
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("-repeat needs the bounds in BENCHMARK.json (run from the repository root): %w", err)
	}
	var pairs []pairing
	outside := 0
	fmt.Printf("agreement over %d sets\n", len(sets))
	for _, name := range workloadOrder {
		for _, m := range sp.EndToEnd {
			var values []float64
			for _, set := range sets {
				if v, ok := set[name].Metrics[m.Name]; ok {
					values = append(values, v.Value)
				}
			}
			if len(values) < 2 {
				continue
			}
			pr := pairing{Workload: name, Metric: m.Name, Unit: m.Unit, Bound: m.Bound, Values: values, Spread: spread(values)}
			pr.Within = pr.Spread <= pr.Bound
			verdict := "ok"
			if !pr.Within {
				verdict = "OUTSIDE"
				outside++
			}
			fmt.Printf("  %-15s %-20s spread %6.2f%%  bound %5.1f%%  %s\n", name, m.Name, pr.Spread*100, m.Bound*100, verdict)
			pairs = append(pairs, pr)
		}
	}
	if err := writeJSON(filepath.Join(p.outDir, "agreement.json"), struct {
		Run      runInfo   `json:"run"`
		Pairings []pairing `json:"pairings"`
	}{info(p), pairs}); err != nil {
		return err
	}
	if check && outside > 0 {
		return fmt.Errorf("%d pairings of metric and workload differ between sets by more than their bound", outside)
	}
	return nil
}
