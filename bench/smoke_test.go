package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func smokeParams(t *testing.T, workload string, traced bool) params {
	t.Helper()
	out := t.TempDir()
	tmp, err := tmpRoot(out)
	if err != nil {
		t.Fatal(err)
	}
	p := params{workload: workload, seed: 11, seconds: 0.6, trace: traced, outDir: out, tmp: tmp,
		rows: 5000, ingestRows: 2000, writeRate: 40, warmup: 100 * time.Millisecond}
	if traced {
		p.tr = newTracing(workload)
	}
	return p
}

// Every workload runs end to end on a small catalog with nothing failed and
// reports exactly the metrics BENCHMARK.json lists, traced and untraced.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(sp.Workloads), len(workloadOrder))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloadOrder[i] {
			t.Errorf("BENCHMARK.json workload %d is %q, want %q", i, w.Name, workloadOrder[i])
		}
	}
	for _, traced := range []bool{false, true} {
		want := sp.EndToEnd
		if traced {
			want = sp.PerLayer
		}
		for _, name := range workloadOrder {
			p := smokeParams(t, name, traced)
			r, err := workloads[name](p)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d ops failed: %s", name, traced, r.Failed, r.Attempted, r.FirstErr)
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", name, traced, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v), want unit %s", name, traced, m.Name, got, ok, m.Unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, m.Name, got.Value)
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(p.outDir, "trace-"+name+".json")); err != nil {
					t.Errorf("%s: no span file: %v", name, err)
				}
			}
			if left, _ := os.ReadDir(p.tmp); len(left) != 0 {
				t.Errorf("%s traced=%v: %d log directories left behind", name, traced, len(left))
			}
		}
	}
}

// A wrong answer must be counted, not averaged away.
func TestOracleCatchesWrongAnswers(t *testing.T) {
	p := smokeParams(t, "oltp_read", false)
	rows := genCustomers(p.seed, 200, "")
	e, err := startEnv(p.tmp, rows, true, ingestOpts(200), clients)
	if err != nil {
		t.Fatal(err)
	}
	defer e.stop()
	if _, err := lookup(e, 0, &rows[5], nil); err != nil {
		t.Fatalf("right answer rejected: %v", err)
	}
	wrong := rows[5]
	wrong.empSrc = "rumour"
	if _, err := lookup(e, 0, &wrong, nil); err == nil {
		t.Error("a lookup with the wrong tag passed the check")
	}
	oracle := newReportOracle(rows)
	if _, err := report(e, 1, oracle, nil); err != nil {
		t.Fatalf("right report rejected: %v", err)
	}
	oracle.fresh++
	if _, err := report(e, 1, oracle, nil); err == nil {
		t.Error("a report with a wrong count passed the check")
	}
	rec, err := e.restart()
	if err != nil {
		t.Fatal(err)
	}
	if rec.rows != len(rows) || rec.sum != modelSum(rows) || rec.seconds <= 0 || rec.diskBytes <= 0 {
		t.Errorf("restart found %+v", rec)
	}
}
