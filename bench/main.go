// Command bench is the repository's cross-commit benchmark: four named
// workloads driven over loopback TCP against an in-process durable qqld,
// end-to-end metrics measured with tracing off and per-layer metrics from a
// separate traced run. See README.md and BENCHMARK.json.
//
//	go run ./bench                                   every workload, end-to-end metrics
//	go run ./bench -trace 1                          every workload, per-layer metrics + span files
//	go run ./bench -workload oltp_read -seed 7 -seconds 20 -trace 0
//	go run ./bench -repeat 2 -check                  do two sets agree within the bounds?
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// runInfo is recorded in every result file.
type runInfo struct {
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Fsync      string  `json:"fsync"`
	Clients    int     `json:"clients"`
	Rows       int     `json:"catalog_rows"`
	IngestRows int     `json:"ingest_rows_n"`
	WriteRate  float64 `json:"write_rate_w"`
	Traced     bool    `json:"traced"`
}

func commit() string {
	rev, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func info(p params) runInfo {
	return runInfo{
		Commit: commit(), Seed: p.seed, Seconds: p.seconds,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Fsync: "group", Clients: clients, Rows: p.rows, IngestRows: p.ingestRows, WriteRate: p.writeRate,
		Traced: p.trace,
	}
}

// resultFile is the shape of bench/out/result-<workload>.json.
type resultFile struct {
	Run    runInfo `json:"run"`
	Result *result `json:"result"`
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runWorkload runs one workload, traced or not, prints every metric by name
// and unit, and writes the result file.
func runWorkload(p params) (*result, error) {
	if p.trace {
		p.tr = newTracing(p.workload)
	}
	r, err := workloads[p.workload](p)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.workload, err)
	}
	printResult(r)
	name := "result-" + p.workload + ".json"
	if p.trace {
		name = "layers-" + p.workload + ".json"
	}
	return r, writeJSON(filepath.Join(p.outDir, name), resultFile{Run: info(p), Result: r})
}

func printMetrics(kind string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-9s %-28s %14.4f %s\n", kind, name, ms[name].Value, ms[name].Unit)
	}
}

func printResult(r *result) {
	fmt.Printf("%s\n", r.Workload)
	printMetrics("metric", r.Metrics)
	printMetrics("info", r.Info)
	share := 0.0
	if r.Attempted > 0 {
		share = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Printf("  %-9s %-28s %14.6f ratio (%d of %d)\n", "metric", "failed_share", share, r.Failed, r.Attempted)
	if r.FirstErr != "" {
		fmt.Printf("  first failure: %s\n", r.FirstErr)
	}
}

// lastLine is the contract with the driver: one JSON object, last on stdout.
type lastLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var p params
	flag.StringVar(&p.workload, "workload", "", "run one workload: oltp_read, quality_scan, durable_ingest or mixed_rw (default: all four)")
	flag.Int64Var(&p.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&p.seconds, "seconds", 15, "length of the measured window")
	trace := flag.Int("trace", 0, "1: traced run (per-layer metrics, span files) in place of the end-to-end run")
	flag.StringVar(&p.outDir, "out", filepath.Join("bench", "out"), "directory for result files, span files and temporary log directories")
	repeat := flag.Int("repeat", 1, "run this many full sets back to back")
	check := flag.Bool("check", false, "with -repeat: exit non-zero when two sets differ by more than a metric's bound")
	flag.Parse()
	p.trace = *trace != 0
	p.rows, p.ingestRows, p.writeRate, p.warmup = catalogRows, ingestRows, writeRate, 3*time.Second

	if err := realMain(p, *repeat, *check); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain(p params, repeat int, check bool) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if p.seconds <= 0 || p.seconds > 600 {
		return fmt.Errorf("-seconds %v out of range", p.seconds)
	}
	var err error
	if p.tmp, err = tmpRoot(p.outDir); err != nil {
		return err
	}
	defer os.RemoveAll(p.tmp)

	if p.workload != "" {
		if _, ok := workloads[p.workload]; !ok {
			return fmt.Errorf("unknown workload %q (want one of %v)", p.workload, workloadOrder)
		}
		r, err := runWorkload(p)
		if err != nil {
			return err
		}
		line, err := json.Marshal(lastLine{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		if r.Failed > 0 {
			return fmt.Errorf("%s: %d of %d ops failed: %s", p.workload, r.Failed, r.Attempted, r.FirstErr)
		}
		return nil
	}

	sets := make([]map[string]*result, repeat)
	failed := 0
	for i := range sets {
		sets[i] = map[string]*result{}
		for _, name := range workloadOrder {
			p.workload = name
			r, err := runWorkload(p)
			if err != nil {
				return err
			}
			sets[i][name] = r
			failed += r.Failed
		}
	}
	if repeat > 1 {
		if err := agreement(p, sets, check); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d ops failed", failed)
	}
	return nil
}
