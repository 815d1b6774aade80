package qql

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/algebra"
	"repro/internal/storage"
)

// AnalyzeStep is one plan step of an EXPLAIN ANALYZE report with its
// actuals.
type AnalyzeStep struct {
	// Desc is the step description, identical to the EXPLAIN line.
	Desc string
	// Instrumented reports whether the step carries collected actuals.
	// Every step of an executed plan is an instrumented operator; the field
	// stays for readers written when plans had annotation-only steps.
	Instrumented bool
	// Rows is the number of tuples the operator produced.
	Rows int64
	// Batches is the number of non-empty batches produced (batch
	// operators only).
	Batches int64
	// Time is the operator's inclusive wall time (the operator plus
	// everything beneath it), including any eager constructor work (hash
	// join build, aggregate drain).
	Time time.Duration
	// Extra carries operator-specific actuals, e.g. parallel-scan worker
	// occupancy ("workers=4 segments=[7 6 6 6]").
	Extra string
}

// AnalyzeReport is the structured result of EXPLAIN ANALYZE: the executed
// plan with per-operator actuals, phase timings, and provenance/cache
// detail. Format renders it as the statement's text output; tests consume
// the struct directly.
type AnalyzeReport struct {
	// Steps mirrors the EXPLAIN plan tree in source-to-sink order.
	Steps []AnalyzeStep
	// Parse is the time spent lexing and parsing the script.
	Parse time.Duration
	// Bind is the time spent resolving names and capturing schema versions;
	// zero on a bound-plan cache hit, which skips the phase entirely.
	Bind time.Duration
	// Plan is the time spent constructing the iterator pipeline (including
	// cache lookup/validation and statement cloning, minus Bind).
	Plan time.Duration
	// Exec is the time spent draining the root iterator.
	Exec time.Duration
	// CacheTier is the bound-plan cache outcome: hit, miss or bypass.
	CacheTier string
	// Rows is the number of rows the query returned.
	Rows int
	// Clones is the change in the process-wide tuple-clone counter across
	// execution — approximate under concurrent sessions, exact otherwise.
	Clones int64
}

// Format renders the report as EXPLAIN ANALYZE's text output: the plan tree
// annotated with actuals, then the summary lines.
func (r *AnalyzeReport) Format() string {
	var b strings.Builder
	for i, st := range r.Steps {
		b.WriteString(strings.Repeat("  ", i))
		if i > 0 {
			b.WriteString("-> ")
		}
		b.WriteString(st.Desc)
		if st.Instrumented {
			fmt.Fprintf(&b, " (actual rows=%d", st.Rows)
			if st.Batches > 0 {
				fmt.Fprintf(&b, " batches=%d", st.Batches)
			}
			fmt.Fprintf(&b, " time=%v", st.Time.Round(time.Microsecond))
			if st.Extra != "" {
				b.WriteString(" ")
				b.WriteString(st.Extra)
			}
			b.WriteString(")")
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "rows: %d; clones: %d\n", r.Rows, r.Clones)
	fmt.Fprintf(&b, "phases: parse=%v bind=%v plan=%v exec=%v\n",
		r.Parse.Round(time.Microsecond), r.Bind.Round(time.Microsecond),
		r.Plan.Round(time.Microsecond), r.Exec.Round(time.Microsecond))
	fmt.Fprintf(&b, "plan cache: %s\n", r.CacheTier)
	return b.String()
}

// execAnalyze runs EXPLAIN ANALYZE <select>: execute the query with
// instrumentation and return the annotated plan as the statement's Plan
// text.
func (s *Session) execAnalyze(sel *SelectStmt, key string) (Result, error) {
	rep, err := s.analyzeSelect(sel, key)
	if err != nil {
		return Result{}, err
	}
	s.info.CacheTier = rep.CacheTier
	s.info.Rows = rep.Rows
	return Result{Plan: rep.Format()}, nil
}

// analyzeSelect compiles sel with instrumentation (sharing the bound-plan
// cache tier under key, like EXPLAIN), drains it, and assembles the report.
func (s *Session) analyzeSelect(sel *SelectStmt, key string) (*AnalyzeReport, error) {
	s.analyze = true
	s.prepDur, s.buildDur = 0, 0
	defer func() { s.analyze = false }()

	clones0 := storage.TupleClones()
	tPlan := time.Now()
	p, outcome, err := s.planSelectVia(sel, key, false)
	planDur := time.Since(tPlan)
	if err != nil {
		return nil, err
	}
	tExec := time.Now()
	rel, err := algebra.Collect(p.bit)
	execDur := time.Since(tExec)
	p.harvestExtras()
	if err != nil {
		return nil, err
	}

	rep := &AnalyzeReport{
		Parse:     s.lastParse,
		Bind:      s.prepDur,
		Plan:      planDur - s.prepDur,
		Exec:      execDur,
		CacheTier: outcome.String(),
		Rows:      len(rel.Tuples),
		Clones:    storage.TupleClones() - clones0,
	}
	s.info.PlanShape = p.shape()
	for i, desc := range p.steps {
		step := AnalyzeStep{Desc: desc}
		if i < len(p.stats) {
			st := p.stats[i]
			step.Instrumented = true
			step.Rows = st.Rows
			step.Batches = st.Batches
			step.Time = st.Time()
			step.Extra = st.Extra
		}
		rep.Steps = append(rep.Steps, step)
	}
	return rep, nil
}

// AnalyzeQuery runs EXPLAIN ANALYZE over src — which must be a single
// SELECT (or an EXPLAIN ANALYZE of one) — and returns the structured
// report. It shares the bound-plan cache tier exactly as executing the bare
// SELECT would.
func (s *Session) AnalyzeQuery(src string) (*AnalyzeReport, error) {
	key := s.cacheKey(src)
	stmts, err := s.parse(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("qql: AnalyzeQuery expects one statement, got %d", len(stmts))
	}
	var sel *SelectStmt
	switch v := stmts[0].(type) {
	case *SelectStmt:
		sel = v
	case *ExplainStmt:
		sel = v.Sel
		if v.Analyze {
			key = strings.TrimPrefix(key, "EXPLAIN ANALYZE ")
		} else {
			key = strings.TrimPrefix(key, "EXPLAIN ")
		}
	default:
		return nil, fmt.Errorf("qql: AnalyzeQuery expects a SELECT statement")
	}
	s.tick()
	return s.analyzeSelect(sel, key)
}
