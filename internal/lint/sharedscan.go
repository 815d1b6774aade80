package lint

import (
	"go/ast"
)

// Sharedscan keeps the query path on the zero-clone column views, read the
// one way that sees a table at one instant. A table has two bulk reads on
// the query path — SnapshotCols for the whole table under one read lock,
// ViewRows for an index probe's rows of one segment — whose column vectors
// alias the heap's immutable runs, and tuple_clones_per_query is held at
// zero by the benchmark. Table.Scan and Table.Get, the two readers left
// that copy every row they return, exist for tooling outside the engine;
// reintroduced anywhere on the query path they silently pay an allocation
// per row read. Table.ScanSegmentCols views one segment per read lock, so
// a scan built on it can see a row that moves between segments twice; it
// stays in storage for tooling only.
//
// The analyzer flags calls to Table.Scan, Table.Get and
// Table.ScanSegmentCols from the query-path packages (algebra, qql,
// server). There is no escape: SELECT, DML, index probes, checkpoints and
// the quality gauges all read column views. That nobody writes through a
// view is enforced by convention and -race, not by this analyzer.
//
// The same packages evaluate expressions one way: compiled
// (algebra.Compile, CompilePredicate, CompileColPred). algebra.Reference
// and ReferenceTruth, the tree-walking evaluator, are the oracle those are
// tested against; a call on the query path would run a second evaluator
// whose answers no test compares with anything, so the analyzer flags it
// too, everywhere but in the file that defines them.
var Sharedscan = &Analyzer{
	Name: "sharedscan",
	Doc: "report the cloning Table.Scan and Table.Get and the segment-at-a-time " +
		"Table.ScanSegmentCols on the query path; read the zero-clone column views " +
		"(SnapshotCols, ViewRows). Report calls to the reference evaluator " +
		"(algebra.Reference, ReferenceTruth) there too; run compiled expressions",
	Match: matchAny("internal/algebra", "internal/qql", "internal/server"),
	Run:   runSharedscan,
}

// offPathReaders are the *storage.Table methods the query path must not
// call, with why.
var offPathReaders = map[string]string{
	"Scan":            "Table.Scan clones every row it returns; on the query path read the column views SnapshotCols or ViewRows (read-only contract)",
	"Get":             "Table.Get clones every row it returns; on the query path read the column views SnapshotCols or ViewRows (read-only contract)",
	"ScanSegmentCols": "Table.ScanSegmentCols reads one segment per lock, so a row moved between segments can be seen twice; read the table at one instant with SnapshotCols",
}

// oracleEvaluators are the algebra functions that evaluate an expression
// by walking its tree: test oracles, off the query path.
var oracleEvaluators = map[string]bool{"Reference": true, "ReferenceTruth": true}

func runSharedscan(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil {
				return true
			}
			if fn.Signature().Recv() == nil {
				if oracleEvaluators[fn.Name()] && fn.Pkg() != nil && hasPathSuffix(fn.Pkg().Path(), "internal/algebra") &&
					pass.Fset.File(fn.Pos()) != pass.Fset.File(call.Pos()) {
					pass.Reportf(call.Pos(), "algebra.%s is the test oracle of the compiled evaluators; "+
						"on the query path run the compiled expression (algebra.Compile, CompilePredicate)", fn.Name())
				}
				return true
			}
			msg, off := offPathReaders[fn.Name()]
			if off && isNamed(fn.Signature().Recv().Type(), "internal/storage", "Table") {
				pass.Reportf(call.Pos(), "%s", msg)
			}
			return true
		})
	}
	return nil
}
