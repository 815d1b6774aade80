package lint

import (
	"go/ast"
)

// Sharedscan keeps the query path on the zero-clone column views. A table
// has one bulk read — ScanSegmentCols for one segment, ViewRows for an
// index probe's rows of one segment, SnapshotCols for the whole table at
// one instant — whose column vectors alias the heap's immutable runs, and
// tuple_clones_per_query is held at zero by the benchmark. Table.Scan and
// Table.Get, the two readers left that copy every row they return, exist
// for tooling outside the engine; reintroduced anywhere on the query path
// they silently pay an allocation per row read.
//
// The analyzer flags calls to Table.Scan and Table.Get from the query-path
// packages (algebra, qql, server). There is no escape: DML, index probes,
// checkpoints and the quality gauges all read column views. That nobody
// writes through a view is enforced by convention and -race, not by this
// analyzer.
var Sharedscan = &Analyzer{
	Name: "sharedscan",
	Doc: "report the cloning Table.Scan and Table.Get on the query path; " +
		"read the zero-clone column views (ScanSegmentCols, ViewRows, SnapshotCols)",
	Match: matchAny("internal/algebra", "internal/qql", "internal/server"),
	Run:   runSharedscan,
}

// cloningReaders are the *storage.Table methods that clone every row they
// return.
var cloningReaders = map[string]bool{
	"Scan": true,
	"Get":  true,
}

func runSharedscan(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil || fn.Signature().Recv() == nil || !cloningReaders[fn.Name()] {
				return true
			}
			if isNamed(fn.Signature().Recv().Type(), "internal/storage", "Table") {
				pass.Reportf(call.Pos(),
					"Table.%s clones every row it returns; on the query path read the column views ScanSegmentCols, ViewRows or SnapshotCols (read-only contract)",
					fn.Name())
			}
			return true
		})
	}
	return nil
}
