package lint

import (
	"go/ast"
)

// Sharedscan keeps the query path on the zero-clone column views. A table
// has one bulk read — ScanSegmentCols for one segment, SnapshotCols for
// the whole table at one instant — whose column vectors alias the heap's
// immutable runs, and tuple_clones_per_query is held at zero by the
// benchmark. Table.Scan, the one reader left that copies every row it
// visits, exists for tooling outside the engine; reintroduced anywhere on
// the query path it silently pays O(rows) allocations per statement.
//
// The analyzer flags calls to Table.Scan from the query-path packages
// (algebra, qql, server). There is no escape: DML, checkpoints and the
// quality gauges all read column views. That nobody writes through a view
// is enforced by convention and -race, not by this analyzer.
var Sharedscan = &Analyzer{
	Name: "sharedscan",
	Doc: "report the cloning Table.Scan on the query path; read the " +
		"zero-clone column views (ScanSegmentCols, SnapshotCols)",
	Match: matchAny("internal/algebra", "internal/qql", "internal/server"),
	Run:   runSharedscan,
}

// cloningReaders are the *storage.Table methods that clone every row they
// return.
var cloningReaders = map[string]bool{
	"Scan": true,
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
					"Table.%s clones every row it returns; on the query path read the column views ScanSegmentCols or SnapshotCols (read-only contract)",
					fn.Name())
			}
			return true
		})
	}
	return nil
}
