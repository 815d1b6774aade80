package lint

import (
	"go/ast"
)

// Valuecopy enforces the ComparePtr lesson from the PR 5 vectorization
// work: value.Value is a 32-byte struct (kind + nanoseconds + int64 +
// string header), and the by-value comparators Compare/Equal/Less
// copy two of them per call. On a cold path that is noise; inside a
// per-row loop or a per-row callback it is two 32-byte copies per
// comparison times millions of rows — measurable against the vectorized
// tier's zero-allocation budget. The pointer twins ComparePtr, EqualPtr
// and LessPtr exist precisely so hot paths can compare in place.
//
// The analyzer flags calls to value.Compare, value.Equal and value.Less
// that occur lexically inside a for/range body or inside a function
// literal, in the three hot-path packages (value, storage, algebra).
// Function literals count because that is what per-row code looks like
// here: sort comparators, B-tree search closures, index range visitors,
// compiled expression evaluators — all invoked once per row or
// once per comparison. Straight-line uses in constructors and planners
// (bind-time constant folding, a one-off bound check) stay legal.
var Valuecopy = &Analyzer{
	Name: "valuecopy",
	Doc: "report by-value value.Value comparators (Compare/Equal/Less) in " +
		"per-row contexts; use ComparePtr/EqualPtr/LessPtr",
	Match: matchAny("internal/value", "internal/storage", "internal/algebra"),
	Run:   runValuecopy,
}

// ptrTwin names the in-place replacement for each by-value comparator.
var ptrTwin = map[string]string{
	"Compare": "ComparePtr",
	"Equal":   "EqualPtr",
	"Less":    "LessPtr",
}

func runValuecopy(pass *Pass) error {
	inspectWithStack(pass.Files, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.Info, call)
		if fn == nil || fn.Pkg() == nil || !hasPathSuffix(fn.Pkg().Path(), "internal/value") {
			return true
		}
		twin, hot := ptrTwin[fn.Name()]
		if !hot || fn.Signature().Recv() != nil {
			return true
		}
		// ComparePtr delegating to nothing / Compare delegating to
		// ComparePtr inside package value itself is the one blessed
		// wrapper layer.
		if pass.Pkg != nil && hasPathSuffix(pass.Pkg.Path(), "internal/value") {
			if _, name := enclosingFunc(stack); name == fn.Name() {
				return true
			}
		}
		if inPerRowContext(stack) {
			pass.Reportf(call.Pos(),
				"value.%s copies two 32-byte Values per call in a per-row context; use value.%s on addresses instead (PR 5 ComparePtr lesson)",
				fn.Name(), twin)
		}
		return true
	})
	return nil
}

// inPerRowContext reports whether the innermost relevant scope is a loop
// body or a function literal — the shapes that execute once per row, per
// key or per comparison in this codebase.
func inPerRowContext(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.FuncLit:
			return true
		case *ast.FuncDecl:
			return false
		}
	}
	return false
}
