// Package lint is qqlvet's analysis framework: a stdlib-only skeleton of
// the golang.org/x/tools/go/analysis model (Analyzer, Pass, Diagnostic)
// plus the engine-specific analyzers that machine-check invariants this
// repo has already paid for once in bugs — lock-scope discipline in
// storage, deterministic release of pooled batches, pointer-based Value
// comparison on hot paths, construction-time metrics registration, and
// zero-clone column-view reads on the query path.
//
// The framework deliberately mirrors x/tools shapes (an Analyzer owns a
// Run func over a Pass carrying files, type info and a Report sink) so the
// suite can migrate onto the real go/analysis package wholesale if the
// module ever takes on the x/tools dependency. Until then everything here
// builds from go/ast, go/types and go/token alone, which keeps the repo at
// zero external dependencies — the same constraint the rest of the engine
// lives under.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position in the analyzed package and the
// message explaining which invariant the code at that position violates.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Analyzer is one invariant checker. Run inspects a type-checked package
// through the Pass and reports violations; it must not mutate the ASTs.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -run filters.
	Name string
	// Doc is the one-paragraph contract the analyzer enforces, shown by
	// `qqlvet -help`. The first line is the summary.
	Doc string
	// Match reports whether the analyzer applies to a package import
	// path. The driver consults it for reporting only — facts are still
	// computed on non-matching packages, since a matching dependent may
	// need them. Test harnesses bypass it so testdata packages exercise
	// every analyzer regardless of their paths.
	Match func(pkgPath string) bool
	// IncludeTests keeps diagnostics positioned inside _test.go files.
	// Most invariants are production hot-path contracts that tests
	// legitimately probe the edges of (a test may hold a lock on purpose,
	// or clone rows to mutate them), so the default is to drop test-file
	// findings at the sink; analyzers whose invariant holds in tests too
	// (errdrop: a test helper that swallows an error hides real failures)
	// opt in here.
	IncludeTests bool
	// Run performs the analysis.
	Run func(*Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// Facts is the run's cross-package fact store. Facts exported by the
	// dependencies of this package are already present; facts this pass
	// exports become visible to packages analyzed later. Never nil.
	Facts *Facts

	// factsOnly suppresses diagnostics: the pass runs only so its fact
	// exports become available to dependent packages. The driver sets it
	// for dependency-only packages and for packages the analyzer's Match
	// predicate excludes from reporting.
	factsOnly bool

	diags []Diagnostic
}

// Reportf records a diagnostic at pos. On facts-only passes it is a no-op;
// findings inside _test.go files are dropped unless the analyzer sets
// IncludeTests.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.factsOnly {
		return
	}
	if !p.Analyzer.IncludeTests {
		if f := p.Fset.File(pos); f != nil && strings.HasSuffix(f.Name(), "_test.go") {
			return
		}
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Export records a fact about key under this pass's analyzer namespace.
func (p *Pass) Export(key string, fact any) { p.Facts.Export(p.Analyzer.Name, key, fact) }

// Import reads a fact about key from this pass's analyzer namespace.
func (p *Pass) Import(key string, out any) bool { return p.Facts.Import(p.Analyzer.Name, key, out) }

// RunAnalyzer applies one analyzer to a loaded package and returns its
// findings sorted by position. Facts exported by the pass are added to
// facts; nil means the run keeps no cross-package knowledge (single
// package, no dependencies analyzed).
func RunAnalyzer(a *Analyzer, pkg *Package, facts *Facts) ([]Diagnostic, error) {
	return runPass(a, pkg, facts, !pkg.FactsOnly)
}

// runPass is RunAnalyzer with an explicit reporting switch, used by the
// driver to run fact-computation passes over packages the analyzer's
// Match predicate excludes from reporting.
func runPass(a *Analyzer, pkg *Package, facts *Facts, report bool) ([]Diagnostic, error) {
	if facts == nil {
		facts = NewFacts()
	}
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		Info:      pkg.Info,
		Facts:     facts,
		factsOnly: !report,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	sort.Slice(pass.diags, func(i, j int) bool { return pass.diags[i].Pos < pass.diags[j].Pos })
	return pass.diags, nil
}

// ---- Shared type-inspection helpers ----

// namedType unwraps pointers and aliases down to a named type, or nil.
func namedType(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Alias:
			t = types.Unalias(tt)
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}

// isNamed reports whether t (through pointers) is the named type
// pkgSuffix.name, matching the package by import-path suffix so the check
// holds for both "repro/internal/value" and a vendored or test-relocated
// copy.
func isNamed(t types.Type, pkgSuffix, name string) bool {
	n := namedType(t)
	if n == nil || n.Obj() == nil || n.Obj().Pkg() == nil {
		return false
	}
	return n.Obj().Name() == name && hasPathSuffix(n.Obj().Pkg().Path(), pkgSuffix)
}

// hasPathSuffix reports whether path equals suffix or ends in "/"+suffix.
func hasPathSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// calleeFunc resolves a call to the *types.Func it statically invokes:
// a plain function, a method, or a method expression. It returns nil for
// calls through function values, type conversions and builtins — the
// dynamic calls several analyzers care about precisely because they cannot
// be resolved.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		// Qualified identifier: pkg.Func.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isConversionOrBuiltin reports whether the call is a type conversion or a
// builtin like len/append — calls with no function body to worry about.
func isConversionOrBuiltin(info *types.Info, call *ast.CallExpr) bool {
	fun := ast.Unparen(call.Fun)
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		return true
	}
	if id, ok := fun.(*ast.Ident); ok {
		if _, ok := info.Uses[id].(*types.Builtin); ok {
			return true
		}
	}
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if _, ok := info.Uses[sel.Sel].(*types.Builtin); ok {
			return true
		}
	}
	return false
}

// funcName renders a call target for diagnostics: "pkg.Fn", "T.Method" or
// the expression text for dynamic calls.
func funcName(info *types.Info, call *ast.CallExpr) string {
	if fn := calleeFunc(info, call); fn != nil {
		if recv := fn.Signature().Recv(); recv != nil {
			if n := namedType(recv.Type()); n != nil {
				return n.Obj().Name() + "." + fn.Name()
			}
		}
		return fn.Name()
	}
	return exprString(ast.Unparen(call.Fun))
}

// exprString renders simple expressions (identifier chains, calls, index
// expressions) as compact source text for lock keys and diagnostics.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprString(e.X)
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.IndexExpr:
		return exprString(e.X) + "[" + exprString(e.Index) + "]"
	case *ast.CallExpr:
		return exprString(e.Fun) + "()"
	case *ast.BasicLit:
		return e.Value
	default:
		return fmt.Sprintf("%T", e)
	}
}

// inspectWithStack walks every file like ast.Inspect but hands the visitor
// the stack of enclosing nodes (outermost first, not including n itself).
// Analyzers use it for lexical-context questions: "is this call inside a
// loop body?", "what function encloses this expression?".
func inspectWithStack(files []*ast.File, visit func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			descend := visit(n, stack)
			if descend {
				stack = append(stack, n)
			}
			return descend
		})
	}
}

// enclosingFunc returns the innermost function declaration in the stack
// (func literals are skipped — they execute in their declaring function's
// context for naming purposes) and its name, or nil and "".
func enclosingFunc(stack []ast.Node) (*ast.FuncDecl, string) {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return fd, fd.Name.Name
		}
	}
	return nil, ""
}

// matchAny returns a Match predicate true for package paths ending in any
// of the given suffixes.
func matchAny(suffixes ...string) func(string) bool {
	return func(path string) bool {
		for _, s := range suffixes {
			if hasPathSuffix(path, s) {
				return true
			}
		}
		return false
	}
}
