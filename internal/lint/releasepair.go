package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Releasepair enforces deterministic release of pooled resources: a value
// drawn from a sync.Pool — directly via Pool.Get or through a getter
// wrapper like algebra.getBatch — must reach its paired release
// (Pool.Put, putBatch, Stop, Close, release) on every control-flow path
// out of the function that acquired it, including early error returns.
// The batch engine recycles kilorow batch buffers through exactly this
// pattern; a batch dropped on an error path is not a leak the GC fixes
// cheaply — it permanently shrinks the warm pool and resurrects the
// per-query allocations the pool exists to amortize (PR 5).
//
// Ownership transfer ends the obligation: storing the value into a struct
// field, returning it, or passing it to another function hands the
// release duty to the new owner (batchProject parking its input batch in
// p.buf until Stop is the canonical example). A deferred release covers
// all paths at once and is the preferred shape.
//
// The check is intraprocedural and path-sensitive over if/else, switch,
// select and loops; it deliberately has no opinion about acquisitions
// stored directly into fields, which are lifecycle-managed by Stop.
var Releasepair = &Analyzer{
	Name: "releasepair",
	Doc: "report sync.Pool acquisitions (Pool.Get, getBatch) that miss " +
		"their paired release on some control-flow path",
	Match: func(string) bool { return true },
	Run:   runReleasepair,
}

// releaseNames are callee names that discharge the obligation when the
// tracked value appears among their arguments or as their receiver.
var releaseNames = map[string]bool{
	"putBatch": true,
	"Put":      true,
	"Stop":     true,
	"Close":    true,
	"release":  true,
	"Release":  true,
}

func runReleasepair(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				rp := &releaseWalker{pass: pass}
				live := map[*types.Var]token.Pos{}
				rp.walkStmts(fd.Body.List, live)
				// Falling off the end of the function is a return too.
				rp.reportLive(live, fd.Body.Rbrace)
			}
		}
	}
	return nil
}

// isPoolAcquire reports whether the call draws from a pool: sync.Pool.Get
// or a same-package getter named getBatch.
func isPoolAcquire(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	if fn.Name() == "getBatch" {
		return true
	}
	if fn.Name() == "Get" && fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
		if recv := fn.Signature().Recv(); recv != nil {
			if n := namedType(recv.Type()); n != nil && n.Obj().Name() == "Pool" {
				return true
			}
		}
	}
	return false
}

type releaseWalker struct {
	pass *Pass
}

func (rp *releaseWalker) reportLive(live map[*types.Var]token.Pos, at token.Pos) {
	for v, pos := range live {
		rp.pass.Reportf(at,
			"%s acquired from the pool at %s is not released on this path; release it (putBatch/Put/Stop/Close), defer the release, or transfer ownership before returning",
			v.Name(), rp.pass.Fset.Position(pos))
	}
}

func cloneLive(live map[*types.Var]token.Pos) map[*types.Var]token.Pos {
	c := make(map[*types.Var]token.Pos, len(live))
	for k, v := range live {
		c[k] = v
	}
	return c
}

// mergeBranches folds the live sets surviving each non-terminating branch
// back into live: an obligation is discharged only if every branch that
// falls through discharged it.
func mergeBranches(live map[*types.Var]token.Pos, branches []map[*types.Var]token.Pos) {
	for v := range live {
		discharged := len(branches) > 0
		for _, b := range branches {
			if _, still := b[v]; still {
				discharged = false
				break
			}
		}
		if discharged {
			delete(live, v)
		}
	}
}

// terminates reports whether a statement list certainly leaves the
// function (ends in return or an unlabeled panic call).
func terminates(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch last := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

func (rp *releaseWalker) walkStmts(stmts []ast.Stmt, live map[*types.Var]token.Pos) {
	for _, s := range stmts {
		rp.walkStmt(s, live)
	}
}

func (rp *releaseWalker) walkStmt(s ast.Stmt, live map[*types.Var]token.Pos) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		// New acquisitions: `b := getBatch(n)`, `x := pool.Get().(*T)`.
		for i, rhs := range s.Rhs {
			call := acquireCall(rhs)
			if call == nil || !isPoolAcquire(rp.pass.Info, call) {
				continue
			}
			if i < len(s.Lhs) {
				if id, ok := s.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
					if v, ok := rp.pass.Info.Defs[id].(*types.Var); ok {
						live[v] = call.Pos()
						continue
					}
					if v, ok := rp.pass.Info.Uses[id].(*types.Var); ok {
						live[v] = call.Pos()
						continue
					}
				}
			}
			// Acquired straight into a field, a map slot or a blank: the
			// value is lifecycle-managed elsewhere; out of scope here.
		}
		// Any other appearance of a tracked variable on either side is a
		// transfer (aliasing, field store, reassignment).
		for _, rhs := range s.Rhs {
			if acquireCall(rhs) == nil {
				rp.transferUses(rhs, live)
			}
		}
	case *ast.ExprStmt:
		rp.scanRelease(s.X, live)
	case *ast.DeferStmt:
		rp.deferRelease(s.Call, live)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			rp.transferUses(e, live)
		}
		rp.reportLive(live, s.Pos())
		clear(live)
	case *ast.IfStmt:
		if s.Init != nil {
			rp.walkStmt(s.Init, live)
		}
		thenLive := cloneLive(live)
		rp.walkStmts(s.Body.List, thenLive)
		var branches []map[*types.Var]token.Pos
		if !terminates(s.Body.List) {
			branches = append(branches, thenLive)
		}
		if s.Else != nil {
			elseLive := cloneLive(live)
			rp.walkStmt(s.Else, elseLive)
			elseTerm := false
			if blk, ok := s.Else.(*ast.BlockStmt); ok {
				elseTerm = terminates(blk.List)
			}
			if !elseTerm {
				branches = append(branches, elseLive)
			}
		} else {
			branches = append(branches, cloneLive(live))
		}
		mergeBranches(live, branches)
	case *ast.BlockStmt:
		rp.walkStmts(s.List, live)
	case *ast.ForStmt:
		rp.walkStmts(s.Body.List, cloneLive(live))
	case *ast.RangeStmt:
		rp.walkStmts(s.Body.List, cloneLive(live))
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		var clauses [][]ast.Stmt
		switch sw := s.(type) {
		case *ast.SwitchStmt:
			for _, c := range sw.Body.List {
				clauses = append(clauses, c.(*ast.CaseClause).Body)
			}
		case *ast.TypeSwitchStmt:
			for _, c := range sw.Body.List {
				clauses = append(clauses, c.(*ast.CaseClause).Body)
			}
		case *ast.SelectStmt:
			for _, c := range sw.Body.List {
				clauses = append(clauses, c.(*ast.CommClause).Body)
			}
		}
		var branches []map[*types.Var]token.Pos
		for _, body := range clauses {
			bl := cloneLive(live)
			rp.walkStmts(body, bl)
			if !terminates(body) {
				branches = append(branches, bl)
			}
		}
		if len(branches) > 0 {
			mergeBranches(live, branches)
		}
	case *ast.GoStmt:
		// The goroutine takes ownership of anything it captures.
		rp.transferUses(s.Call, live)
	case *ast.LabeledStmt:
		rp.walkStmt(s.Stmt, live)
	}
}

// acquireCall unwraps `call`, `call.(*T)` and parens to the underlying
// call expression, or nil.
func acquireCall(e ast.Expr) *ast.CallExpr {
	e = ast.Unparen(e)
	if ta, ok := e.(*ast.TypeAssertExpr); ok {
		e = ast.Unparen(ta.X)
	}
	if call, ok := e.(*ast.CallExpr); ok {
		return call
	}
	return nil
}

// scanRelease looks for release calls and ownership transfers in an
// expression statement.
func (rp *releaseWalker) scanRelease(e ast.Expr, live map[*types.Var]token.Pos) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		rp.transferUses(e, live)
		return
	}
	if rp.dischargesIn(call, live) {
		return
	}
	// Not a release: the tracked value escaping as an argument transfers
	// ownership (NextBatch(b) hands the buffer to the producer to fill;
	// the producer's contract covers it). Method calls *on* the value
	// (b.Len()) keep the obligation local.
	for _, arg := range call.Args {
		rp.transferUses(arg, live)
	}
}

// dischargesIn applies a release call to the live set, reporting whether
// the call was a recognized release shape.
func (rp *releaseWalker) dischargesIn(call *ast.CallExpr, live map[*types.Var]token.Pos) bool {
	name := ""
	var recv ast.Expr
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
		recv = fun.X
	default:
		return false
	}
	if !releaseNames[name] {
		return false
	}
	released := false
	for _, arg := range call.Args {
		if v := trackedVar(rp.pass.Info, arg, live); v != nil {
			delete(live, v)
			released = true
		}
	}
	if recv != nil {
		if v := trackedVar(rp.pass.Info, recv, live); v != nil {
			delete(live, v)
			released = true
		}
	}
	return released
}

// deferRelease handles `defer release(v)` and `defer func() { ... }()`
// whose body releases tracked values: a deferred release covers every
// path, so the obligations simply end here.
func (rp *releaseWalker) deferRelease(call *ast.CallExpr, live map[*types.Var]token.Pos) {
	if rp.dischargesIn(call, live) {
		return
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		for _, inner := range collectCalls(lit.Body) {
			rp.dischargesIn(inner, live)
		}
	}
}

// trackedVar resolves an expression to a tracked variable, or nil.
func trackedVar(info *types.Info, e ast.Expr, live map[*types.Var]token.Pos) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok {
		return nil
	}
	if _, tracked := live[v]; !tracked {
		return nil
	}
	return v
}

// transferUses removes from the live set any tracked variable appearing
// in e: returns, stores, captures and argument positions all hand the
// release obligation to the new owner. A variable in method-receiver
// position (b.Len()) is the one use that does NOT transfer — calling a
// method on the batch is how the owner uses it, not how it gives it away.
func (rp *releaseWalker) transferUses(e ast.Expr, live map[*types.Var]token.Pos) {
	if e == nil || len(live) == 0 {
		return
	}
	receivers := map[*ast.Ident]bool{}
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
					receivers[id] = true
				}
			}
		}
		return true
	})
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || receivers[id] {
			return true
		}
		if v, ok := rp.pass.Info.Uses[id].(*types.Var); ok {
			delete(live, v)
		}
		return true
	})
}
