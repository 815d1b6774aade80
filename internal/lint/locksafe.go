package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Locksafe enforces the lock-scope discipline the storage layer adopted
// after the PR 2 scan deadlock (TestScanVisitorReentrancy): while a
// sync.Mutex or sync.RWMutex is held, code must not transfer control to
// anything whose body the lock's owner cannot audit. Concretely, inside a
// locked region it reports:
//
//   - calls through function values (parameters, fields, locals) — the
//     exact shape of the old Table.Scan calling a user visitor under
//     RLock, which deadlocked the moment the visitor called back into the
//     table behind a queued writer;
//   - calls to interface methods while a lock owned by internal/storage
//     is held — dynamically dispatched, so equally unauditable. This rule
//     is scoped to storage locks: connection-state mutexes legitimately
//     guard net.Conn/context.Context calls (a deadline set must happen
//     under the same lock that guards the conn), while the storage layer
//     has no business doing dynamic dispatch inside a lock;
//   - function values passed as arguments to other calls (the callee may
//     invoke them under the lock). Function literals are exempt from both
//     rules but their bodies are analyzed as part of the locked region,
//     which is what blesses the btree.Range(lo, hi, func(...){...}) visitor
//     idiom and sort.Slice with an inline comparator;
//   - calls to same-package functions that (transitively, within the
//     package) acquire any lock — nested acquisition is how the
//     storage/catalog lock pair would invert its ordering.
//
// The analysis is per-function: a region opens at mu.Lock()/mu.RLock()
// and closes at the matching Unlock, or at function end when the unlock
// is deferred. Methods whose names end in "Locked" are the audited
// callees designed to run under the caller's lock; they are free to be
// called inside a region but are themselves analyzed like any other
// function.
var Locksafe = &Analyzer{
	Name: "locksafe",
	Doc: "report control transfer to unauditable code (function values, " +
		"interface methods, lock-acquiring helpers) while a mutex is held",
	Match: func(string) bool { return true },
	Run:   runLocksafe,
}

// syncLockOp classifies a call as a mutex operation: the lock-expression
// key ("t.mu", "s" for an embedded mutex) plus whether it acquires or
// releases. TryLock variants are ignored — their failure branch makes
// region tracking ambiguous and the engine does not use them.
type syncLockOp struct {
	key     string
	acquire bool
	release bool
	storage bool // the mutex field/var is declared in internal/storage
}

// heldLock records one held lock: where it was acquired and whether it is
// a storage-layer lock (which arms the interface-method rule).
type heldLock struct {
	pos     token.Pos
	storage bool
}

func mutexOp(info *types.Info, call *ast.CallExpr) (syncLockOp, bool) {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return syncLockOp{}, false
	}
	recv := fn.Signature().Recv()
	if recv == nil {
		return syncLockOp{}, false
	}
	if n := namedType(recv.Type()); n == nil || (n.Obj().Name() != "Mutex" && n.Obj().Name() != "RWMutex") {
		return syncLockOp{}, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return syncLockOp{}, false
	}
	op := syncLockOp{key: exprString(sel.X), storage: storageOwnedLock(info, sel)}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		op.acquire = true
	case "Unlock", "RUnlock":
		op.release = true
	default:
		return syncLockOp{}, false
	}
	return op, true
}

// storageOwnedLock reports whether the mutex in a mu.Lock() selector is
// declared in internal/storage — the layer whose lock regions must stay
// free of dynamic dispatch (sel.X is the mutex expression).
func storageOwnedLock(info *types.Info, sel *ast.SelectorExpr) bool {
	var obj types.Object
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr: // t.mu — resolve the field
		if s, ok := info.Selections[x]; ok {
			obj = s.Obj()
		} else {
			obj = info.Uses[x.Sel]
		}
	case *ast.Ident: // a plain mutex var, or the receiver of an embedded mutex
		obj = info.Uses[x]
	}
	return obj != nil && obj.Pkg() != nil && hasPathSuffix(obj.Pkg().Path(), "internal/storage")
}

func runLocksafe(pass *Pass) error {
	ls := &locksafeState{pass: pass, mayLock: packageMayLock(pass)}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				ls.litVars = localClosures(pass.Info, fd.Body)
				ls.walking = map[*ast.FuncLit]bool{}
				ls.walkStmts(fd.Body.List, map[string]heldLock{})
			}
		}
	}
	return nil
}

// localClosures maps local variables that are assigned a function literal
// exactly once to that literal. Calling such a variable is statically
// auditable — the body is right there in the same function — so locksafe
// analyzes it inline instead of reporting an opaque function-value call.
// A variable reassigned anywhere stays opaque.
func localClosures(info *types.Info, body *ast.BlockStmt) map[*types.Var]*ast.FuncLit {
	assigns := map[*types.Var]int{}
	lits := map[*types.Var]*ast.FuncLit{}
	note := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		v, ok := info.Defs[id].(*types.Var)
		if !ok {
			if v, ok = info.Uses[id].(*types.Var); !ok {
				return
			}
		}
		assigns[v]++
		if lit, ok := ast.Unparen(rhs).(*ast.FuncLit); ok {
			lits[v] = lit
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i := range n.Lhs {
				if i < len(n.Rhs) {
					note(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for i := range n.Names {
				if i < len(n.Values) {
					note(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
	for v, n := range assigns {
		if n != 1 {
			delete(lits, v)
		}
	}
	return lits
}

// knownClosure resolves an expression to a single-assignment local
// closure body, or nil.
func (ls *locksafeState) knownClosure(e ast.Expr) *ast.FuncLit {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := ls.pass.Info.Uses[id].(*types.Var)
	if !ok {
		return nil
	}
	return ls.litVars[v]
}

// walkClosure analyzes a resolved closure body under the current lock
// state, guarding against self-recursive closures.
func (ls *locksafeState) walkClosure(lit *ast.FuncLit, held map[string]heldLock) {
	if ls.walking[lit] {
		return
	}
	ls.walking[lit] = true
	ls.walkStmts(lit.Body.List, held)
	ls.walking[lit] = false
}

// packageMayLock computes, to a fixpoint over the package-local call
// graph, the set of functions that acquire any sync lock directly or via
// same-package callees. Calling one of these inside a locked region nests
// acquisitions, the precondition for lock-order inversion.
func packageMayLock(pass *Pass) map[*types.Func]bool {
	bodies := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				bodies[fn] = fd
			}
		}
	}
	mayLock := map[*types.Func]bool{}
	calls := map[*types.Func][]*types.Func{}
	for fn, fd := range bodies {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if op, ok := mutexOp(pass.Info, call); ok && op.acquire {
				mayLock[fn] = true
			}
			if callee := calleeFunc(pass.Info, call); callee != nil {
				if _, local := bodies[callee]; local {
					calls[fn] = append(calls[fn], callee)
				}
			}
			return true
		})
	}
	for changed := true; changed; {
		changed = false
		for fn, callees := range calls {
			if mayLock[fn] {
				continue
			}
			for _, c := range callees {
				if mayLock[c] {
					mayLock[fn] = true
					changed = true
					break
				}
			}
		}
	}
	return mayLock
}

type locksafeState struct {
	pass    *Pass
	mayLock map[*types.Func]bool
	litVars map[*types.Var]*ast.FuncLit
	walking map[*ast.FuncLit]bool
}

func cloneHeld(held map[string]heldLock) map[string]heldLock {
	c := make(map[string]heldLock, len(held))
	for k, v := range held {
		c[k] = v
	}
	return c
}

// walkStmts interprets a statement list, maintaining the set of held lock
// keys. Branch bodies run on copies of the set: a lock released only on
// one path stays held on the fallthrough view, which is the conservative
// direction for this check.
func (ls *locksafeState) walkStmts(stmts []ast.Stmt, held map[string]heldLock) {
	for _, s := range stmts {
		ls.walkStmt(s, held)
	}
}

func (ls *locksafeState) walkStmt(s ast.Stmt, held map[string]heldLock) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		ls.checkExpr(s.X, held)
	case *ast.DeferStmt:
		// A deferred unlock keeps the region open to function end. Other
		// deferred calls run after every unlock this walker can see, so
		// they are checked against an empty held set.
		if op, ok := mutexOp(ls.pass.Info, s.Call); ok && op.release {
			return
		}
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			for _, inner := range collectCalls(lit.Body) {
				if op, ok := mutexOp(ls.pass.Info, inner); ok && op.release {
					return
				}
			}
			ls.walkStmts(lit.Body.List, map[string]heldLock{})
			return
		}
		ls.checkExpr(s.Call, map[string]heldLock{})
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			ls.checkExpr(e, held)
		}
		for _, e := range s.Lhs {
			ls.checkExpr(e, held)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			ls.checkExpr(e, held)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			ls.walkStmt(s.Init, held)
		}
		ls.checkExpr(s.Cond, held)
		ls.walkStmts(s.Body.List, cloneHeld(held))
		if s.Else != nil {
			ls.walkStmt(s.Else, cloneHeld(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			ls.walkStmt(s.Init, held)
		}
		if s.Cond != nil {
			ls.checkExpr(s.Cond, held)
		}
		body := cloneHeld(held)
		ls.walkStmts(s.Body.List, body)
		if s.Post != nil {
			ls.walkStmt(s.Post, body)
		}
	case *ast.RangeStmt:
		ls.checkExpr(s.X, held)
		ls.walkStmts(s.Body.List, cloneHeld(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			ls.walkStmt(s.Init, held)
		}
		if s.Tag != nil {
			ls.checkExpr(s.Tag, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				ls.walkStmts(cc.Body, cloneHeld(held))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				ls.walkStmts(cc.Body, cloneHeld(held))
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				if cc.Comm != nil {
					ls.walkStmt(cc.Comm, cloneHeld(held))
				}
				ls.walkStmts(cc.Body, cloneHeld(held))
			}
		}
	case *ast.BlockStmt:
		ls.walkStmts(s.List, held)
	case *ast.LabeledStmt:
		ls.walkStmt(s.Stmt, held)
	case *ast.GoStmt:
		// The goroutine body runs outside this stack's locked region.
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			ls.walkStmts(lit.Body.List, map[string]heldLock{})
		}
	case *ast.SendStmt:
		ls.checkExpr(s.Chan, held)
		ls.checkExpr(s.Value, held)
	case *ast.DeclStmt, *ast.IncDecStmt, *ast.BranchStmt, *ast.EmptyStmt:
		// Declarations with call initializers are rare in locked regions;
		// handle the common ValueSpec case.
		if ds, ok := s.(*ast.DeclStmt); ok {
			if gd, ok := ds.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, v := range vs.Values {
							ls.checkExpr(v, held)
						}
					}
				}
			}
		}
	}
}

// collectCalls gathers every call expression in a subtree.
func collectCalls(n ast.Node) []*ast.CallExpr {
	var out []*ast.CallExpr
	ast.Inspect(n, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok {
			out = append(out, c)
		}
		return true
	})
	return out
}

// checkExpr scans one expression for mutex transitions and, when a lock is
// held, for the disallowed call shapes. Function literal subtrees are
// visited through the call rules (invoked inline or passed as argument),
// never blindly, so their bodies are judged under the correct lock state.
func (ls *locksafeState) checkExpr(e ast.Expr, held map[string]heldLock) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // reached only via call-argument analysis below
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if op, ok := mutexOp(ls.pass.Info, call); ok {
			if op.acquire {
				if _, dup := held[op.key]; dup {
					ls.pass.Reportf(call.Pos(), "locks %s while already holding it", op.key)
				}
				held[op.key] = heldLock{pos: call.Pos(), storage: op.storage}
			} else if op.release {
				delete(held, op.key)
			}
			return false
		}
		ls.checkCall(call, held)
		return true
	})
}

// checkCall applies the locked-region rules to one call.
func (ls *locksafeState) checkCall(call *ast.CallExpr, held map[string]heldLock) {
	info := ls.pass.Info
	locked := len(held) > 0
	key := anyKey(held)

	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		// Immediately-invoked literal: its body runs right here, under
		// whatever is held right here.
		ls.walkStmts(lit.Body.List, held)
	} else if locked && !isConversionOrBuiltin(info, call) {
		fn := calleeFunc(info, call)
		switch {
		case fn == nil:
			// A local variable bound once to a literal is as auditable as
			// the literal itself: analyze its body here instead.
			if lit := ls.knownClosure(call.Fun); lit != nil {
				ls.walkClosure(lit, held)
				break
			}
			ls.pass.Reportf(call.Pos(),
				"calls function value %s while %s is held; a visitor that re-enters the lock's owner deadlocks behind a queued writer (PR 2)",
				exprString(call.Fun), key)
		case fn.Signature().Recv() != nil && types.IsInterface(fn.Signature().Recv().Type()):
			// Interface dispatch is reported only under storage locks: see
			// the analyzer doc for why connection mutexes are exempt.
			if sk := storageKey(held); sk != "" {
				ls.pass.Reportf(call.Pos(),
					"calls interface method %s while %s is held; dynamic dispatch cannot be audited for reentrancy (storage lock discipline, PR 2)",
					exprString(call.Fun), sk)
			}
		case fn.Pkg() == ls.pass.Pkg && ls.mayLock[fn]:
			ls.pass.Reportf(call.Pos(),
				"calls %s, which acquires a lock, while %s is held; nested acquisition risks lock-order inversion", funcName(info, call), key)
		}
	}

	// Function-typed arguments: literals are analyzed as part of the
	// region (the callee may run them under our lock); opaque function
	// values are reported — their bodies cannot be audited from here.
	for _, arg := range call.Args {
		arg = ast.Unparen(arg)
		if lit, ok := arg.(*ast.FuncLit); ok {
			ls.walkStmts(lit.Body.List, held)
			continue
		}
		if !locked {
			continue
		}
		if tv, ok := info.Types[arg]; ok {
			if _, isSig := tv.Type.Underlying().(*types.Signature); isSig && !tv.IsNil() {
				if isConversionOrBuiltin(info, call) {
					continue
				}
				if lit := ls.knownClosure(arg); lit != nil {
					ls.walkClosure(lit, held)
					continue
				}
				ls.pass.Reportf(arg.Pos(),
					"passes function value %s to %s while %s is held; the callee may invoke it inside the locked region (PR 2)",
					exprString(arg), funcName(info, call), key)
			}
		}
	}
}

// storageKey picks the smallest held storage-lock key, or "" when no
// storage lock is held.
func storageKey(held map[string]heldLock) string {
	best := ""
	for k, h := range held {
		if h.storage && (best == "" || k < best) {
			best = k
		}
	}
	return best
}

// anyKey picks a held lock key for diagnostics (deterministically the
// smallest, so messages are stable).
func anyKey(held map[string]heldLock) string {
	best := ""
	for k := range held {
		if best == "" || k < best {
			best = k
		}
	}
	return best
}
