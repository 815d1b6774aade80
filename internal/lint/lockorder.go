// Lockorder is the inter-procedural generalization of locksafe: instead
// of policing call shapes inside one function's lock region, it builds a
// whole-program lock-acquisition graph and reports
//
//   - lock-order cycles: somewhere lock A is held while B is acquired and
//     somewhere else B is held while A is acquired — two goroutines on
//     those paths deadlock;
//   - re-acquisition of a held mutex (sync.Mutex does not recurse);
//   - blocking while holding a lock: a channel send/receive, select,
//     sync.WaitGroup/Cond.Wait or time.Sleep under any lock, and network
//     or file I/O under a lock owned by internal/storage, internal/server
//     or internal/server/client (the engine's shared-state layers and the
//     pipelined client, where one stalled syscall would stall every other
//     request sharing the lock).
//
// Effects propagate across function and package boundaries: each function
// exports a fact listing the lock classes it (transitively) acquires and
// the ways it can block, and each package exports its slice of the
// acquisition graph. Interface method calls resolve through the CHA call
// graph, so "storage calls an iterator callback that locks the catalog"
// is visible even though no direct call exists. A lock class is the
// declaring field or variable ("repro/internal/storage.Table.mu"), not an
// instance: two different Tables share a class, which is exactly the
// granularity a static order needs. Same-class self-edges are only
// reported when one function re-locks the same expression — two-instance
// locking of one class has no static order to check.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

var Lockorder = &Analyzer{
	Name: "lockorder",
	Doc: "build the whole-program lock-acquisition graph and report lock-order " +
		"cycles, re-locked mutexes, and blocking operations (channel, Wait, " +
		"storage/server-owned I/O) performed while a lock is held",
	Match: func(string) bool { return true },
	Run:   runLockorder,
}

// lockBlock is one way a function can block, classified for the held-lock
// rules: "chan" and "wait" are reportable under any lock, "io" only under
// storage/server-owned locks.
type lockBlock struct {
	Kind string `json:"kind"`
	Desc string `json:"desc"`
}

// lockOrderFact is the exported per-function effect summary.
type lockOrderFact struct {
	Acquires []string    `json:"acquires,omitempty"`
	Blocks   []lockBlock `json:"blocks,omitempty"`
}

// lockEdge records "From was held while To was acquired" with the source
// position (rendered, so it survives serialization) that observed it.
type lockEdge struct {
	From string `json:"from"`
	To   string `json:"to"`
	At   string `json:"at"`
}

// lockGraphFact is the per-package slice of the acquisition graph,
// exported under the "graph:<pkgpath>" key.
type lockGraphFact struct {
	Edges []lockEdge `json:"edges,omitempty"`
}

type lockOrderState struct {
	pass     *Pass
	cg       *CallGraph
	decls    map[*types.Func]*ast.FuncDecl
	sums     map[*types.Func]*lockOrderFact
	visiting map[*types.Func]bool
	edges    []lockEdge
	edgePos  map[string]token.Pos // "from\x00to" -> first observing position
	reported map[token.Pos]bool   // blocking-under-lock positions already diagnosed
}

func runLockorder(pass *Pass) error {
	lo := &lockOrderState{
		pass:     pass,
		cg:       NewCallGraph(&Package{Fset: pass.Fset, Files: pass.Files, Types: pass.Pkg, Info: pass.Info}),
		decls:    map[*types.Func]*ast.FuncDecl{},
		sums:     map[*types.Func]*lockOrderFact{},
		visiting: map[*types.Func]bool{},
		edgePos:  map[string]token.Pos{},
		reported: map[token.Pos]bool{},
	}
	var order []*types.Func
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				lo.decls[fn] = fd
				order = append(order, fn)
			}
		}
	}
	for _, fn := range order {
		lo.summarize(fn)
	}

	// Export the per-function effect facts and this package's graph slice.
	for _, fn := range order {
		sum := lo.sums[fn]
		if sum != nil && (len(sum.Acquires) > 0 || len(sum.Blocks) > 0) {
			pass.Export(ObjectKey(fn), sum)
		}
	}
	if len(lo.edges) > 0 {
		pass.Export("graph:"+basePkgPath(pass.Pkg.Path()), &lockGraphFact{Edges: lo.edges})
	}

	lo.reportCycles()
	return nil
}

// reportCycles checks every locally observed edge against the accumulated
// whole-program graph (imported package slices plus local edges): if the
// target already reaches the source, this acquisition closes a cycle.
func (lo *lockOrderState) reportCycles() {
	adj := map[string][]lockEdge{}
	add := func(es []lockEdge) {
		for _, e := range es {
			adj[e.From] = append(adj[e.From], e)
		}
	}
	for _, key := range lo.pass.Facts.Keys(lo.pass.Analyzer.Name) {
		if !strings.HasPrefix(key, "graph:") || key == "graph:"+basePkgPath(lo.pass.Pkg.Path()) {
			continue
		}
		var g lockGraphFact
		if lo.pass.Import(key, &g) {
			add(g.Edges)
		}
	}
	add(lo.edges)

	for _, e := range lo.edges {
		path := lockPath(adj, e.To, e.From)
		if path == nil {
			continue
		}
		pos, ok := lo.edgePos[e.From+"\x00"+e.To]
		if !ok {
			continue
		}
		var hops []string
		for _, pe := range path {
			hops = append(hops, fmt.Sprintf("%s -> %s (%s)", pe.From, pe.To, pe.At))
		}
		lo.pass.Reportf(pos, "acquiring %s while holding %s closes a lock-order cycle: %s",
			e.To, e.From, strings.Join(hops, ", "))
	}
}

// lockPath finds a path from -> to in the edge graph, returning its edges.
func lockPath(adj map[string][]lockEdge, from, to string) []lockEdge {
	type node struct {
		name string
		via  []lockEdge
	}
	seen := map[string]bool{from: true}
	queue := []node{{name: from}}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range adj[n.name] {
			if seen[e.To] {
				continue
			}
			path := append(append([]lockEdge{}, n.via...), e)
			if e.To == to {
				return path
			}
			seen[e.To] = true
			queue = append(queue, node{name: e.To, via: path})
		}
	}
	return nil
}

// summarize computes (once) the effect summary of a function declared in
// this package, walking its body and emitting diagnostics along the way.
// Recursion cycles are cut with an empty partial summary.
func (lo *lockOrderState) summarize(fn *types.Func) *lockOrderFact {
	if s, ok := lo.sums[fn]; ok {
		return s
	}
	decl := lo.decls[fn]
	if decl == nil || lo.visiting[fn] {
		return &lockOrderFact{}
	}
	lo.visiting[fn] = true
	w := &lockWalker{lo: lo, sum: &lockOrderFact{}}
	w.walkStmts(decl.Body.List, nil)
	lo.visiting[fn] = false
	sort.Strings(w.sum.Acquires)
	lo.sums[fn] = w.sum
	return w.sum
}

// heldEntry is one lock on the walker's held stack.
type heldEntry struct {
	class string // declaring-site class, "" when unclassifiable
	owner string // declaring package path, "" when unclassifiable
	expr  string // receiver expression text, for release matching
	pos   token.Pos
}

type lockWalker struct {
	lo   *lockOrderState
	sum  *lockOrderFact
	held []heldEntry
}

func (w *lockWalker) fork() []heldEntry {
	return append([]heldEntry{}, w.held...)
}

func (w *lockWalker) walkStmts(stmts []ast.Stmt, held []heldEntry) {
	if held != nil {
		w.held = held
	}
	for _, s := range stmts {
		w.walkStmt(s)
	}
}

func (w *lockWalker) walkStmt(s ast.Stmt) {
	info := w.lo.pass.Info
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.scanExpr(s.X)
	case *ast.SendStmt:
		w.scanExpr(s.Chan)
		w.scanExpr(s.Value)
		w.block(lockBlock{Kind: "chan", Desc: "channel send"}, s.Arrow)
	case *ast.DeferStmt:
		// A deferred unlock keeps the region open to function end, which
		// the walker models by simply never popping the entry. Other
		// deferred work runs after every unlock in this frame.
		if op, ok := mutexOp(info, s.Call); ok && op.release {
			return
		}
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			for _, inner := range collectCalls(lit.Body) {
				if op, ok := mutexOp(info, inner); ok && op.release {
					return
				}
			}
			w.walkLitFresh(lit)
			return
		}
		saved := w.held
		w.held = nil
		w.scanExpr(s.Call)
		w.held = saved
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.scanExpr(e)
		}
		for _, e := range s.Lhs {
			w.scanExpr(e)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.scanExpr(e)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		w.scanExpr(s.Cond)
		saved := w.fork()
		w.walkStmts(s.Body.List, w.fork())
		if s.Else != nil {
			w.held = w.fork()
			w.walkStmt(s.Else)
		}
		w.held = saved
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		if s.Cond != nil {
			w.scanExpr(s.Cond)
		}
		saved := w.fork()
		w.walkStmts(s.Body.List, w.fork())
		if s.Post != nil {
			w.walkStmt(s.Post)
		}
		w.held = saved
	case *ast.RangeStmt:
		w.scanExpr(s.X)
		if tv, ok := info.Types[s.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				w.block(lockBlock{Kind: "chan", Desc: "range over channel"}, s.For)
			}
		}
		saved := w.fork()
		w.walkStmts(s.Body.List, w.fork())
		w.held = saved
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.walkStmt(s.Init)
		}
		if s.Tag != nil {
			w.scanExpr(s.Tag)
		}
		saved := w.fork()
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					w.scanExpr(e)
				}
				w.walkStmts(cc.Body, w.fork())
			}
		}
		w.held = saved
	case *ast.TypeSwitchStmt:
		saved := w.fork()
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.walkStmts(cc.Body, w.fork())
			}
		}
		w.held = saved
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			w.block(lockBlock{Kind: "chan", Desc: "select"}, s.Select)
		}
		saved := w.fork()
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			// The comm operations themselves are subsumed by the select
			// classification; walk only the case bodies.
			w.walkStmts(cc.Body, w.fork())
		}
		w.held = saved
	case *ast.BlockStmt:
		saved := w.fork()
		w.walkStmts(s.List, w.fork())
		w.held = saved
	case *ast.LabeledStmt:
		w.walkStmt(s.Stmt)
	case *ast.GoStmt:
		// The goroutine body runs on its own stack with nothing held, but
		// its lock operations still belong in the acquisition graph.
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			w.walkLitFresh(lit)
		}
		for _, arg := range s.Call.Args {
			w.scanExpr(arg)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.scanExpr(v)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		w.scanExpr(s.X)
	}
}

// walkLitFresh analyzes a function literal that runs outside the current
// lock region (goroutine bodies, escaping closures): nothing is held on
// entry, its effects don't join the enclosing summary, but its edges and
// diagnostics are real.
func (w *lockWalker) walkLitFresh(lit *ast.FuncLit) {
	inner := &lockWalker{lo: w.lo, sum: &lockOrderFact{}}
	inner.walkStmts(lit.Body.List, nil)
}

// scanExpr visits an expression, classifying mutex operations, blocking
// operations and calls. Function literals called in place run under the
// current held set; all others are walked fresh.
func (w *lockWalker) scanExpr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.walkLitFresh(n)
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.block(lockBlock{Kind: "chan", Desc: "channel receive"}, n.OpPos)
			}
		case *ast.CallExpr:
			if lit, ok := ast.Unparen(n.Fun).(*ast.FuncLit); ok {
				for _, arg := range n.Args {
					w.scanExpr(arg)
				}
				saved := w.fork()
				w.walkStmts(lit.Body.List, w.fork())
				w.held = saved
				return false
			}
			w.call(n)
		}
		return true
	})
}

// call handles one call expression: a mutex transition, a blocking stdlib
// call, or an effectful callee whose summary (local or imported fact)
// joins the current context.
func (w *lockWalker) call(call *ast.CallExpr) {
	info := w.lo.pass.Info
	if op, ok := mutexOp(info, call); ok {
		sel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		class, owner := lockClass(info, sel)
		if op.acquire {
			w.acquire(class, owner, exprString(sel.X), call.Pos())
		} else {
			w.release(class, exprString(sel.X))
		}
		return
	}

	fns, _ := w.lo.cg.Callees(call)
	for _, fn := range fns {
		if b, ok := blockingCall(fn); ok {
			w.block(b, call.Pos())
			continue
		}
		sum := w.calleeSummary(fn)
		if sum == nil {
			continue
		}
		for _, acq := range sum.Acquires {
			w.acquireViaCallee(acq, call.Pos(), fn)
		}
		for _, b := range sum.Blocks {
			w.block(lockBlock{Kind: b.Kind, Desc: b.Desc + " (via " + fn.Name() + ")"}, call.Pos())
		}
	}
}

// calleeSummary resolves a callee's effect summary: same-package functions
// summarize on demand, imported ones come from facts, everything else
// (unanalyzed stdlib) is effect-free.
func (w *lockWalker) calleeSummary(fn *types.Func) *lockOrderFact {
	if fn.Pkg() == w.lo.pass.Pkg {
		return w.lo.summarize(fn)
	}
	var f lockOrderFact
	if w.lo.pass.Import(ObjectKey(fn), &f) {
		return &f
	}
	return nil
}

// acquire pushes a lock and records order edges against everything held.
func (w *lockWalker) acquire(class, owner, expr string, pos token.Pos) {
	for _, h := range w.held {
		if h.class == "" || class == "" {
			continue
		}
		if h.class == class {
			if h.expr == expr {
				w.lo.pass.Reportf(pos, "%s is locked while already held (acquired at %s); sync mutexes do not recurse",
					expr, w.lo.pass.Fset.Position(h.pos))
			}
			continue
		}
		w.edge(h.class, class, pos)
	}
	if class != "" {
		w.sum.Acquires = appendUnique(w.sum.Acquires, class)
	}
	w.held = append(w.held, heldEntry{class: class, owner: owner, expr: expr, pos: pos})
}

// acquireViaCallee records edges for a lock class a callee acquires while
// the caller holds locks. Same-class edges are skipped: across a call
// boundary the instances are usually distinct and carry no static order.
func (w *lockWalker) acquireViaCallee(class string, pos token.Pos, fn *types.Func) {
	for _, h := range w.held {
		if h.class == "" || class == "" || h.class == class {
			continue
		}
		w.edge(h.class, class, pos)
	}
	w.sum.Acquires = appendUnique(w.sum.Acquires, class)
}

func (w *lockWalker) release(class, expr string) {
	for i := len(w.held) - 1; i >= 0; i-- {
		if w.held[i].expr == expr || (class != "" && w.held[i].class == class) {
			w.held = append(w.held[:i], w.held[i+1:]...)
			return
		}
	}
}

// edge records a lock-order edge the first time it is observed.
func (w *lockWalker) edge(from, to string, pos token.Pos) {
	key := from + "\x00" + to
	if _, ok := w.lo.edgePos[key]; ok {
		return
	}
	w.lo.edgePos[key] = pos
	w.lo.edges = append(w.lo.edges, lockEdge{From: from, To: to, At: w.lo.pass.Fset.Position(pos).String()})
}

// block records a blocking operation in the summary and reports it when a
// lock is held: chan/wait operations under any lock, I/O only under
// storage/server-owned locks.
func (w *lockWalker) block(b lockBlock, pos token.Pos) {
	seen := false
	for _, have := range w.sum.Blocks {
		if have == b {
			seen = true
			break
		}
	}
	if !seen {
		w.sum.Blocks = append(w.sum.Blocks, b)
	}
	if w.lo.reported[pos] {
		return
	}
	for _, h := range w.held {
		if h.class == "" {
			continue
		}
		if b.Kind == "io" && !ioSensitiveOwner(h.owner) {
			continue
		}
		w.lo.reported[pos] = true
		w.lo.pass.Reportf(pos, "%s while holding %s (acquired at %s); a blocked holder stalls every user of the lock",
			b.Desc, h.class, w.lo.pass.Fset.Position(h.pos))
		return
	}
}

// ioSensitiveOwner reports whether a lock's declaring package is one whose
// locks must never be held across I/O.
func ioSensitiveOwner(owner string) bool {
	return hasPathSuffix(owner, "internal/storage") || hasPathSuffix(owner, "internal/server") ||
		hasPathSuffix(owner, "internal/server/client")
}

// lockClass names the lock behind a mu.Lock() selector by its declaring
// site: "pkg.Type.field" for mutex fields (including embedded mutexes),
// "pkg.var" for package-level mutexes, "" for locals and unresolvable
// shapes. owner is the declaring package path.
func lockClass(info *types.Info, callSel *ast.SelectorExpr) (class, owner string) {
	classify := func(obj types.Object, recv types.Type) (string, string) {
		if obj == nil || obj.Pkg() == nil {
			return "", ""
		}
		if v, ok := obj.(*types.Var); ok {
			if v.IsField() {
				if n := namedType(recv); n != nil {
					return FieldKey(n, v), basePkgPath(obj.Pkg().Path())
				}
				return "", ""
			}
			if v.Parent() == v.Pkg().Scope() {
				return ObjectKey(v), basePkgPath(obj.Pkg().Path())
			}
		}
		return "", ""
	}

	if sel, ok := info.Selections[callSel]; ok && len(sel.Index()) > 1 {
		// Embedded mutex: t.Lock() — the lock is the embedded field.
		if st, ok := sel.Recv().Underlying().(*types.Struct); ok {
			return classify(st.Field(sel.Index()[0]), sel.Recv())
		}
	}
	switch x := ast.Unparen(callSel.X).(type) {
	case *ast.SelectorExpr: // t.mu.Lock()
		if s, ok := info.Selections[x]; ok {
			return classify(s.Obj(), s.Recv())
		}
		return classify(info.Uses[x.Sel], nil)
	case *ast.Ident: // mu.Lock() on a package-level or local mutex
		return classify(info.Uses[x], nil)
	}
	return "", ""
}

// blockingCall classifies stdlib calls that can block: synchronization
// waits, sleeps, and the network/file I/O entry points the engine uses.
func blockingCall(fn *types.Func) (lockBlock, bool) {
	if fn == nil || fn.Pkg() == nil {
		return lockBlock{}, false
	}
	name := fn.Name()
	var recvName string
	if recv := fn.Signature().Recv(); recv != nil {
		if n := namedType(recv.Type()); n != nil {
			recvName = n.Obj().Name()
		}
	}
	switch fn.Pkg().Path() {
	case "sync":
		if name == "Wait" && (recvName == "WaitGroup" || recvName == "Cond") {
			return lockBlock{Kind: "wait", Desc: "sync." + recvName + ".Wait"}, true
		}
	case "time":
		if recvName == "" && name == "Sleep" {
			return lockBlock{Kind: "wait", Desc: "time.Sleep"}, true
		}
	case "net":
		switch recvName {
		case "Conn", "TCPConn", "UDPConn", "UnixConn", "IPConn", "PacketConn",
			"Listener", "TCPListener", "UnixListener", "Dialer", "Resolver":
			return lockBlock{Kind: "io", Desc: "net." + recvName + "." + name}, true
		}
		if recvName == "" {
			switch name {
			case "Dial", "DialTimeout", "Listen", "ListenPacket":
				return lockBlock{Kind: "io", Desc: "net." + name}, true
			}
		}
	case "os":
		if recvName == "File" {
			switch name {
			case "Read", "ReadAt", "ReadFrom", "Write", "WriteAt", "WriteString",
				"Sync", "Close", "Seek", "Truncate":
				return lockBlock{Kind: "io", Desc: "os.File." + name}, true
			}
		}
		if recvName == "" {
			switch name {
			case "ReadFile", "WriteFile", "Open", "OpenFile", "Create", "Remove",
				"RemoveAll", "Rename", "Stat", "Mkdir", "MkdirAll":
				return lockBlock{Kind: "io", Desc: "os." + name}, true
			}
		}
	case "bufio":
		switch recvName {
		case "Reader", "Writer", "ReadWriter", "Scanner":
			switch name {
			case "Read", "ReadByte", "ReadBytes", "ReadString", "ReadSlice",
				"ReadRune", "ReadLine", "Peek", "Discard", "Write", "WriteByte",
				"WriteString", "WriteRune", "Flush", "ReadFrom", "WriteTo", "Scan":
				return lockBlock{Kind: "io", Desc: "bufio." + recvName + "." + name}, true
			}
		}
	}
	return lockBlock{}, false
}

// appendUnique appends s if absent.
func appendUnique(list []string, s string) []string {
	for _, have := range list {
		if have == s {
			return list
		}
	}
	return append(list, s)
}
