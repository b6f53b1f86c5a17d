package lint

// rmrbound statically bounds the shared-memory operations an
// algorithm performs per entry/exit passage, outside Await busy-waits
// (Awaits count once: the final, observed read — the spinning itself
// is localspin's concern). The walk follows the same call graph as
// the dataflow engine, syntactically:
//
//   - each Proc.Read/Write/RMW/FetchPhi call site costs 1, each
//     Proc.Await* costs 1 with its condition closure excluded;
//   - function-literal arguments are charged once at the call site
//     (the repo's wait/signal building blocks run each passed closure
//     exactly once per passage);
//   - constant-trip loops multiply their body cost; any other loop
//     transitively containing shared ops is *unbounded*;
//   - an if arm the dataflow engine proved dead for the algorithm —
//     its condition folded the same way on every construction path,
//     e.g. a definite-nil field — is not walked, nor are the
//     statements after an if whose live arms all return.
//
// Algorithms declaring //fetchphilint:rmr O(1) (G-CC and G-DSM, per
// the paper's Theorem 1) fail the build if any unbounded shared-op
// loop is reachable from their entry or exit sections; every
// algorithm's static bound is recorded in the lint artifact.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// RMRBound flags unbounded shared-op loops in O(1)-claimed algorithms.
var RMRBound = &ModuleAnalyzer{
	Name: "rmrbound",
	Doc: "statically bound shared-memory operations per entry/exit " +
		"passage outside Await busy-waits; algorithms declaring " +
		"//fetchphilint:rmr O(1) must have no reachable shared-op loop " +
		"without a constant trip count, and O(1) amortized declarations " +
		"(checked dynamically by the claims engine) must be abortable",
	Run: runRMRBound,
}

func runRMRBound(pass *ModulePass) {
	e := pass.Engine
	for _, d := range e.badDecls {
		if d.Analyzer == pass.Analyzer.Name {
			pass.report(d)
		}
	}
	for _, algo := range e.Algorithms() {
		if algo.RMRO1 == nil {
			continue
		}
		if algo.RMRO1.Amortized {
			// An amortized O(1) bound tolerates unbounded per-passage
			// loops (aborts prepay them); it is checked dynamically by
			// the claims engine, not statically. But it only means
			// anything on an abortable algorithm — on a plain lock
			// nothing amortizes, so the declaration is a dodge.
			if !algo.Abortable() {
				pass.report(Diagnostic{
					Pos: algo.RMRO1.Pos,
					Message: "amortized rmr declaration on " + algo.TypeKey +
						", which has no AcquireAbortable entry section; only abortable algorithms may claim an amortized bound",
				})
			}
			continue
		}
		sum := e.RMRSummaryOf(algo)
		for _, pos := range sum.Unbounded {
			pass.report(Diagnostic{
				Pos: pos,
				Message: "unbounded shared-op loop reachable from the entry/exit sections of " +
					algo.TypeKey + ", which declares //fetchphilint:rmr O(1)",
			})
		}
	}
}

// RMRSummary is the static shared-op accounting for one algorithm's
// entry plus exit section.
type RMRSummary struct {
	// Ops is the static upper bound on shared-memory operations per
	// passage, counting each unbounded loop's body once.
	Ops int
	// Unbounded locates loops (or recursive calls) with shared ops and
	// no static trip count.
	Unbounded []token.Position
}

// Bounded reports whether the per-passage shared-op count is a
// constant.
func (s RMRSummary) Bounded() bool { return len(s.Unbounded) == 0 }

// RMRSummaryOf computes the static shared-op bound for one algorithm.
func (e *Engine) RMRSummaryOf(a *AlgoInfo) RMRSummary {
	w := &rmrWalker{e: e, stack: make(map[*types.Func]bool), memo: make(map[*types.Func]int)}
	if rep := e.Analyze(a); rep.Complete {
		w.branches = rep.branches
	}
	ops := w.countFunc(a.Acquire, a.Pos) + w.countFunc(a.Release, a.Pos)
	return RMRSummary{Ops: ops, Unbounded: w.unbounded}
}

// rmrWalker accumulates shared-op counts over the call graph.
type rmrWalker struct {
	e         *Engine
	stack     map[*types.Func]bool
	memo      map[*types.Func]int
	unbounded []token.Position
	// branches is the engine's fold record for the algorithm; nil when
	// its analysis was incomplete, so nothing is pruned.
	branches map[*ast.IfStmt]uint8
}

func (w *rmrWalker) position(pkg *Package, pos token.Pos) token.Position {
	return pkg.Fset.Position(pos)
}

// countFunc counts the declared function's body, cutting recursion as
// unbounded at the call site.
func (w *rmrWalker) countFunc(fn *types.Func, callPos token.Pos) int {
	fd, ok := w.e.decls[fn]
	if !ok {
		// Unresolvable callee (interface method, stdlib): it has no
		// *memsim.Proc of its own, so it cannot perform shared ops.
		return 0
	}
	if ops, ok := w.memo[fn]; ok {
		return ops
	}
	if w.stack[fn] {
		w.unbounded = append(w.unbounded, w.position(fd.pkg, callPos))
		return 0
	}
	w.stack[fn] = true
	ops := w.countNode(fd.pkg, fd.decl.Body)
	delete(w.stack, fn)
	w.memo[fn] = ops
	return ops
}

// countNode counts shared ops in a syntax subtree.
func (w *rmrWalker) countNode(pkg *Package, n ast.Node) int {
	ops := 0
	w.inspect(pkg, n, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.CallExpr:
			ops += w.countCall(pkg, x)
			return false
		case *ast.ForStmt:
			ops += w.countFor(pkg, x)
			return false
		case *ast.RangeStmt:
			ops += w.countRange(pkg, x)
			return false
		case *ast.FuncLit:
			// A literal that is not a direct call argument may never
			// run; it is charged where it is invoked or passed.
			return false
		}
		return true
	})
	return ops
}

// inspect walks n as ast.Inspect does, but only where control can
// reach for the algorithm: it skips the body of a condition that
// always folded false, the else of one that always folded true, and
// the statements after one that never completes.
func (w *rmrWalker) inspect(pkg *Package, n ast.Node, f func(ast.Node) bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.IfStmt:
			var dead ast.Node
			switch w.branches[x] {
			case 1 << tFalse:
				dead = x.Body
			case 1 << tTrue:
				dead = x.Else
			}
			if dead == nil {
				return f(node)
			}
			for _, arm := range []ast.Node{x.Init, x.Cond, x.Body, x.Else} {
				if arm != dead {
					w.inspect(pkg, arm, f)
				}
			}
			return false
		case *ast.BlockStmt:
			for _, st := range x.List {
				w.inspect(pkg, st, f)
				if w.terminates(pkg, st) {
					break
				}
			}
			return false
		}
		return f(node)
	})
}

// terminates reports whether control never runs past st: a return, a
// panic, a block holding one, or an if statement whose live arms all
// terminate. An arm is live unless the dataflow engine folded the
// condition the other way on every construction path.
func (w *rmrWalker) terminates(pkg *Package, st ast.Stmt) bool {
	switch x := st.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		call, ok := x.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok || id.Name != "panic" {
			return false
		}
		_, builtin := pkg.Info.ObjectOf(id).(*types.Builtin)
		return builtin
	case *ast.BlockStmt:
		for _, s := range x.List {
			if w.terminates(pkg, s) {
				return true
			}
		}
	case *ast.IfStmt:
		body := w.terminates(pkg, x.Body)
		els := x.Else != nil && w.terminates(pkg, x.Else)
		switch w.branches[x] {
		case 1 << tTrue:
			return body
		case 1 << tFalse:
			return els
		}
		return body && els
	}
	return false
}

// countCall charges one call expression.
func (w *rmrWalker) countCall(pkg *Package, call *ast.CallExpr) int {
	if name, ok := procMethod(pkg.Info, call); ok {
		switch name {
		case "Read", "Write", "RMW", "FetchPhi":
			ops := 1
			for _, a := range call.Args {
				ops += w.argOps(pkg, a)
			}
			return ops
		case "Await", "AwaitAbortable", "AwaitEq", "AwaitTrue", "AwaitNonBottom":
			// One charged (remote) read observes the condition; the
			// spin reads before it are local by localspin's proof and
			// cost no RMRs, so the condition closure is excluded.
			return 1
		default:
			ops := 0
			for _, a := range call.Args {
				ops += w.argOps(pkg, a)
			}
			return ops
		}
	}
	var callee *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		callee, _ = pkg.Info.ObjectOf(fun.Sel).(*types.Func)
	case *ast.Ident:
		callee, _ = pkg.Info.ObjectOf(fun).(*types.Func)
	}
	ops := 0
	// Direct-argument closures are charged once at the call site: the
	// wait/signal building blocks (the Waits waits' conditions,
	// Waits.Signal's establish, Waits.Visit's body) each run their
	// closure at most once per passage. A closure handed to a declared
	// function that never reaches its parameter is not charged.
	for i, a := range call.Args {
		if _, lit := ast.Unparen(a).(*ast.FuncLit); lit && callee != nil && !w.paramReached(callee, i) {
			continue
		}
		ops += w.argOps(pkg, a)
	}
	ops += w.countNode(pkg, call.Fun)
	if callee != nil {
		ops += w.countFunc(callee, call.Lparen)
	}
	return ops
}

// paramReached reports whether the walk reaches a use of fn's i-th
// parameter in fn's body: a closure passed there may run. It is true
// for a function whose body is not in the module.
func (w *rmrWalker) paramReached(fn *types.Func, i int) bool {
	fd, ok := w.e.decls[fn]
	params := fn.Type().(*types.Signature).Params()
	if !ok || i >= params.Len() {
		return true
	}
	param := params.At(i)
	reached := false
	w.inspect(fd.pkg, fd.decl.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && fd.pkg.Info.Uses[id] == param {
			reached = true
		}
		return !reached
	})
	return reached
}

func (w *rmrWalker) argOps(pkg *Package, arg ast.Expr) int {
	if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
		return w.countNode(pkg, lit.Body)
	}
	return w.countNode(pkg, arg)
}

// countFor charges a for loop: constant-trip loops multiply, anything
// else containing shared ops is unbounded.
func (w *rmrWalker) countFor(pkg *Package, st *ast.ForStmt) int {
	body := w.countNode(pkg, st.Body)
	if st.Cond != nil {
		body += w.countNode(pkg, st.Cond)
	}
	if st.Post != nil {
		body += w.countNode(pkg, st.Post)
	}
	fixed := 0
	if st.Init != nil {
		fixed = w.countNode(pkg, st.Init)
	}
	if body == 0 {
		return fixed
	}
	if trip, ok := w.constTrip(pkg, st); ok {
		return fixed + trip*body
	}
	w.unbounded = append(w.unbounded, w.position(pkg, st.For))
	return fixed + body
}

// countRange charges a range loop; any shared op in the body makes it
// unbounded (the collection's size is not a static constant here).
func (w *rmrWalker) countRange(pkg *Package, st *ast.RangeStmt) int {
	xOps := w.countNode(pkg, st.X)
	body := w.countNode(pkg, st.Body)
	if body > 0 {
		w.unbounded = append(w.unbounded, w.position(pkg, st.For))
	}
	return xOps + body
}

// constTrip recognizes `for i := c0; i < c1; i++` (and the <=, >, >=
// and i-- variants) with constant bounds, returning the trip count.
func (w *rmrWalker) constTrip(pkg *Package, st *ast.ForStmt) (int, bool) {
	init, ok := st.Init.(*ast.AssignStmt)
	if !ok || init.Tok != token.DEFINE || len(init.Lhs) != 1 || len(init.Rhs) != 1 {
		return 0, false
	}
	iv, ok := init.Lhs[0].(*ast.Ident)
	if !ok {
		return 0, false
	}
	c0, ok := w.constVal(pkg, init.Rhs[0])
	if !ok {
		return 0, false
	}
	cond, ok := st.Cond.(*ast.BinaryExpr)
	if !ok {
		return 0, false
	}
	cv, ok := ast.Unparen(cond.X).(*ast.Ident)
	if !ok || cv.Name != iv.Name {
		return 0, false
	}
	c1, ok := w.constVal(pkg, cond.Y)
	if !ok {
		return 0, false
	}
	inc, ok := st.Post.(*ast.IncDecStmt)
	if !ok {
		return 0, false
	}
	pv, ok := inc.X.(*ast.Ident)
	if !ok || pv.Name != iv.Name {
		return 0, false
	}
	var trip int64
	switch {
	case inc.Tok == token.INC && cond.Op == token.LSS:
		trip = c1 - c0
	case inc.Tok == token.INC && cond.Op == token.LEQ:
		trip = c1 - c0 + 1
	case inc.Tok == token.DEC && cond.Op == token.GTR:
		trip = c0 - c1
	case inc.Tok == token.DEC && cond.Op == token.GEQ:
		trip = c0 - c1 + 1
	default:
		return 0, false
	}
	if trip < 0 {
		trip = 0
	}
	return int(trip), true
}

func (w *rmrWalker) constVal(pkg *Package, e ast.Expr) (int64, bool) {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	return constInt64(tv)
}
