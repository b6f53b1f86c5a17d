package lint

// This file implements the abstract interpreter at the heart of the
// interprocedural dataflow engine (see engine.go). It propagates *home
// values* — who a memsim variable is homed at — from allocation sites
// (Machine.NewVar* / NewArray* / NewPerProcArray / NewDict* /
// NewProcDictIn, and the objects and slices memsim.Slab hands out)
// through struct fields, slices, dictionaries, closures, and helper
// calls, to every Proc.Await watch argument reachable from an
// algorithm's entry and exit sections.
//
// The value lattice is small and purpose-built. Besides constants and
// the usual "unknown", it tracks the congruence facts the paper's
// algorithms actually rely on:
//
//   - vSelf       — p.ID() of the (symbolic) awaiting process
//   - vN          — Machine.NumProcs()
//   - vZeroModN   — a multiple of N        (unknown · N)
//   - vSelfModN   — ≡ p.ID() (mod N)       (multiple-of-N + self)
//
// with the reductions  unknown*N → ZeroModN,  ZeroModN+Self → SelfModN,
// SelfModN%N → Self.  That chain is exactly what proves the two-process
// mutex local: its spin cells are keyed by enc(p, round) = round·N + p
// in a dictionary homed by k ↦ k mod N.
//
// Branches are pruned when decidable: the engine analyzes one memory
// model at a time, so `m.Model() == memsim.DSM` is a constant;
// definite-nil / definite-non-nil comparisons fold (which resolves the
// "sites are nil on CC" pattern of T0/T/barrier); and the ok of a
// comma-ok map read, a memsim.Keyed Get or a memsim.LazyVar Get
// evaluates false, pruning memo-cache hit paths — sound for
// lazily-allocated families, where the cached value is abstractly
// identical to a freshly constructed one. Everything else executes
// both arms speculatively, with assignments joining instead of
// overwriting.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// vKind enumerates the abstract value kinds.
type vKind int

const (
	vUnknown  vKind = iota
	vConst          // integer or boolean constant (value.c)
	vN              // Machine.NumProcs()
	vSelf           // Proc.ID() of the analyzed process
	vSelfModN       // ≡ p.ID() (mod N)
	vZeroModN       // ≡ 0 (mod N)
	vLoopIdx        // induction variable of one loop (value.obj)
	vNil            // untyped nil / zero pointer
	vMapOk          // ok of a comma-ok map read, Keyed.Get or LazyVar.Get (assumed false)
	vProc           // the *memsim.Proc under analysis
	vMachine        // the *memsim.Machine
	vModelVal       // result of Machine.Model() / Proc.Model()
	vVar            // a memsim.Var (value.home)
	vSlice          // slice or array box (value.sl)
	vDict           // *memsim.Dict box (value.dc)
	vStruct         // struct box (value.st)
	vFunc           // function value (value.fn)
	vTuple          // multi-value (value.tup)
)

// value is one point of the abstract domain. Values are immutable
// except through the mutable boxes they point at (absSlice, absStruct).
type value struct {
	kind     vKind
	c        int64        // vConst
	obj      types.Object // vLoopIdx: the induction variable
	home     *value       // vVar: the abstract home
	sl       *absSlice    // vSlice
	dc       *absDict     // vDict
	st       *absStruct   // vStruct
	fn       *absFunc     // vFunc
	tup      []*value     // vTuple
	maybeNil bool         // joined with nil somewhere
}

// absSlice is a mutable slice/array box.
type absSlice struct {
	// elem joins everything ever stored (nil until a first store).
	elem *value
	// perIdx: element i is a memsim.Var homed at process i (set by
	// NewPerProcArray and by the `s[i] = m.NewVar(_, i, _)` loop
	// pattern). Indexing with vSelf then yields a self-homed Var.
	perIdx bool
	// lenN: the slice has exactly NumProcs elements, so len(s) is vN.
	lenN bool
}

// absDict is a *memsim.Dict box.
type absDict struct {
	modN    bool   // NewProcDictIn: home(key) = key mod N
	uniform *value // NewDict, NewDictIn: constant home
}

// absStruct is a mutable struct box; pointer-to-struct and struct are
// deliberately not distinguished.
type absStruct struct {
	typ    *types.Named
	fields map[string]*value
	// many: the box is a slice's element, standing for every element
	// at once, so a store to one of its fields is a weak update (a
	// join): x[i].f = v, or p.f = v through p := &x[i], leaves the
	// other elements' f as they were.
	many bool
}

// absFunc is a function value: a declared function/method, a closure
// literal with its defining environment, or a bound method value.
type absFunc struct {
	fn   *types.Func  // declared function or method (nil for literals)
	lit  *ast.FuncLit // closure literal
	env  *frame       // defining environment of the literal
	pkg  *Package     // package whose Info covers the body
	recv *value       // bound receiver (method values)
}

func unknown() *value        { return &value{kind: vUnknown} }
func konst(c int64) *value   { return &value{kind: vConst, c: c} }
func selfVal() *value        { return &value{kind: vSelf} }
func nVal() *value           { return &value{kind: vN} }
func nilVal() *value         { return &value{kind: vNil, maybeNil: true} }
func varVal(h *value) *value { return &value{kind: vVar, home: h} }

// definitelyNonNil reports whether v cannot be nil.
func (v *value) definitelyNonNil() bool {
	if v.maybeNil {
		return false
	}
	switch v.kind {
	case vStruct, vSlice, vDict, vFunc, vProc, vMachine:
		return true
	}
	return false
}

// frame is one lexical environment; lookups and rebinding assignments
// walk the outer chain, which is how closures observe (and mutate)
// captured variables.
type frame struct {
	vars  map[types.Object]*value
	outer *frame
}

func newFrame(outer *frame) *frame {
	return &frame{vars: make(map[types.Object]*value), outer: outer}
}

func (f *frame) lookup(obj types.Object) (*value, bool) {
	for fr := f; fr != nil; fr = fr.outer {
		if v, ok := fr.vars[obj]; ok {
			return v, true
		}
	}
	return nil, false
}

// define binds obj in this frame (a declaration).
func (f *frame) define(obj types.Object, v *value) { f.vars[obj] = v }

// assign rebinds obj in the frame that declared it; spec assignments
// join with the previous value instead of replacing it.
func (f *frame) assign(obj types.Object, v *value, spec bool) {
	for fr := f; fr != nil; fr = fr.outer {
		if old, ok := fr.vars[obj]; ok {
			if spec {
				fr.vars[obj] = join(old, v)
			} else {
				fr.vars[obj] = v
			}
			return
		}
	}
	f.vars[obj] = v
}

// SpinSite is one Await watch argument reachable from an algorithm's
// entry or exit section, with the engine's locality verdict.
type SpinSite struct {
	// Pos locates the Await call.
	Pos token.Position
	// Expr renders the watched expression at the call site.
	Expr string
	// Home describes the watched variable's abstract home.
	Home string
	// Local reports whether the home is provably the awaiting process.
	Local bool
	// Chain renders the call path from the entry/exit section.
	Chain string
}

// interp is one abstract execution (one constructor + entry/exit run
// of one algorithm under one memory model).
type interp struct {
	e    *Engine
	fuel int
	// stack holds the active calls, for recursion cutting and for the
	// diagnostic call chain.
	stack []*types.Func
	// sites accumulates Await watch verdicts, deduplicated.
	sites map[string]SpinSite
	// complete stays true while nothing forced the analysis to give
	// up (fuel, recursion, an unresolvable watch argument).
	complete bool
	// branches records, per if statement executed, the set of truth
	// values (1<<tri) its condition folded to.
	branches map[*ast.IfStmt]uint8
	// abortFree is set for an algorithm with no AcquireAbortable entry
	// section: no abort request ever reaches it, so Proc.AbortRequested
	// folds false and Proc.AwaitAbortable never reports an abort.
	abortFree bool
}

const (
	maxFuel  = 400000
	maxDepth = 48
	maxJoin  = 12
)

func newInterp(e *Engine) *interp {
	return &interp{e: e, fuel: maxFuel, sites: make(map[string]SpinSite), complete: true,
		branches: make(map[*ast.IfStmt]uint8)}
}

// spend consumes one unit of fuel; exhaustion makes the run incomplete.
func (in *interp) spend() bool {
	if in.fuel <= 0 {
		in.complete = false
		return false
	}
	in.fuel--
	return true
}

// callCtx carries the per-function-invocation state.
type callCtx struct {
	in  *interp
	pkg *Package
	// ret joins every returned value (nil until a return executes).
	ret    *value
	retSet bool
}

// ---------------------------------------------------------------------------
// Join

// join computes the least upper bound of two values.
func join(a, b *value) *value { return joinDepth(a, b, 0) }

func joinDepth(a, b *value, depth int) *value {
	if a == b {
		return a
	}
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if depth > maxJoin {
		return unknown()
	}
	if a.kind == vNil {
		return withMaybeNil(b)
	}
	if b.kind == vNil {
		return withMaybeNil(a)
	}
	if a.kind != b.kind {
		return unknown()
	}
	mn := a.maybeNil || b.maybeNil
	switch a.kind {
	case vConst:
		if a.c == b.c {
			return a
		}
		return unknown()
	case vLoopIdx:
		if a.obj == b.obj {
			return a
		}
		return unknown()
	case vVar:
		return &value{kind: vVar, home: joinDepth(a.home, b.home, depth+1), maybeNil: mn}
	case vSlice:
		if a.sl == b.sl {
			return &value{kind: vSlice, sl: a.sl, maybeNil: mn}
		}
		return &value{kind: vSlice, sl: &absSlice{
			elem:   joinDepth(a.sl.elem, b.sl.elem, depth+1),
			perIdx: a.sl.perIdx && b.sl.perIdx,
			lenN:   a.sl.lenN && b.sl.lenN,
		}, maybeNil: mn}
	case vDict:
		if a.dc == b.dc {
			return &value{kind: vDict, dc: a.dc, maybeNil: mn}
		}
		if a.dc.modN && b.dc.modN {
			return &value{kind: vDict, dc: &absDict{modN: true}, maybeNil: mn}
		}
		if a.dc.uniform != nil && b.dc.uniform != nil {
			return &value{kind: vDict, dc: &absDict{uniform: joinDepth(a.dc.uniform, b.dc.uniform, depth+1)}, maybeNil: mn}
		}
		return &value{kind: vDict, dc: &absDict{}, maybeNil: mn}
	case vStruct:
		if a.st == b.st {
			return &value{kind: vStruct, st: a.st, maybeNil: mn}
		}
		merged := &absStruct{typ: a.st.typ, fields: make(map[string]*value), many: a.st.many || b.st.many}
		for name, av := range a.st.fields {
			merged.fields[name] = joinDepth(av, b.st.fields[name], depth+1)
		}
		for name, bv := range b.st.fields {
			if _, ok := a.st.fields[name]; !ok {
				merged.fields[name] = bv
			}
		}
		return &value{kind: vStruct, st: merged, maybeNil: mn}
	case vFunc:
		if a.fn == b.fn || (a.fn.lit != nil && a.fn.lit == b.fn.lit) ||
			(a.fn.fn != nil && a.fn.fn == b.fn.fn && a.fn.recv == b.fn.recv) {
			return a
		}
		return unknown()
	case vTuple:
		if len(a.tup) != len(b.tup) {
			return unknown()
		}
		tup := make([]*value, len(a.tup))
		for i := range tup {
			tup[i] = joinDepth(a.tup[i], b.tup[i], depth+1)
		}
		return &value{kind: vTuple, tup: tup}
	default:
		// Kind-only values (vSelf, vN, vUnknown, vProc, ...).
		if mn && !a.maybeNil {
			return withMaybeNil(a)
		}
		return a
	}
}

func withMaybeNil(v *value) *value {
	if v.maybeNil {
		return v
	}
	c := *v
	c.maybeNil = true
	return &c
}

// ---------------------------------------------------------------------------
// Three-valued truth

type tri int

const (
	tUnknown tri = iota
	tTrue
	tFalse
)

func (t tri) negate() tri {
	switch t {
	case tTrue:
		return tFalse
	case tFalse:
		return tTrue
	}
	return tUnknown
}

// truth evaluates a boolean condition three-valued, folding nil
// comparisons, model comparisons, constants, and comma-ok markers.
func (cc *callCtx) truth(fr *frame, e ast.Expr, spec bool) tri {
	e = ast.Unparen(e)
	switch ex := e.(type) {
	case *ast.UnaryExpr:
		if ex.Op == token.NOT {
			return cc.truth(fr, ex.X, spec).negate()
		}
	case *ast.BinaryExpr:
		switch ex.Op {
		case token.LAND:
			l := cc.truth(fr, ex.X, spec)
			if l == tFalse {
				return tFalse
			}
			r := cc.truth(fr, ex.Y, spec)
			if r == tFalse {
				return tFalse
			}
			if l == tTrue && r == tTrue {
				return tTrue
			}
			return tUnknown
		case token.LOR:
			l := cc.truth(fr, ex.X, spec)
			if l == tTrue {
				return tTrue
			}
			r := cc.truth(fr, ex.Y, spec)
			if r == tTrue {
				return tTrue
			}
			if l == tFalse && r == tFalse {
				return tFalse
			}
			return tUnknown
		case token.EQL, token.NEQ:
			res := cc.compare(fr, ex.X, ex.Y, spec)
			if ex.Op == token.NEQ {
				res = res.negate()
			}
			return res
		case token.LSS, token.LEQ, token.GTR, token.GEQ:
			x := cc.eval(fr, ex.X, spec)
			y := cc.eval(fr, ex.Y, spec)
			if x.kind == vConst && y.kind == vConst {
				switch ex.Op {
				case token.LSS:
					return boolTri(x.c < y.c)
				case token.LEQ:
					return boolTri(x.c <= y.c)
				case token.GTR:
					return boolTri(x.c > y.c)
				case token.GEQ:
					return boolTri(x.c >= y.c)
				}
			}
			return tUnknown
		}
	}
	switch v := cc.eval(fr, e, spec); v.kind {
	case vConst:
		return boolTri(v.c != 0)
	case vMapOk:
		return tFalse
	}
	return tUnknown
}

func boolTri(b bool) tri {
	if b {
		return tTrue
	}
	return tFalse
}

// compare folds an == comparison three-valued.
func (cc *callCtx) compare(fr *frame, xe, ye ast.Expr, spec bool) tri {
	x := cc.eval(fr, xe, spec)
	y := cc.eval(fr, ye, spec)
	// nil comparisons: definite nil vs definite non-nil fold.
	if x.kind == vNil || y.kind == vNil {
		other := x
		if x.kind == vNil {
			other = y
		}
		if x.kind == vNil && y.kind == vNil {
			return tTrue
		}
		if other.definitelyNonNil() {
			return tFalse
		}
		return tUnknown
	}
	// Model comparisons: the engine analyzes one model at a time, so
	// Model() against a model constant is decidable.
	if x.kind == vModelVal && y.kind == vConst {
		return boolTri(y.c == cc.in.e.modelConst)
	}
	if y.kind == vModelVal && x.kind == vConst {
		return boolTri(x.c == cc.in.e.modelConst)
	}
	if x.kind == vConst && y.kind == vConst {
		return boolTri(x.c == y.c)
	}
	if x.kind == vMapOk || y.kind == vMapOk {
		// ok == true/false folds through the vConst case above via
		// truth(); a direct comparison stays unknown.
		return tUnknown
	}
	return tUnknown
}

// ---------------------------------------------------------------------------
// Expression evaluation

// eval computes the abstract value of an expression.
func (cc *callCtx) eval(fr *frame, e ast.Expr, spec bool) *value {
	if !cc.in.spend() {
		return unknown()
	}
	e = ast.Unparen(e)
	info := cc.pkg.Info

	// Constants fold first: package-level consts (memsim.HomeGlobal,
	// memsim.DSM, phi.Bottom, …), literals, and constant expressions.
	if tv, ok := info.Types[e]; ok && tv.Value != nil {
		if c, exact := constInt64(tv); exact {
			return konst(c)
		}
		return unknown()
	}

	switch ex := e.(type) {
	case *ast.Ident:
		if ex.Name == "nil" {
			return nilVal()
		}
		obj := info.ObjectOf(ex)
		if obj == nil {
			return unknown()
		}
		if v, ok := fr.lookup(obj); ok {
			return v
		}
		if fn, ok := obj.(*types.Func); ok {
			return &value{kind: vFunc, fn: &absFunc{fn: fn, pkg: cc.pkg}}
		}
		return unknown()

	case *ast.SelectorExpr:
		if sel, ok := info.Selections[ex]; ok {
			recv := cc.eval(fr, ex.X, spec)
			switch sel.Kind() {
			case types.FieldVal:
				return fieldOf(recv, sel.Obj().Name(), sel.Obj().Type())
			case types.MethodVal:
				if fn, ok := sel.Obj().(*types.Func); ok {
					return &value{kind: vFunc, fn: &absFunc{fn: fn, recv: recv, pkg: cc.pkg}}
				}
			}
			return unknown()
		}
		// Package-qualified identifier.
		obj := info.ObjectOf(ex.Sel)
		if fn, ok := obj.(*types.Func); ok {
			return &value{kind: vFunc, fn: &absFunc{fn: fn, pkg: cc.pkg}}
		}
		return unknown()

	case *ast.CallExpr:
		return cc.evalCall(fr, ex, spec)

	case *ast.IndexExpr:
		base := cc.eval(fr, ex.X, spec)
		idx := cc.eval(fr, ex.Index, spec)
		return indexValue(cc.pkg, base, idx, ex.X)

	case *ast.CompositeLit:
		return cc.evalComposite(fr, ex, spec)

	case *ast.UnaryExpr:
		switch ex.Op {
		case token.AND:
			return cc.eval(fr, ex.X, spec)
		case token.SUB:
			if v := cc.eval(fr, ex.X, spec); v.kind == vConst {
				return konst(-v.c)
			}
		case token.NOT:
			switch cc.truth(fr, ex.X, spec) {
			case tTrue:
				return konst(0)
			case tFalse:
				return konst(1)
			}
		}
		return unknown()

	case *ast.StarExpr:
		return cc.eval(fr, ex.X, spec)

	case *ast.BinaryExpr:
		return cc.evalBinary(fr, ex, spec)

	case *ast.FuncLit:
		return &value{kind: vFunc, fn: &absFunc{lit: ex, env: fr, pkg: cc.pkg}}

	case *ast.SliceExpr:
		base := cc.eval(fr, ex.X, spec)
		if base.kind == vSlice {
			return &value{kind: vSlice, sl: &absSlice{elem: base.sl.elem, perIdx: base.sl.perIdx}}
		}
		return unknown()

	case *ast.TypeAssertExpr:
		return unknown()
	}
	return unknown()
}

// constInt64 extracts an exact integer (or bool as 0/1) from a
// constant type-and-value.
func constInt64(tv types.TypeAndValue) (int64, bool) {
	v := tv.Value
	switch v.Kind().String() {
	case "Bool":
		if v.String() == "true" {
			return 1, true
		}
		return 0, true
	}
	if c, err := intConstVal(v.ExactString()); err == nil {
		return c, true
	}
	return 0, false
}

func intConstVal(s string) (int64, error) {
	var c int64
	_, err := fmt.Sscanf(s, "%d", &c)
	return c, err
}

// fieldOf reads a struct field, defaulting unset fields to the
// abstract zero value of their type.
func fieldOf(recv *value, name string, typ types.Type) *value {
	if recv.kind != vStruct {
		return unknown()
	}
	if v, ok := recv.st.fields[name]; ok {
		return v
	}
	return zeroValue(typ)
}

// zeroValue is the abstract zero value of a type.
func zeroValue(typ types.Type) *value {
	switch t := typ.Underlying().(type) {
	case *types.Basic:
		if t.Info()&(types.IsInteger|types.IsBoolean) != 0 {
			return konst(0)
		}
		return unknown()
	case *types.Pointer, *types.Slice, *types.Map, *types.Signature, *types.Chan, *types.Interface:
		return nilVal()
	}
	return unknown()
}

// indexValue applies the slice/dict/map indexing rules.
func indexValue(pkg *Package, base, idx *value, baseExpr ast.Expr) *value {
	// Map reads (single-valued form) are unknown; the comma-ok form is
	// handled in assignments.
	if tv, ok := pkg.Info.Types[baseExpr]; ok {
		if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
			return unknown()
		}
	}
	if base.kind != vSlice {
		return unknown()
	}
	if base.sl.perIdx {
		switch idx.kind {
		case vSelf:
			return varVal(selfVal())
		case vConst:
			return varVal(konst(idx.c))
		case vLoopIdx:
			return varVal(&value{kind: vLoopIdx, obj: idx.obj})
		default:
			return varVal(unknown())
		}
	}
	if base.sl.elem != nil {
		if base.sl.elem.kind == vStruct {
			base.sl.elem.st.many = true
		}
		return base.sl.elem
	}
	return unknown()
}

// evalComposite builds struct, array, and slice literals.
func (cc *callCtx) evalComposite(fr *frame, lit *ast.CompositeLit, spec bool) *value {
	tv, ok := cc.pkg.Info.Types[lit]
	if !ok {
		return unknown()
	}
	switch ut := tv.Type.Underlying().(type) {
	case *types.Struct:
		st := &absStruct{fields: make(map[string]*value)}
		if named, ok := tv.Type.(*types.Named); ok {
			st.typ = named
		}
		set := func(f *types.Var, v *value) {
			st.fields[f.Name()] = v
			// Promoted fields are read through the outer box by name,
			// so an embedded struct's fields are stored there too.
			if f.Embedded() && v.kind == vStruct {
				for name, fv := range v.st.fields {
					st.fields[name] = fv
				}
			}
		}
		for i, el := range lit.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				if key, ok := kv.Key.(*ast.Ident); ok {
					for j := range ut.NumFields() {
						if ut.Field(j).Name() == key.Name {
							set(ut.Field(j), cc.eval(fr, kv.Value, spec))
						}
					}
				}
				continue
			}
			if i < ut.NumFields() {
				set(ut.Field(i), cc.eval(fr, el, spec))
			}
		}
		return &value{kind: vStruct, st: st}
	case *types.Array, *types.Slice:
		sl := &absSlice{}
		for _, el := range lit.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			sl.elem = join(sl.elem, cc.eval(fr, el, spec))
		}
		return &value{kind: vSlice, sl: sl}
	}
	return unknown()
}

// evalBinary applies constant folding plus the modular-congruence
// rules that prove enc(p, round) = round·N + p lands in p's residue
// class.
func (cc *callCtx) evalBinary(fr *frame, ex *ast.BinaryExpr, spec bool) *value {
	switch ex.Op {
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ, token.LAND, token.LOR:
		switch cc.truth(fr, ex, spec) {
		case tTrue:
			return konst(1)
		case tFalse:
			return konst(0)
		}
		return unknown()
	}
	x := cc.eval(fr, ex.X, spec)
	y := cc.eval(fr, ex.Y, spec)
	if x.kind == vConst && y.kind == vConst {
		switch ex.Op {
		case token.ADD:
			return konst(x.c + y.c)
		case token.SUB:
			return konst(x.c - y.c)
		case token.MUL:
			return konst(x.c * y.c)
		case token.QUO:
			if y.c != 0 {
				return konst(x.c / y.c)
			}
		case token.REM:
			if y.c != 0 {
				return konst(x.c % y.c)
			}
		case token.SHL:
			return konst(x.c << uint(y.c))
		case token.SHR:
			return konst(x.c >> uint(y.c))
		case token.OR:
			return konst(x.c | y.c)
		case token.AND:
			return konst(x.c & y.c)
		}
		return unknown()
	}
	switch ex.Op {
	case token.MUL:
		// anything · N  ≡ 0 (mod N); 0 · x = 0.
		if x.kind == vN || y.kind == vN || x.kind == vZeroModN || y.kind == vZeroModN {
			if (x.kind == vConst && x.c == 0) || (y.kind == vConst && y.c == 0) {
				return konst(0)
			}
			return &value{kind: vZeroModN}
		}
	case token.ADD:
		return addCongruence(x, y)
	case token.REM:
		if y.kind == vN {
			switch x.kind {
			case vSelf, vSelfModN:
				// p.ID() < N, so (kN + p) mod N = p.
				return selfVal()
			case vZeroModN, vN:
				return konst(0)
			}
		}
	}
	return unknown()
}

// addCongruence tracks residue classes mod N under addition.
func addCongruence(x, y *value) *value {
	// Adding zero preserves everything interesting.
	if x.kind == vConst && x.c == 0 {
		return y
	}
	if y.kind == vConst && y.c == 0 {
		return x
	}
	pair := func(a, b vKind) bool {
		return (x.kind == a && y.kind == b) || (x.kind == b && y.kind == a)
	}
	switch {
	case pair(vZeroModN, vSelf), pair(vZeroModN, vSelfModN):
		return &value{kind: vSelfModN}
	case pair(vZeroModN, vZeroModN), pair(vZeroModN, vN), x.kind == vN && y.kind == vN:
		return &value{kind: vZeroModN}
	}
	return unknown()
}

// ---------------------------------------------------------------------------
// Calls

// evalCall dispatches a call expression: conversions, builtins, memsim
// natives, declared module functions, closures, and bound methods.
func (cc *callCtx) evalCall(fr *frame, call *ast.CallExpr, spec bool) *value {
	info := cc.pkg.Info

	// Type conversions are transparent: Word(x), int(x), … preserve
	// the abstract value (congruence classes survive integer widening
	// in this domain).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return cc.eval(fr, call.Args[0], spec)
		}
		return unknown()
	}

	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := info.ObjectOf(id).(*types.Builtin); isBuiltin {
			return cc.evalBuiltin(fr, id.Name, call, spec)
		}
	}

	// Resolve the static callee, if any.
	var callee *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		callee, _ = info.ObjectOf(fun.Sel).(*types.Func)
	case *ast.Ident:
		callee, _ = info.ObjectOf(fun).(*types.Func)
	}

	// memsim natives take priority: the simulated machine is modeled,
	// not interpreted.
	if callee != nil && callee.Type().(*types.Signature).Recv() != nil {
		recvType := callee.Type().(*types.Signature).Recv().Type()
		if name, ok := memsimNative(recvType, callee.Name()); ok {
			sel := call.Fun.(*ast.SelectorExpr)
			recv := cc.eval(fr, sel.X, spec)
			return cc.callNative(fr, name, recv, call, spec)
		}
	}

	// Declared module function or method.
	if callee != nil {
		if fd, ok := cc.in.e.decls[callee]; ok {
			var recv *value
			if callee.Type().(*types.Signature).Recv() != nil {
				sel := call.Fun.(*ast.SelectorExpr)
				recv = cc.eval(fr, sel.X, spec)
			}
			args := cc.evalArgs(fr, call.Args, spec)
			return cc.in.invoke(fd, callee, recv, args, spec)
		}
	}

	// Function-typed values: closures and bound method values.
	fv := cc.eval(fr, call.Fun, spec)
	if fv.kind == vFunc {
		args := cc.evalArgs(fr, call.Args, spec)
		return cc.in.callValue(fv.fn, args, spec)
	}

	// Unknown callee (stdlib, interface method): evaluate arguments
	// for completeness, return unknowns of the right arity.
	cc.evalArgs(fr, call.Args, spec)
	if tv, ok := info.Types[call]; ok {
		if tuple, ok := tv.Type.(*types.Tuple); ok {
			tup := make([]*value, tuple.Len())
			for i := range tup {
				tup[i] = unknown()
			}
			return &value{kind: vTuple, tup: tup}
		}
	}
	return unknown()
}

func (cc *callCtx) evalArgs(fr *frame, args []ast.Expr, spec bool) []*value {
	out := make([]*value, len(args))
	for i, a := range args {
		out[i] = cc.eval(fr, a, spec)
	}
	return out
}

// evalBuiltin models the handful of builtins the algorithms use.
func (cc *callCtx) evalBuiltin(fr *frame, name string, call *ast.CallExpr, spec bool) *value {
	switch name {
	case "len", "cap":
		if len(call.Args) == 1 {
			if v := cc.eval(fr, call.Args[0], spec); v.kind == vSlice && v.sl.lenN {
				return nVal()
			}
		}
		return unknown()
	case "make":
		tv, ok := cc.pkg.Info.Types[call.Args[0]]
		if !ok {
			return unknown()
		}
		switch tv.Type.Underlying().(type) {
		case *types.Slice:
			sl := &absSlice{}
			if len(call.Args) >= 2 {
				if n := cc.eval(fr, call.Args[1], spec); n.kind == vN {
					sl.lenN = true
				}
			}
			return &value{kind: vSlice, sl: sl}
		}
		return unknown()
	case "append":
		if len(call.Args) == 0 {
			return unknown()
		}
		base := cc.eval(fr, call.Args[0], spec)
		sl := &absSlice{}
		if base.kind == vSlice {
			sl.elem, sl.perIdx = base.sl.elem, base.sl.perIdx
		}
		for _, a := range call.Args[1:] {
			sl.elem = join(sl.elem, cc.eval(fr, a, spec))
		}
		return &value{kind: vSlice, sl: sl}
	case "new":
		if tv, ok := cc.pkg.Info.Types[call.Args[0]]; ok {
			return newBox(tv.Type)
		}
		return unknown()
	default:
		cc.evalArgs(fr, call.Args, spec)
		return unknown()
	}
}

// newBox is a fresh struct box for a value of type t, or unknown when t
// is not a struct.
func newBox(t types.Type) *value {
	if _, isStruct := t.Underlying().(*types.Struct); !isStruct {
		return unknown()
	}
	st := &absStruct{fields: make(map[string]*value)}
	if named, ok := t.(*types.Named); ok {
		st.typ = named
	}
	return &value{kind: vStruct, st: st}
}

// memsimNative reports whether recvType is a memsim type with modeled
// methods, returning a dispatch key "Type.Method".
func memsimNative(recvType types.Type, method string) (string, bool) {
	for _, tn := range [...]string{"Machine", "Proc", "Dict", "Var", "Slab", "Keyed", "LazyVar"} {
		if isMemsimType(recvType, tn) {
			return tn + "." + method, true
		}
	}
	return "", false
}

// callNative models one memsim method call.
func (cc *callCtx) callNative(fr *frame, key string, recv *value, call *ast.CallExpr, spec bool) *value {
	arg := func(i int) *value {
		if i < len(call.Args) {
			return cc.eval(fr, call.Args[i], spec)
		}
		return unknown()
	}
	switch key {
	case "Machine.NumProcs", "Proc.NumProcs":
		return nVal()
	case "Machine.Model", "Proc.Model":
		return &value{kind: vModelVal}
	case "Proc.ID":
		return selfVal()
	case "Proc.Machine":
		return &value{kind: vMachine}
	case "Machine.NewVar":
		return varVal(normHome(arg(1)))
	case "Machine.NewVarIn":
		return varVal(normHome(arg(2)))
	case "Machine.NewArray":
		return varArray(arg(1), arg(2))
	case "Machine.NewArrayIn": // its arguments follow the prefix
		return varArray(arg(2), arg(3))
	case "Machine.NewPerProcArray":
		return &value{kind: vSlice, sl: &absSlice{perIdx: true, lenN: true}}
	case "Machine.NewDict":
		return &value{kind: vDict, dc: &absDict{uniform: normHome(arg(1))}}
	case "Machine.NewDictIn":
		return &value{kind: vDict, dc: &absDict{uniform: normHome(arg(2))}}
	case "Machine.NewProcDictIn":
		return &value{kind: vDict, dc: &absDict{modN: true}}
	case "Dict.At", "Dict.New":
		return dictHome(recv, arg(0))
	case "Slab.New":
		// A zero object from machine storage: a fresh box, like new(T).
		if ptr, ok := cc.pkg.Info.TypeOf(call).(*types.Pointer); ok {
			return newBox(ptr.Elem())
		}
		return unknown()
	case "Slab.Make":
		return &value{kind: vSlice, sl: &absSlice{lenN: arg(1).kind == vN}}
	case "Keyed.Get", "LazyVar.Get":
		// Like a comma-ok map read: the miss path builds the value.
		arg(0)
		return &value{kind: vTuple, tup: []*value{unknown(), {kind: vMapOk}}}
	case "Proc.Await", "Proc.AwaitAbortable":
		for i, a := range call.Args[1:] {
			cc.recordAwait(call, a, cc.eval(fr, call.Args[i+1], spec))
		}
		if key == "Proc.AwaitAbortable" && cc.in.abortFree {
			return konst(0)
		}
		return unknown()
	case "Proc.AbortRequested":
		if cc.in.abortFree {
			return konst(0)
		}
		return unknown()
	case "Proc.AwaitEq", "Proc.AwaitTrue", "Proc.AwaitNonBottom":
		if len(call.Args) >= 1 {
			cc.recordAwait(call, call.Args[0], arg(0))
		}
		return unknown()
	default:
		// Read/Write/RMW/FetchPhi/Value/EnterCS/… have no effect on
		// the home domain; their arguments still evaluate.
		cc.evalArgs(fr, call.Args, spec)
		return unknown()
	}
}

// varArray is the slice NewArray returns: n variables with one home.
func varArray(n, home *value) *value {
	return &value{kind: vSlice, sl: &absSlice{elem: varVal(normHome(home)), lenN: n.kind == vN}}
}

// normHome normalizes a value used as a NewVar/NewArray home argument.
// Only values provably equal to the spinning process's id stay self;
// vSelfModN is NOT accepted here (p mod N as a raw home could collide
// with HomeGlobal arithmetic), only through a mod-N dictionary.
func normHome(v *value) *value {
	switch v.kind {
	case vSelf, vConst, vLoopIdx:
		return v
	}
	return unknown()
}

// dictHome resolves Dict.At(key) and Dict.New(key) to a Var with the
// abstract home of the addressed cell. For a key mod N family, a key
// ≡ p (mod N) — a process id, or the round-stamped round·N + p of the
// two-process mutex — is homed at p.
func dictHome(dict, key *value) *value {
	if dict.kind != vDict {
		return varVal(unknown())
	}
	switch {
	case dict.dc.modN:
		switch key.kind {
		case vSelf, vSelfModN:
			return varVal(selfVal())
		case vConst:
			return varVal(konst(key.c))
		}
		return varVal(unknown())
	case dict.dc.uniform != nil:
		return varVal(normHome(dict.dc.uniform))
	}
	return varVal(unknown())
}

// recordAwait classifies one Await watch argument.
func (cc *callCtx) recordAwait(call *ast.CallExpr, argExpr ast.Expr, watched *value) {
	pos := cc.pkg.Fset.Position(call.Lparen)
	var home string
	local := false
	switch {
	case watched.kind != vVar:
		home = "unresolved (not provably a tracked memsim.Var)"
		cc.in.complete = false
	default:
		switch h := watched.home; h.kind {
		case vSelf:
			home, local = "the awaiting process", true
		case vConst:
			if h.c < 0 {
				home = "global memory (HomeGlobal)"
			} else {
				home = fmt.Sprintf("process %d (fixed)", h.c)
			}
		case vSelfModN:
			home = "p mod N (not provably p)"
		case vLoopIdx:
			home = "a loop index (not provably the awaiting process)"
		default:
			home = "unresolved"
		}
	}
	site := SpinSite{
		Pos:   pos,
		Expr:  types.ExprString(argExpr),
		Home:  home,
		Local: local,
		Chain: cc.in.chain(),
	}
	key := fmt.Sprintf("%s:%d:%d|%s|%s", pos.Filename, pos.Line, pos.Column, site.Expr, home)
	if _, ok := cc.in.sites[key]; !ok {
		cc.in.sites[key] = site
	}
}

// chain renders the active call stack for diagnostics.
func (in *interp) chain() string {
	parts := make([]string, 0, len(in.stack))
	for _, fn := range in.stack {
		name := fn.Name()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				name = named.Obj().Name() + "." + name
			}
		}
		parts = append(parts, name)
	}
	return strings.Join(parts, " → ")
}

// invoke interprets a declared function or method.
func (in *interp) invoke(fd *funcDecl, fn *types.Func, recv *value, args []*value, spec bool) *value {
	for _, active := range in.stack {
		if active == fn {
			// Recursion: cut the cycle. Awaits below the cut would be
			// missed, so the run is no longer complete.
			in.complete = false
			return unknown()
		}
	}
	if len(in.stack) >= maxDepth || !in.spend() {
		in.complete = false
		return unknown()
	}
	in.stack = append(in.stack, fn)
	defer func() { in.stack = in.stack[:len(in.stack)-1] }()

	fr := newFrame(nil)
	decl := fd.decl
	if decl.Recv != nil && len(decl.Recv.List) == 1 && len(decl.Recv.List[0].Names) == 1 {
		if obj := fd.pkg.Info.ObjectOf(decl.Recv.List[0].Names[0]); obj != nil {
			if recv == nil {
				recv = unknown()
			}
			fr.define(obj, recv)
		}
	}
	bindParams(fd.pkg, fr, decl.Type, args)
	cc := &callCtx{in: in, pkg: fd.pkg}
	cc.execBlock(fr, decl.Body, spec)
	if !cc.retSet {
		return unknown()
	}
	return cc.ret
}

// callValue interprets a function value: a closure literal (in its
// defining environment) or a bound method.
func (in *interp) callValue(fn *absFunc, args []*value, spec bool) *value {
	switch {
	case fn.lit != nil:
		if len(in.stack) >= maxDepth || !in.spend() {
			in.complete = false
			return unknown()
		}
		fr := newFrame(fn.env)
		bindParams(fn.pkg, fr, fn.lit.Type, args)
		cc := &callCtx{in: in, pkg: fn.pkg}
		cc.execBlock(fr, fn.lit.Body, spec)
		if !cc.retSet {
			return unknown()
		}
		return cc.ret
	case fn.fn != nil:
		if fd, ok := in.e.decls[fn.fn]; ok {
			return in.invoke(fd, fn.fn, fn.recv, args, spec)
		}
	}
	return unknown()
}

// bindParams binds a parameter list to abstract arguments, spreading
// variadic tails into a slice.
func bindParams(pkg *Package, fr *frame, ft *ast.FuncType, args []*value) {
	i := 0
	for _, field := range ft.Params.List {
		_, variadic := field.Type.(*ast.Ellipsis)
		names := field.Names
		if len(names) == 0 {
			// Unnamed parameter still consumes an argument slot.
			if !variadic {
				i++
			}
			continue
		}
		for _, name := range names {
			obj := pkg.Info.ObjectOf(name)
			var v *value
			switch {
			case variadic:
				sl := &absSlice{}
				for ; i < len(args); i++ {
					sl.elem = join(sl.elem, args[i])
				}
				v = &value{kind: vSlice, sl: sl}
			case i < len(args):
				v = args[i]
				i++
			default:
				v = unknown()
			}
			if obj != nil {
				fr.define(obj, v)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Statement execution

// execBlock executes a block in a child frame; it reports whether the
// block definitely terminated the function (return/panic on every
// path actually taken).
func (cc *callCtx) execBlock(fr *frame, block *ast.BlockStmt, spec bool) bool {
	if block == nil {
		return false
	}
	inner := newFrame(fr)
	for _, stmt := range block.List {
		if cc.execStmt(inner, stmt, spec) {
			return true
		}
	}
	return false
}

// execStmt executes one statement; true means control definitely left
// the enclosing function (or loop — callers treat both as "stop").
func (cc *callCtx) execStmt(fr *frame, stmt ast.Stmt, spec bool) bool {
	if !cc.in.spend() {
		return false
	}
	switch st := stmt.(type) {
	case *ast.AssignStmt:
		cc.execAssign(fr, st, spec)
	case *ast.DeclStmt:
		cc.execDecl(fr, st, spec)
	case *ast.IncDecStmt:
		cc.assignTo(fr, st.X, unknown(), spec)
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				if _, isBuiltin := cc.pkg.Info.ObjectOf(id).(*types.Builtin); isBuiltin {
					return true
				}
			}
		}
		cc.eval(fr, st.X, spec)
	case *ast.ReturnStmt:
		cc.execReturn(fr, st, spec)
		return true
	case *ast.IfStmt:
		return cc.execIf(fr, st, spec)
	case *ast.ForStmt:
		cc.execFor(fr, st, spec)
	case *ast.RangeStmt:
		cc.execRange(fr, st, spec)
	case *ast.BlockStmt:
		return cc.execBlock(fr, st, spec)
	case *ast.SwitchStmt:
		cc.execSwitch(fr, st, spec)
	case *ast.TypeSwitchStmt:
		inner := newFrame(fr)
		if st.Init != nil {
			cc.execStmt(inner, st.Init, spec)
		}
		for _, clause := range st.Body.List {
			if c, ok := clause.(*ast.CaseClause); ok {
				body := newFrame(inner)
				for _, s := range c.Body {
					if cc.execStmt(body, s, true) {
						break
					}
				}
			}
		}
	case *ast.BranchStmt:
		// break/continue/goto: stop executing this block. The loop
		// driver already runs bodies speculatively, so dropping the
		// tail is the conservative choice.
		return true
	case *ast.LabeledStmt:
		return cc.execStmt(fr, st.Stmt, spec)
	case *ast.DeferStmt:
		// Approximate: run the deferred call at its site,
		// speculatively (it really runs at every exit).
		cc.eval(fr, st.Call, true)
	case *ast.GoStmt:
		cc.eval(fr, st.Call, true)
	}
	return false
}

func (cc *callCtx) execDecl(fr *frame, st *ast.DeclStmt, spec bool) {
	gen, ok := st.Decl.(*ast.GenDecl)
	if !ok || gen.Tok != token.VAR {
		return
	}
	for _, s := range gen.Specs {
		vs, ok := s.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, name := range vs.Names {
			obj := cc.pkg.Info.ObjectOf(name)
			if obj == nil {
				continue
			}
			var v *value
			switch {
			case i < len(vs.Values):
				v = cc.eval(fr, vs.Values[i], spec)
			case obj.Type() != nil:
				v = zeroValue(obj.Type())
			default:
				v = unknown()
			}
			fr.define(obj, v)
		}
	}
}

func (cc *callCtx) execReturn(fr *frame, st *ast.ReturnStmt, spec bool) {
	var v *value
	switch len(st.Results) {
	case 0:
		v = unknown()
	case 1:
		v = cc.eval(fr, st.Results[0], spec)
	default:
		tup := make([]*value, len(st.Results))
		for i, r := range st.Results {
			tup[i] = cc.eval(fr, r, spec)
		}
		v = &value{kind: vTuple, tup: tup}
	}
	if cc.retSet {
		cc.ret = join(cc.ret, v)
	} else {
		cc.ret, cc.retSet = v, true
	}
}

func (cc *callCtx) execIf(fr *frame, st *ast.IfStmt, spec bool) bool {
	inner := newFrame(fr)
	if st.Init != nil {
		cc.execStmt(inner, st.Init, spec)
	}
	t := cc.truth(inner, st.Cond, spec)
	cc.in.branches[st] |= 1 << t
	switch t {
	case tTrue:
		return cc.execBlock(inner, st.Body, spec)
	case tFalse:
		if st.Else != nil {
			return cc.execStmt(newFrame(inner), st.Else, spec)
		}
		return false
	default:
		// Undecidable: execute both arms speculatively. The function
		// terminates here only if both arms do.
		t1 := cc.execBlock(inner, st.Body, true)
		t2 := false
		if st.Else != nil {
			t2 = cc.execStmt(newFrame(inner), st.Else, true)
		}
		return t1 && t2
	}
}

// execFor runs a loop body twice, speculatively, which reaches the
// small lattice's fixpoint for the patterns in this repository
// (loop-carried joins stabilize after one extra pass). The init
// statement binds simple `i := <const>` induction variables to a
// vLoopIdx marker so allocation loops can be recognized.
func (cc *callCtx) execFor(fr *frame, st *ast.ForStmt, spec bool) {
	inner := newFrame(fr)
	if st.Init != nil {
		cc.execStmt(inner, st.Init, spec)
		if as, ok := st.Init.(*ast.AssignStmt); ok && as.Tok == token.DEFINE && len(as.Lhs) == 1 {
			if id, ok := as.Lhs[0].(*ast.Ident); ok {
				if obj := cc.pkg.Info.ObjectOf(id); obj != nil {
					if v, ok := inner.lookup(obj); ok && v.kind == vConst {
						inner.assign(obj, &value{kind: vLoopIdx, obj: obj}, false)
					}
				}
			}
		}
	}
	for i := 0; i < 2; i++ {
		if st.Cond != nil && cc.truth(inner, st.Cond, true) == tFalse && i == 0 {
			// A constant-false loop never runs.
			return
		}
		cc.execBlock(inner, st.Body, true)
		if st.Post != nil {
			cc.execStmt(inner, st.Post, true)
		}
	}
}

func (cc *callCtx) execRange(fr *frame, st *ast.RangeStmt, spec bool) {
	inner := newFrame(fr)
	base := cc.eval(inner, st.X, spec)

	bind := func(e ast.Expr, v *value) types.Object {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			return nil
		}
		obj := cc.pkg.Info.ObjectOf(id)
		if obj == nil {
			return nil
		}
		if st.Tok == token.DEFINE {
			inner.define(obj, v)
		} else {
			inner.assign(obj, v, true)
		}
		return obj
	}

	var keyObj types.Object
	if st.Key != nil {
		keyObj = bind(st.Key, &value{kind: vLoopIdx, obj: cc.pkg.Info.ObjectOf(identOrNil(st.Key))})
		if keyObj != nil {
			// Rebind with the resolved object so stores through this
			// index are recognizable.
			inner.assign(keyObj, &value{kind: vLoopIdx, obj: keyObj}, false)
		}
	}
	if st.Value != nil {
		var ev *value
		switch {
		case base.kind == vSlice && base.sl.perIdx && keyObj != nil:
			ev = varVal(&value{kind: vLoopIdx, obj: keyObj})
		case base.kind == vSlice && base.sl.elem != nil:
			ev = base.sl.elem
		default:
			ev = unknown()
		}
		bind(st.Value, ev)
	}
	for i := 0; i < 2; i++ {
		cc.execBlock(inner, st.Body, true)
	}
}

func identOrNil(e ast.Expr) *ast.Ident {
	id, _ := e.(*ast.Ident)
	return id
}

func (cc *callCtx) execSwitch(fr *frame, st *ast.SwitchStmt, spec bool) {
	inner := newFrame(fr)
	if st.Init != nil {
		cc.execStmt(inner, st.Init, spec)
	}
	if st.Tag != nil {
		cc.eval(inner, st.Tag, spec)
	}
	for _, clause := range st.Body.List {
		c, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range c.List {
			cc.eval(inner, e, true)
		}
		body := newFrame(inner)
		for _, s := range c.Body {
			if cc.execStmt(body, s, true) {
				break
			}
		}
	}
}

// execAssign handles =, :=, op=, multi-assignment, tuple
// destructuring, and the comma-ok map read.
func (cc *callCtx) execAssign(fr *frame, st *ast.AssignStmt, spec bool) {
	// Comma-ok map read: v, ok := m[k]. The ok binds to vMapOk, which
	// truth() evaluates false — pruning memo-cache hit paths.
	if len(st.Lhs) == 2 && len(st.Rhs) == 1 {
		if idx, ok := ast.Unparen(st.Rhs[0]).(*ast.IndexExpr); ok {
			if tv, ok := cc.pkg.Info.Types[idx.X]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					cc.eval(fr, idx.Index, spec)
					cc.assignTo(fr, st.Lhs[0], unknown(), spec)
					cc.assignTo(fr, st.Lhs[1], &value{kind: vMapOk}, spec)
					return
				}
			}
		}
	}

	if st.Tok != token.ASSIGN && st.Tok != token.DEFINE {
		// op= : the result participates in no congruence we track.
		if len(st.Lhs) == 1 && len(st.Rhs) == 1 {
			cc.eval(fr, st.Rhs[0], spec)
			cc.assignTo(fr, st.Lhs[0], unknown(), spec)
		}
		return
	}

	var vals []*value
	if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
		rhs := cc.eval(fr, st.Rhs[0], spec)
		vals = make([]*value, len(st.Lhs))
		for i := range vals {
			if rhs.kind == vTuple && i < len(rhs.tup) {
				vals[i] = rhs.tup[i]
			} else {
				vals[i] = unknown()
			}
		}
	} else {
		vals = make([]*value, len(st.Lhs))
		for i := range st.Lhs {
			if i < len(st.Rhs) {
				vals[i] = cc.eval(fr, st.Rhs[i], spec)
			} else {
				vals[i] = unknown()
			}
		}
	}
	for i, lhs := range st.Lhs {
		if st.Tok == token.DEFINE {
			if id, ok := lhs.(*ast.Ident); ok {
				if id.Name == "_" {
					continue
				}
				if obj, isDef := cc.pkg.Info.Defs[id]; isDef && obj != nil {
					fr.define(obj, vals[i])
					continue
				}
			}
		}
		cc.assignTo(fr, lhs, vals[i], spec)
	}
}

// assignTo writes a value through an lvalue expression.
func (cc *callCtx) assignTo(fr *frame, lhs ast.Expr, v *value, spec bool) {
	switch target := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if target.Name == "_" {
			return
		}
		if obj := cc.pkg.Info.ObjectOf(target); obj != nil {
			fr.assign(obj, v, spec)
		}
	case *ast.SelectorExpr:
		recv := cc.eval(fr, target.X, spec)
		if recv.kind == vStruct {
			name := target.Sel.Name
			if spec || recv.st.many {
				old, ok := recv.st.fields[name]
				if !ok {
					if sel, selOk := cc.pkg.Info.Selections[target]; selOk {
						old = zeroValue(sel.Obj().Type())
					}
				}
				_ = ok
				recv.st.fields[name] = join(old, v)
			} else {
				recv.st.fields[name] = v
			}
		}
	case *ast.IndexExpr:
		base := cc.eval(fr, target.X, spec)
		idx := cc.eval(fr, target.Index, spec)
		if base.kind == vSlice {
			// Recognize the per-index allocation pattern:
			//   for i … { s[i] = m.NewVar(_, i, _) }
			if idx.kind == vLoopIdx && v.kind == vVar && v.home.kind == vLoopIdx && v.home.obj == idx.obj {
				base.sl.perIdx = true
			}
			base.sl.elem = join(base.sl.elem, v)
		}
		// Map stores carry no home information.
	case *ast.StarExpr:
		// Pointers are not distinguished from their referents: *p = v
		// for a struct box p stores v's fields into it (a constructor
		// filling an object from memsim.Slab with a literal); a store
		// through an unknown pointer is dropped.
		dst := cc.eval(fr, target.X, spec)
		if dst.kind != vStruct || v.kind != vStruct || dst.st == v.st {
			return
		}
		for name, f := range v.st.fields {
			if old, ok := dst.st.fields[name]; ok && (spec || dst.st.many) {
				f = join(old, f)
			}
			dst.st.fields[name] = f
		}
	}
}
