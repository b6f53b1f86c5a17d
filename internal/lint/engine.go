package lint

// This file builds the interprocedural side of the lint suite: a
// module-wide view over a set of loaded packages (function
// declarations for the call graph, algorithm types discovered by
// method-set shape, locality/RMR declarations parsed from doc
// comments) and the driver that runs the abstract interpreter
// (interp.go) over each algorithm's constructors and entry/exit
// sections.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// funcDecl pairs a function declaration with the package whose type
// information covers its body.
type funcDecl struct {
	decl *ast.FuncDecl
	pkg  *Package
}

// Declaration is one parsed algorithm-level lint declaration
// (//fetchphilint:nonlocal or //fetchphilint:rmr O(1)).
type Declaration struct {
	// Pos locates the directive comment.
	Pos token.Position
	// Reason is the free-text justification following the keyword.
	Reason string
	// Amortized marks an rmr declaration qualified as amortized
	// (//fetchphilint:rmr O(1) amortized ...): the per-passage cost may
	// be unbounded as long as aborts prepay it, so the static loop
	// check does not apply — the claims engine verifies the amortized
	// bound dynamically instead.
	Amortized bool
}

// AlgoInfo is one discovered algorithm: a named type whose method set
// has the harness.Algorithm shape Acquire(*memsim.Proc) /
// Release(*memsim.Proc).
type AlgoInfo struct {
	// TypeKey identifies the type module-wide, e.g. "internal/core.GDSM".
	TypeKey string
	// Name is the bare type name.
	Name string
	// Pkg is the defining package.
	Pkg *Package
	// Obj is the type's object.
	Obj *types.TypeName
	// Pos locates the type declaration.
	Pos token.Pos
	// Acquire and Release are the entry/exit section methods.
	Acquire, Release *types.Func
	// Constructors are the package-level functions returning this type.
	Constructors []*types.Func
	// Nonlocal is the //fetchphilint:nonlocal declaration, if any.
	Nonlocal *Declaration
	// RMRO1 is the //fetchphilint:rmr O(1) declaration, if any.
	RMRO1 *Declaration
}

// SpinReport is the engine's verdict for one algorithm on one memory
// model.
type SpinReport struct {
	// Algo is the analyzed algorithm.
	Algo *AlgoInfo
	// Model names the analyzed memory model ("DSM").
	Model string
	// Sites are the Await watch arguments reachable from the entry and
	// exit sections, sorted by position.
	Sites []SpinSite
	// Complete reports whether the analysis covered every reachable
	// Await without giving up (fuel, recursion, unresolved callee or
	// watch argument). An incomplete report proves nothing.
	Complete bool
	// branches joins, over every construction path, the truth values
	// (1<<tri) each executed if condition folded to.
	branches map[*ast.IfStmt]uint8
}

// NonLocalSites returns the sites not proven local.
func (r *SpinReport) NonLocalSites() []SpinSite {
	var out []SpinSite
	for _, s := range r.Sites {
		if !s.Local {
			out = append(out, s)
		}
	}
	return out
}

// Local reports whether every reachable spin is proven local to the
// awaiting process — meaningful only when Complete.
func (r *SpinReport) Local() bool {
	return r.Complete && len(r.NonLocalSites()) == 0
}

// Engine holds the module-wide analysis state shared by the
// interprocedural analyzers.
type Engine struct {
	// Pkgs are the analyzed packages.
	Pkgs []*Package
	// Module is the module path prefix stripped from package paths when
	// forming TypeKeys (empty for testdata corpora).
	Module string

	decls map[*types.Func]*funcDecl
	algos []*AlgoInfo
	// badDecls are malformed nonlocal/rmr directives.
	badDecls []Diagnostic
	// strayDecls are nonlocal/rmr directives on types that are not
	// algorithms.
	strayDecls []Diagnostic

	// modelConst is the memsim model constant the engine analyzes
	// under; modelKnown is false when memsim is not in the import
	// graph (then model comparisons stay undecided).
	modelConst int64
	modelKnown bool
	modelName  string

	reports map[*AlgoInfo]*SpinReport
}

// NewEngine builds the module-wide state over the given packages. The
// engine analyzes under the DSM memory model: that is the model on
// which spin locality is observable (memsim counts non-local spin
// reads only on DSM), and the model the paper's home-allocation
// claims are about.
func NewEngine(module string, pkgs []*Package) *Engine {
	e := &Engine{
		Pkgs:      pkgs,
		Module:    module,
		decls:     make(map[*types.Func]*funcDecl),
		modelName: "DSM",
		reports:   make(map[*AlgoInfo]*SpinReport),
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				if obj, ok := pkg.Info.Defs[fn.Name].(*types.Func); ok {
					e.decls[obj] = &funcDecl{decl: fn, pkg: pkg}
				}
			}
		}
	}
	e.resolveModel()
	e.discoverAlgorithms()
	return e
}

// resolveModel finds the memsim.DSM constant through the import graph.
func (e *Engine) resolveModel() {
	seen := make(map[*types.Package]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		if p.Path() == memsimPath || strings.HasSuffix(p.Path(), "/"+memsimPath) {
			if c, ok := p.Scope().Lookup(e.modelName).(*types.Const); ok {
				if v, err := intConstVal(c.Val().ExactString()); err == nil {
					e.modelConst, e.modelKnown = v, true
				}
			}
			return
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range e.Pkgs {
		visit(pkg.Types)
	}
}

// typeKey renders a module-wide type identity like "internal/core.GDSM".
func (e *Engine) typeKey(pkg *Package, name string) string {
	path := pkg.Path
	if e.Module != "" {
		path = strings.TrimPrefix(strings.TrimPrefix(path, e.Module), "/")
		if path == "" {
			path = e.Module
		}
	}
	return path + "." + name
}

// discoverAlgorithms finds every named type whose method set matches
// the algorithm shape, its constructors, and its lint declarations.
func (e *Engine) discoverAlgorithms() {
	for _, pkg := range e.Pkgs {
		// Parse per-type declarations from type doc comments.
		typeDecls := make(map[string]*declInfo)
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					doc := ts.Doc
					if doc == nil {
						doc = gd.Doc
					}
					if doc == nil {
						continue
					}
					di := &declInfo{}
					for _, c := range doc.List {
						e.parseTypeDirective(pkg, c, ts.Name.Name, di)
					}
					if di.nonlocal != nil || di.rmrO1 != nil {
						typeDecls[ts.Name.Name] = di
					}
				}
			}
		}

		scope := pkg.Types.Scope()
		names := scope.Names()
		claimed := make(map[string]bool)
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			// Promoted entry sections count (GDSMAbortable embeds GDSM).
			var acquire, release *types.Func
			ms := types.NewMethodSet(types.NewPointer(named))
			for i := 0; i < ms.Len(); i++ {
				m, ok := ms.At(i).Obj().(*types.Func)
				if !ok {
					continue
				}
				switch m.Name() {
				case "Acquire":
					if isEntryMethod(m) {
						acquire = m
					}
				case "Release":
					if isEntryMethod(m) {
						release = m
					}
				}
			}
			if acquire == nil || release == nil {
				continue
			}
			claimed[name] = true
			info := &AlgoInfo{
				TypeKey: e.typeKey(pkg, name),
				Name:    name,
				Pkg:     pkg,
				Obj:     tn,
				Pos:     tn.Pos(),
				Acquire: acquire,
				Release: release,
			}
			if di, ok := typeDecls[name]; ok {
				info.Nonlocal, info.RMRO1 = di.nonlocal, di.rmrO1
			}
			// Constructors: package-level functions whose first result
			// is this type (or a pointer to it).
			for _, fname := range names {
				fn, ok := scope.Lookup(fname).(*types.Func)
				if !ok {
					continue
				}
				sig := fn.Type().(*types.Signature)
				if sig.Recv() != nil || sig.Results().Len() == 0 {
					continue
				}
				res := sig.Results().At(0).Type()
				if ptr, ok := res.(*types.Pointer); ok {
					res = ptr.Elem()
				}
				if resNamed, ok := res.(*types.Named); ok && resNamed.Obj() == tn {
					info.Constructors = append(info.Constructors, fn)
				}
			}
			e.algos = append(e.algos, info)
		}

		// Declarations on non-algorithm types are stray: they certify
		// nothing and would rot silently.
		for name, di := range typeDecls {
			if claimed[name] {
				continue
			}
			for _, d := range []*Declaration{di.nonlocal, di.rmrO1} {
				if d != nil {
					e.strayDecls = append(e.strayDecls, Diagnostic{
						Pos:      d.Pos,
						Analyzer: "localspin",
						Message:  fmt.Sprintf("lint declaration on %s, which is not an algorithm (no Acquire/Release entry sections)", name),
					})
				}
			}
		}
	}
	sort.Slice(e.algos, func(i, j int) bool { return e.algos[i].TypeKey < e.algos[j].TypeKey })
}

// declInfo collects the per-type lint declarations while parsing.
type declInfo struct {
	nonlocal *Declaration
	rmrO1    *Declaration
}

// parseTypeDirective parses one //fetchphilint:nonlocal or
// //fetchphilint:rmr comment line.
func (e *Engine) parseTypeDirective(pkg *Package, c *ast.Comment, typeName string, di *declInfo) {
	text := strings.TrimPrefix(c.Text, "//")
	pos := pkg.Fset.Position(c.Pos())
	switch {
	case strings.HasPrefix(text, nonlocalPrefix):
		reason := strings.TrimSpace(strings.TrimPrefix(text, nonlocalPrefix))
		if reason == "" {
			e.badDecls = append(e.badDecls, Diagnostic{
				Pos:      pos,
				Analyzer: "localspin",
				Message:  "malformed nonlocal declaration: want //fetchphilint:nonlocal <reason>",
			})
			return
		}
		di.nonlocal = &Declaration{Pos: pos, Reason: reason}
	case strings.HasPrefix(text, rmrPrefix):
		rest := strings.TrimSpace(strings.TrimPrefix(text, rmrPrefix))
		if !strings.HasPrefix(rest, "O(1)") {
			e.badDecls = append(e.badDecls, Diagnostic{
				Pos:      pos,
				Analyzer: "rmrbound",
				Message:  "malformed rmr declaration: want //fetchphilint:rmr O(1) [reason]",
			})
			return
		}
		reason := strings.TrimSpace(strings.TrimPrefix(rest, "O(1)"))
		di.rmrO1 = &Declaration{Pos: pos, Reason: reason, Amortized: strings.HasPrefix(reason, "amortized")}
	}
}

const (
	// nonlocalPrefix declares that an algorithm intentionally spins on
	// remote memory on DSM (the T. Anderson and Graunke–Thakkar
	// baselines from the paper's Sec. 1 table).
	nonlocalPrefix = "fetchphilint:nonlocal"
	// rmrPrefix declares an algorithm's claimed RMR bound; only O(1)
	// is recognized, matching the paper's claims for G-CC/G-DSM.
	rmrPrefix = "fetchphilint:rmr"
)

// Abortable reports whether the algorithm's method set also has the
// abortable entry-section shape AcquireAbortable(p *memsim.Proc) bool
// (harness.AbortableAlgorithm). Amortized rmr declarations are only
// meaningful on abortable algorithms: without withdrawals there is
// nothing to prepay the unbounded loops.
func (a *AlgoInfo) Abortable() bool {
	ms := types.NewMethodSet(types.NewPointer(a.Obj.Type()))
	for i := 0; i < ms.Len(); i++ {
		fn, ok := ms.At(i).Obj().(*types.Func)
		if !ok || fn.Name() != "AcquireAbortable" {
			continue
		}
		sig := fn.Type().(*types.Signature)
		if sig.Params().Len() != 1 || sig.Results().Len() != 1 {
			return false
		}
		if !isMemsimType(sig.Params().At(0).Type(), "Proc") {
			return false
		}
		b, ok := sig.Results().At(0).Type().(*types.Basic)
		return ok && b.Kind() == types.Bool
	}
	return false
}

// isEntryMethod reports whether m has the entry/exit section shape
// func (T) Name(p *memsim.Proc).
func isEntryMethod(m *types.Func) bool {
	sig := m.Type().(*types.Signature)
	if sig.Params().Len() != 1 || sig.Results().Len() != 0 {
		return false
	}
	return isMemsimType(sig.Params().At(0).Type(), "Proc")
}

// Algorithms returns the discovered algorithms, sorted by TypeKey.
func (e *Engine) Algorithms() []*AlgoInfo { return e.algos }

// Algorithm looks up a discovered algorithm by TypeKey.
func (e *Engine) Algorithm(typeKey string) *AlgoInfo {
	for _, a := range e.algos {
		if a.TypeKey == typeKey {
			return a
		}
	}
	return nil
}

// Analyze runs the abstract interpreter over one algorithm: every
// constructor is executed abstractly, then Acquire and Release run
// against the constructed state with a symbolic process. The union of
// Await verdicts across constructors is the report (a site must be
// local under every construction path to count as local).
func (e *Engine) Analyze(a *AlgoInfo) *SpinReport {
	if r, ok := e.reports[a]; ok {
		return r
	}
	rep := &SpinReport{Algo: a, Model: e.modelName, Complete: true, branches: make(map[*ast.IfStmt]uint8)}
	if len(a.Constructors) == 0 {
		// No way to build the algorithm's state abstractly: nothing is
		// proven.
		rep.Complete = false
	}
	merged := make(map[string]SpinSite)
	for _, ctor := range a.Constructors {
		fd, ok := e.decls[ctor]
		if !ok {
			rep.Complete = false
			continue
		}
		in := newInterp(e)
		in.abortFree = !a.Abortable()
		args := make([]*value, ctor.Type().(*types.Signature).Params().Len())
		for i := range args {
			args[i] = paramValue(ctor.Type().(*types.Signature).Params().At(i).Type())
		}
		recv := constructed(in.invoke(fd, ctor, nil, args, false))
		if recv.kind != vStruct {
			// The constructor's result could not be tracked; entry
			// sections would run over unknown state.
			rep.Complete = false
		}
		for _, m := range []*types.Func{a.Acquire, a.Release} {
			mfd, ok := e.decls[m]
			if !ok {
				rep.Complete = false
				continue
			}
			in.invoke(mfd, m, recv, []*value{{kind: vProc}}, false)
		}
		if !in.complete {
			rep.Complete = false
		}
		for k, s := range in.sites {
			if _, ok := merged[k]; !ok {
				merged[k] = s
			}
		}
		for st, seen := range in.branches {
			rep.branches[st] |= seen
		}
	}
	for _, s := range merged {
		rep.Sites = append(rep.Sites, s)
	}
	sort.Slice(rep.Sites, func(i, j int) bool {
		a, b := rep.Sites[i], rep.Sites[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Expr < b.Expr
	})
	e.reports[a] = rep
	return rep
}

// Reports analyzes every discovered algorithm.
func (e *Engine) Reports() []*SpinReport {
	out := make([]*SpinReport, 0, len(e.algos))
	for _, a := range e.algos {
		out = append(out, e.Analyze(a))
	}
	return out
}

// paramValue chooses the abstract value for a constructor parameter.
func paramValue(t types.Type) *value {
	switch {
	case isMemsimType(t, "Machine"):
		return &value{kind: vMachine}
	case isMemsimType(t, "Proc"):
		return &value{kind: vProc}
	}
	return unknown()
}

// constructed unwraps a constructor result to the algorithm state:
// tuples yield their first struct-valued element.
func constructed(v *value) *value {
	if v == nil {
		return unknown()
	}
	if v.kind == vTuple {
		for _, el := range v.tup {
			if el.kind == vStruct {
				return el
			}
		}
		if len(v.tup) > 0 {
			return v.tup[0]
		}
		return unknown()
	}
	return v
}
