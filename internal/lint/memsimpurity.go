package lint

import (
	"go/ast"
	"go/token"
	"strconv"
)

// MemsimPurity enforces that algorithm packages share state only
// through simulated memory. Real synchronization primitives, clocks,
// randomness, goroutines, or mutable package-level variables would
// let an algorithm communicate outside memsim.Proc — invisible to the
// RMR accounting, the local-spin monitor, and the schedule explorer —
// so every complexity claim measured over it would be unsound. A
// memsim.Slab handle is the one package-level variable allowed: it
// only names a kind of machine storage, and what it hands out lives in
// each machine, like the simulated variables.
var MemsimPurity = &Analyzer{
	Name: "memsimpurity",
	Doc: "algorithm packages may not import sync/time/rand, declare mutable " +
		"package-level state, or spawn goroutines; all sharing goes through memsim",
	Packages: AlgorithmPackages,
	Run:      runMemsimPurity,
}

// bannedImports are the real-concurrency and nondeterminism packages
// algorithm code must not reach for.
var bannedImports = map[string]string{
	"sync":         "real locks bypass the simulated memory and its RMR accounting",
	"sync/atomic":  "real atomics bypass the simulated memory and its RMR accounting",
	"time":         "simulated processes have no clock; schedules must replay bit-identically",
	"math/rand":    "randomness must come from the seeded scheduler, not the algorithm",
	"math/rand/v2": "randomness must come from the seeded scheduler, not the algorithm",
}

func runMemsimPurity(pass *Pass) {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if why, banned := bannedImports[path]; banned {
				pass.Reportf(imp.Pos(), "algorithm package imports %q: %s", path, why)
			}
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if name.Name == "_" {
						continue // compile-time assertions are harmless
					}
					if obj := pass.Info.Defs[name]; obj != nil && isMemsimType(obj.Type(), "Slab") {
						continue // a storage handle: the state is per machine
					}
					pass.Reportf(name.Pos(),
						"package-level variable %s: algorithm state must live in memsim variables, not Go globals",
						name.Name)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(),
					"goroutine in algorithm package: processes exist only as memsim.Proc bodies")
			case *ast.SendStmt:
				pass.Reportf(n.Pos(),
					"channel send in algorithm package: all communication goes through memsim")
			case *ast.SelectStmt:
				pass.Reportf(n.Pos(),
					"select in algorithm package: all communication goes through memsim")
			}
			return true
		})
	}
}
