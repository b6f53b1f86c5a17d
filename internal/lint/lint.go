// Package lint is fetchphi's static-analysis suite: a small
// go/analysis-style framework (built on the standard library's go/ast
// and go/types, so it needs no external modules) plus the four
// analyzers that enforce the simulation discipline the RMR proofs
// depend on:
//
//   - awaitwatch: every Proc.Await watch list exactly covers the
//     variables its condition closure reads, and the closure performs
//     no simulated memory operations besides the injected read func.
//   - memsimpurity: algorithm packages share state only through
//     memsim — no sync/time/rand imports, no mutable package-level
//     variables, no goroutines.
//   - determinism: the simulation/result paths (memsim, harness, obs,
//     experiments) stay bit-reproducible — no wall-clock reads, no
//     global rand, no output driven by map iteration order.
//   - phasebalance: EnterCS/ExitCS and
//     BeginEntrySection/EndExitSection pair up on every control-flow
//     path and are never nested.
//
// cmd/fetchphilint runs the suite over the module; each analyzer also
// has an analysistest-style corpus under testdata/ with `// want`
// expectations.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer is one static check, in the spirit of
// golang.org/x/tools/go/analysis but self-contained.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //fetchphilint:ignore directives.
	Name string
	// Doc is the one-paragraph description shown by fetchphilint -list.
	Doc string
	// Packages lists the module-relative package paths this analyzer
	// applies to (e.g. "internal/core"). Empty means every package.
	Packages []string
	// Run reports the analyzer's diagnostics on one package.
	Run func(*Pass)
}

// AppliesTo reports whether the analyzer covers the package with the
// given module-relative path.
func (a *Analyzer) AppliesTo(relPath string) bool {
	if len(a.Packages) == 0 {
		return true
	}
	for _, p := range a.Packages {
		if relPath == p {
			return true
		}
	}
	return false
}

// Pass carries one analyzer run over one type-checked package.
type Pass struct {
	// Analyzer is the running analyzer.
	Analyzer *Analyzer
	// Fset maps token positions back to file/line/column.
	Fset *token.FileSet
	// Files are the package's parsed files (comments included).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info is the type information recorded while checking Pkg.
	Info *types.Info

	diags []Diagnostic
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	// Pos locates the violation.
	Pos token.Position
	// Analyzer names the analyzer that reported it.
	Analyzer string
	// Message describes the violation.
	Message string
}

// String renders the diagnostic the way go vet does.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Check runs one analyzer over one loaded package and returns its
// diagnostics, sorted, with //fetchphilint:ignore
// directives applied.
func Check(a *Analyzer, pkg *Package) []Diagnostic {
	return Suppress(pkg, CheckRaw(a, pkg))
}

// CheckRaw runs one analyzer over one loaded package and returns its
// diagnostics sorted (SortDiagnostics), without applying ignore
// directives.
// The ignoreaudit check consumes these raw diagnostics to decide which
// directives still suppress something.
func CheckRaw(a *Analyzer, pkg *Package) []Diagnostic {
	pass := &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
	}
	a.Run(pass)
	SortDiagnostics(pass.diags)
	return pass.diags
}

// Suppress filters out the diagnostics covered by pkg's
// //fetchphilint:ignore directives.
func Suppress(pkg *Package, diags []Diagnostic) []Diagnostic {
	dirs, _ := directives(pkg)
	return suppress(diags, dirs)
}

// directivePrefix introduces a suppression comment:
//
//	//fetchphilint:ignore awaitwatch[,determinism] <reason>
//
// A directive suppresses matching diagnostics on its own line and, for
// standalone comment lines, on the line below it. The reason is
// mandatory: an unexplained suppression is itself a violation.
const directivePrefix = "fetchphilint:ignore"

// directive is one parsed ignore comment.
type directive struct {
	analyzers map[string]bool
	// lines are the source lines (in directive.file) it suppresses.
	file  string
	lines [2]int
}

// directives scans the package's comments for ignore directives.
// Malformed ones (no analyzer list, no reason) are returned as
// immediately-visible diagnostics through a sentinel analyzer name, so
// they cannot silently suppress nothing.
func directives(pkg *Package) (dirs []directive, bad []Diagnostic) {
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				if !strings.HasPrefix(text, directivePrefix) {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, directivePrefix))
				pos := pkg.Fset.Position(c.Pos())
				if len(fields) < 2 {
					bad = append(bad, Diagnostic{
						Pos:      pos,
						Analyzer: "fetchphilint",
						Message:  "malformed ignore directive: want //fetchphilint:ignore <analyzer>[,<analyzer>] <reason>",
					})
					continue
				}
				names := make(map[string]bool)
				for _, n := range strings.Split(fields[0], ",") {
					names[strings.TrimSpace(n)] = true
				}
				dirs = append(dirs, directive{
					analyzers: names,
					file:      pos.Filename,
					lines:     [2]int{pos.Line, pos.Line + 1},
				})
			}
		}
	}
	return dirs, bad
}

// CheckDirectives validates the package's ignore directives,
// returning a diagnostic per malformed one. Runners call it once per
// package (not per analyzer) so an unexplained suppression cannot
// pass silently.
func CheckDirectives(pkg *Package) []Diagnostic {
	_, bad := directives(pkg)
	return bad
}

// suppress filters out diagnostics covered by a directive.
func suppress(diags []Diagnostic, dirs []directive) []Diagnostic {
	out := make([]Diagnostic, 0, len(diags))
	for _, d := range diags {
		ignored := false
		for _, dir := range dirs {
			if dir.file != d.Pos.Filename || !dir.analyzers[d.Analyzer] {
				continue
			}
			if d.Pos.Line == dir.lines[0] || d.Pos.Line == dir.lines[1] {
				ignored = true
				break
			}
		}
		if !ignored {
			out = append(out, d)
		}
	}
	return out
}
