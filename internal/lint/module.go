package lint

// Module analyzers are the interprocedural counterpart of Analyzer:
// they run once over the whole engine (all loaded algorithm packages
// at once) instead of once per package, because their facts — home
// values flowing through cross-package helper calls — do not respect
// package boundaries.

import (
	"fmt"
	"go/token"
	"sort"
)

// ModuleAnalyzer is one interprocedural static check.
type ModuleAnalyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //fetchphilint:ignore directives.
	Name string
	// Doc is the one-paragraph description shown by fetchphilint -list.
	Doc string
	// Run reports the analyzer's diagnostics over the whole engine.
	Run func(*ModulePass)
}

// ModulePass carries one module analyzer run over one engine.
type ModulePass struct {
	// Analyzer is the running analyzer.
	Analyzer *ModuleAnalyzer
	// Engine is the module-wide analysis state.
	Engine *Engine

	diags []Diagnostic
}

// Reportf records a diagnostic at pos (resolved through the engine's
// shared file set).
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	if len(p.Engine.Pkgs) == 0 {
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Engine.Pkgs[0].Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// report records a pre-resolved diagnostic.
func (p *ModulePass) report(d Diagnostic) {
	d.Analyzer = p.Analyzer.Name
	p.diags = append(p.diags, d)
}

// AllModule returns the interprocedural analyzer suite in reporting
// order. The ignoreaudit check is not in this list: it consumes the
// raw diagnostics of every other analyzer, so runners invoke
// AuditIgnores separately once those are collected.
func AllModule() []*ModuleAnalyzer {
	return []*ModuleAnalyzer{LocalSpin, RMRBound}
}

// CheckModuleRaw runs one module analyzer and returns its diagnostics
// sorted, without applying ignore directives. Directives match by
// file, so Suppress with the package a diagnostic lands in applies
// them.
func CheckModuleRaw(a *ModuleAnalyzer, e *Engine) []Diagnostic {
	pass := &ModulePass{Analyzer: a, Engine: e}
	a.Run(pass)
	SortDiagnostics(pass.diags)
	return pass.diags
}

// SortDiagnostics orders diagnostics by file, line, column, analyzer,
// message: lint's one order, the same as the lint artifact's
// (obs.LintArtifact.Normalize), so printed, JSON and SARIF output list
// diagnostics alike.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
