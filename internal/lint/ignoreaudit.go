package lint

// ignoreaudit keeps the suppression surface honest: a
// //fetchphilint:ignore directive that no longer matches any raw
// diagnostic is dead weight — it documents a violation that no longer
// exists and would silently swallow a future, unrelated finding on
// the same line. The audit runs the named analyzers *without*
// suppression and reports every well-formed directive whose analyzer
// set and line range match nothing. (Malformed directives are already
// diagnosed by CheckDirectives.)

import (
	"go/token"
	"sort"
	"strings"
)

// IgnoreAuditName is the analyzer name stale-directive diagnostics are
// reported under (and that //fetchphilint:ignore directives may name,
// though suppressing the audit defeats its purpose).
const IgnoreAuditName = "ignoreaudit"

// AuditIgnores reports the stale ignore directives of one package,
// given the package's raw (unsuppressed) diagnostics from every
// analyzer that ran over it — the per-package suite and the module
// analyzers alike.
func AuditIgnores(pkg *Package, raw []Diagnostic) []Diagnostic {
	dirs, _ := directives(pkg)
	var out []Diagnostic
	for _, dir := range dirs {
		if suppressesAny(dir, raw) {
			continue
		}
		names := make([]string, 0, len(dir.analyzers))
		for n := range dir.analyzers {
			names = append(names, n)
		}
		sort.Strings(names)
		out = append(out, Diagnostic{
			Pos:      positionOfDirective(pkg, dir),
			Analyzer: IgnoreAuditName,
			Message: "stale ignore directive: no " + strings.Join(names, ",") +
				" diagnostic on this line or the next; delete it",
		})
	}
	SortDiagnostics(out)
	return out
}

// suppressesAny reports whether the directive matches at least one raw
// diagnostic.
func suppressesAny(dir directive, raw []Diagnostic) bool {
	for _, d := range raw {
		if dir.file != d.Pos.Filename || !dir.analyzers[d.Analyzer] {
			continue
		}
		if d.Pos.Line == dir.lines[0] || d.Pos.Line == dir.lines[1] {
			return true
		}
	}
	return false
}

// positionOfDirective recovers the directive comment's position by
// re-scanning the package's comments (directive itself only records
// file and lines).
func positionOfDirective(pkg *Package, dir directive) (pos token.Position) {
	pos.Filename = dir.file
	pos.Line = dir.lines[0]
	pos.Column = 1
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				p := pkg.Fset.Position(c.Pos())
				if p.Filename == dir.file && p.Line == dir.lines[0] &&
					strings.HasPrefix(strings.TrimPrefix(c.Text, "//"), directivePrefix) {
					return p
				}
			}
		}
	}
	return pos
}
