// Command fetchphilint runs the repository's static-analysis suite
// (internal/lint) over the module: the four per-package analyzers
// that enforce the simulation discipline behind every RMR claim
// (awaitwatch, memsimpurity, determinism, phasebalance), the
// interprocedural module analyzers that prove the paper's structural
// claims (localspin, rmrbound), and the ignoreaudit check that
// reports stale suppression directives. It is the third leg of
// `make lint`, next to go vet and the analyzers' own corpora tests.
//
// Usage:
//
//	fetchphilint [-list] [-v] [-json file] [-sarif file] [-baseline file] [packages...]
//
// With no arguments (or "./...") it checks every package in the
// module; otherwise the arguments are module-relative package
// directories (e.g. internal/core cmd/report). Diagnostics print in
// go-vet format. -json writes a fetchphi.lint/v1 artifact (findings
// plus per-algorithm locality/RMR verdicts); -sarif writes SARIF
// 2.1.0 for code-review tooling. Without -baseline the exit status is
// 1 when any diagnostic is found; with -baseline the exit status is
// driven by the gate instead — only findings or verdicts worse than
// the baseline artifact fail. Usage and load errors exit 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"fetchphi/internal/lint"
	"fetchphi/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fetchphilint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list     = fs.Bool("list", false, "print the analyzers and exit")
		verbose  = fs.Bool("v", false, "print every package checked")
		jsonOut  = fs.String("json", "", "write a fetchphi.lint/v1 artifact to this file")
		sarifOut = fs.String("sarif", "", "write SARIF 2.1.0 to this file")
		baseline = fs.String("baseline", "", "gate against this fetchphi.lint/v1 artifact: only new findings fail")
	)
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		for _, a := range lint.AllModule() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(stdout, "%-14s %s\n", lint.IgnoreAuditName,
			"report stale //fetchphilint:ignore directives that no longer suppress anything")
		return 0
	}

	root, err := moduleRoot()
	if err != nil {
		fmt.Fprintf(stderr, "fetchphilint: cannot find go.mod above the working directory: %v\n", err)
		return 2
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintf(stderr, "fetchphilint: %v\n", err)
		return 2
	}

	rels, err := selectPackages(root, fs.Args())
	if err != nil {
		fmt.Fprintf(stderr, "fetchphilint: %v\n", err)
		return 2
	}
	// The interprocedural engine always runs over the full algorithm
	// package set: home values flow through cross-package helpers
	// (core → twoproc/localspin), so a partial view would be unsound.
	// Its diagnostics are then filtered to the selected packages.
	var enginePkgs []*lint.Package
	for _, rel := range lint.AlgorithmPackages {
		pkg, err := loader.Load(loader.Module + "/" + rel)
		if err != nil {
			fmt.Fprintf(stderr, "fetchphilint: %v\n", err)
			return 2
		}
		enginePkgs = append(enginePkgs, pkg)
	}
	engine := lint.NewEngine(loader.Module, enginePkgs)

	// Module analyzer diagnostics, keyed by the module-relative
	// package directory they land in. Each package's directives
	// suppress them with its own analyzers' below.
	moduleRaw := make(map[string][]lint.Diagnostic)
	for _, a := range lint.AllModule() {
		for _, d := range lint.CheckModuleRaw(a, engine) {
			rel := filepath.ToSlash(filepath.Dir(relativize(root, d.Pos.Filename)))
			moduleRaw[rel] = append(moduleRaw[rel], d)
		}
	}

	var all []lint.Diagnostic
	for _, rel := range rels {
		pkg, err := loader.Load(loader.Module + "/" + rel)
		if err != nil {
			fmt.Fprintf(stderr, "fetchphilint: %v\n", err)
			return 2
		}
		var pkgDiags []lint.Diagnostic
		pkgDiags = append(pkgDiags, lint.CheckDirectives(pkg)...)
		var raw []lint.Diagnostic
		for _, a := range lint.All() {
			if !a.AppliesTo(rel) {
				continue
			}
			raw = append(raw, lint.CheckRaw(a, pkg)...)
		}
		raw = append(raw, moduleRaw[rel]...)
		pkgDiags = append(pkgDiags, lint.Suppress(pkg, raw)...)
		pkgDiags = append(pkgDiags, lint.AuditIgnores(pkg, raw)...)
		lint.SortDiagnostics(pkgDiags)
		for _, d := range pkgDiags {
			d.Pos.Filename = relativize(root, d.Pos.Filename)
			fmt.Fprintln(stdout, d)
			all = append(all, d)
		}
		if *verbose {
			fmt.Fprintf(stdout, "# %s: %d diagnostics\n", rel, len(pkgDiags))
		}
	}

	artifact := buildArtifact(root, rels, all, engine)
	if *jsonOut != "" {
		if err := artifact.WriteFile(*jsonOut); err != nil {
			fmt.Fprintf(stderr, "fetchphilint: %v\n", err)
			return 2
		}
	}
	if *sarifOut != "" {
		if err := writeSARIF(*sarifOut, artifact); err != nil {
			fmt.Fprintf(stderr, "fetchphilint: %v\n", err)
			return 2
		}
	}

	if *baseline != "" {
		base, err := obs.ReadLintArtifact(*baseline)
		if err != nil {
			fmt.Fprintf(stderr, "fetchphilint: %v\n", err)
			return 2
		}
		regressions := obs.CompareLint(base, artifact)
		for _, r := range regressions {
			fmt.Fprintf(stdout, "GATE %s\n", r)
		}
		if len(regressions) > 0 {
			return 1
		}
		return 0
	}
	if len(all) > 0 {
		return 1
	}
	return 0
}

// buildArtifact assembles the fetchphi.lint/v1 artifact from the
// reported diagnostics and the engine's per-algorithm verdicts.
func buildArtifact(root string, rels []string, diags []lint.Diagnostic, engine *lint.Engine) *obs.LintArtifact {
	a := &obs.LintArtifact{
		Schema:   obs.LintSchema,
		Tool:     "fetchphilint",
		Packages: append([]string(nil), rels...),
	}
	for _, d := range diags {
		a.Diagnostics = append(a.Diagnostics, obs.LintDiag{
			File:     filepath.ToSlash(d.Pos.Filename),
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	for _, rep := range engine.Reports() {
		algo := rep.Algo
		row := obs.LintAlgorithm{
			Type:    algo.TypeKey,
			Model:   rep.Model,
			Verdict: verdictFor(rep),
		}
		for _, s := range rep.NonLocalSites() {
			row.NonLocalSites = append(row.NonLocalSites, obs.LintSite{
				File:  filepath.ToSlash(relativize(root, s.Pos.Filename)),
				Line:  s.Pos.Line,
				Expr:  s.Expr,
				Home:  s.Home,
				Chain: s.Chain,
			})
		}
		sum := engine.RMRSummaryOf(algo)
		row.RMR = obs.LintRMR{Ops: sum.Ops, Bounded: sum.Bounded()}
		if algo.RMRO1 != nil {
			row.RMR.Declared = "O(1)"
			if algo.RMRO1.Amortized {
				row.RMR.Declared = "O(1) amortized"
			}
		}
		for _, pos := range sum.Unbounded {
			row.RMR.Unbounded = append(row.RMR.Unbounded,
				fmt.Sprintf("%s:%d", filepath.ToSlash(relativize(root, pos.Filename)), pos.Line))
		}
		sort.Strings(row.RMR.Unbounded)
		a.Algorithms = append(a.Algorithms, row)
	}
	return a
}

// verdictFor maps an engine report (plus the type's declaration) to an
// artifact verdict.
func verdictFor(rep *lint.SpinReport) string {
	declared := rep.Algo.Nonlocal != nil
	switch {
	case !rep.Complete:
		if declared {
			return obs.VerdictNonlocalDeclared
		}
		return obs.VerdictUnproven
	case len(rep.NonLocalSites()) > 0:
		if declared {
			return obs.VerdictNonlocalDeclared
		}
		return obs.VerdictNonlocal
	default:
		return obs.VerdictLocal
	}
}

// writeSARIF renders the artifact as a minimal SARIF 2.1.0 log,
// written atomically through obs.WriteJSON.
func writeSARIF(path string, a *obs.LintArtifact) error {
	type sarifRegion struct {
		StartLine   int `json:"startLine"`
		StartColumn int `json:"startColumn,omitempty"`
	}
	type sarifArtifactLocation struct {
		URI string `json:"uri"`
	}
	type sarifPhysicalLocation struct {
		ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
		Region           sarifRegion           `json:"region"`
	}
	type sarifLocation struct {
		PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
	}
	type sarifMessage struct {
		Text string `json:"text"`
	}
	type sarifResult struct {
		RuleID    string          `json:"ruleId"`
		Level     string          `json:"level"`
		Message   sarifMessage    `json:"message"`
		Locations []sarifLocation `json:"locations"`
	}
	type sarifRule struct {
		ID string `json:"id"`
	}
	type sarifDriver struct {
		Name  string      `json:"name"`
		Rules []sarifRule `json:"rules"`
	}
	type sarifTool struct {
		Driver sarifDriver `json:"driver"`
	}
	type sarifRun struct {
		Tool    sarifTool     `json:"tool"`
		Results []sarifResult `json:"results"`
	}
	type sarifLog struct {
		Version string     `json:"version"`
		Schema  string     `json:"$schema"`
		Runs    []sarifRun `json:"runs"`
	}

	ruleSet := make(map[string]bool)
	results := make([]sarifResult, 0, len(a.Diagnostics))
	for _, d := range a.Diagnostics {
		ruleSet[d.Analyzer] = true
		results = append(results, sarifResult{
			RuleID:  d.Analyzer,
			Level:   "error",
			Message: sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{PhysicalLocation: sarifPhysicalLocation{
				ArtifactLocation: sarifArtifactLocation{URI: d.File},
				Region:           sarifRegion{StartLine: d.Line, StartColumn: d.Column},
			}}},
		})
	}
	rules := make([]sarifRule, 0, len(ruleSet))
	for id := range ruleSet {
		rules = append(rules, sarifRule{ID: id})
	}
	sort.Slice(rules, func(i, j int) bool { return rules[i].ID < rules[j].ID })

	log := sarifLog{
		Version: "2.1.0",
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "fetchphilint", Rules: rules}},
			Results: results,
		}},
	}
	return obs.WriteJSON(path, log)
}

// selectPackages resolves the argument list to sorted module-relative
// package directories. No arguments (or "./...") means every package
// in the module.
func selectPackages(root string, args []string) ([]string, error) {
	if len(args) == 0 || (len(args) == 1 && (args[0] == "./..." || args[0] == "...")) {
		return modulePackages(root)
	}
	var rels []string
	for _, arg := range args {
		rel := filepath.ToSlash(filepath.Clean(strings.TrimPrefix(arg, "./")))
		dir := filepath.Join(root, filepath.FromSlash(rel))
		if st, err := os.Stat(dir); err != nil || !st.IsDir() {
			return nil, fmt.Errorf("no such package directory: %s", arg)
		}
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	return rels, nil
}

// modulePackages walks the module for directories containing non-test
// Go files, skipping testdata, artifacts, and VCS internals.
func modulePackages(root string) ([]string, error) {
	var rels []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "bench" || name == "vendor") {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range entries {
			n := e.Name()
			if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") &&
				!strings.HasPrefix(n, "_") && !strings.HasPrefix(n, ".") {
				rel, err := filepath.Rel(root, path)
				if err != nil {
					return err
				}
				if rel != "." { // the root itself holds only test files
					rels = append(rels, filepath.ToSlash(rel))
				}
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(rels)
	return rels, nil
}

// relativize shortens diagnostic paths when they sit under the module
// root.
func relativize(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}

// moduleRoot walks up from the working directory to the first go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", os.ErrNotExist
		}
		dir = parent
	}
}
