package obs

// The lint artifact (fetchphi.lint/v1) records the static-analysis
// verdicts of cmd/fetchphilint mechanically: every diagnostic, plus
// the interprocedural engine's per-algorithm spin-locality and RMR
// verdicts. CI compares the current artifact against the checked-in
// baseline so a new finding — or a certified-local algorithm turning
// non-local — fails the build, parallel to the dynamic claims gate.
//
// Like every obs artifact, it is bit-deterministic: no timestamps, no
// absolute paths, sorted rows.

import (
	"fmt"
	"sort"
)

// LintSchema identifies the lint artifact format. Bump on
// incompatible changes; additive fields keep the version.
const LintSchema = "fetchphi.lint/v1"

// Locality verdict values for LintAlgorithm.Verdict.
const (
	// VerdictLocal: every reachable spin is proven homed at the
	// awaiting process on the analyzed model.
	VerdictLocal = "local"
	// VerdictNonlocalDeclared: non-local spins exist and the type
	// carries a //fetchphilint:nonlocal declaration (the paper's
	// CC-only baselines).
	VerdictNonlocalDeclared = "nonlocal-declared"
	// VerdictNonlocal: undeclared non-local spins — a build-failing
	// finding.
	VerdictNonlocal = "nonlocal"
	// VerdictUnproven: the dataflow analysis could not cover every
	// reachable Await.
	VerdictUnproven = "unproven"
)

// LintArtifact is the machine-readable result of one fetchphilint run.
type LintArtifact struct {
	// Schema is always the LintSchema constant.
	Schema string `json:"schema"`
	// Tool names the producing command.
	Tool string `json:"tool"`
	// Packages are the module-relative package paths analyzed, sorted.
	Packages []string `json:"packages"`
	// Diagnostics are every (unsuppressed) finding, sorted by position.
	Diagnostics []LintDiag `json:"diagnostics"`
	// Algorithms are the interprocedural engine's per-algorithm
	// verdicts, sorted by type key.
	Algorithms []LintAlgorithm `json:"algorithms"`
}

// LintDiag is one diagnostic row.
type LintDiag struct {
	// File is the module-relative source path.
	File string `json:"file"`
	// Line and Column locate the finding (1-based).
	Line   int `json:"line"`
	Column int `json:"column"`
	// Analyzer names the reporting analyzer.
	Analyzer string `json:"analyzer"`
	// Message is the human-readable finding.
	Message string `json:"message"`
}

// LintAlgorithm is the engine's verdict for one algorithm type.
type LintAlgorithm struct {
	// Type is the module-wide type key, e.g. "internal/core.GDSM".
	Type string `json:"type"`
	// Model is the memory model analyzed under ("DSM").
	Model string `json:"model"`
	// Verdict is one of the Verdict* constants.
	Verdict string `json:"verdict"`
	// NonLocalSites lists the spins not proven local, if any.
	NonLocalSites []LintSite `json:"nonlocal_sites,omitempty"`
	// RMR is the static shared-op accounting.
	RMR LintRMR `json:"rmr"`
}

// LintSite is one non-local (or unproven) spin site.
type LintSite struct {
	// File is the module-relative source path of the Await.
	File string `json:"file"`
	// Line is the Await's line.
	Line int `json:"line"`
	// Expr is the watched expression.
	Expr string `json:"expr"`
	// Home describes the watched variable's inferred home.
	Home string `json:"home"`
	// Chain is the call path from the entry/exit section.
	Chain string `json:"chain"`
}

// LintRMR is the static shared-op bound for one algorithm's entry plus
// exit passage.
type LintRMR struct {
	// Declared is the type's declared bound ("O(1)") or empty.
	Declared string `json:"declared,omitempty"`
	// Ops is the static upper bound on shared ops per passage,
	// counting each unbounded loop body once.
	Ops int `json:"ops"`
	// Bounded reports whether the count is a static constant (no
	// unbounded shared-op loops).
	Bounded bool `json:"bounded"`
	// Unbounded lists "file:line" locations of unbounded shared-op
	// loops.
	Unbounded []string `json:"unbounded,omitempty"`
}

// Normalize sorts every row so equal runs produce byte-equal
// artifacts.
func (a *LintArtifact) Normalize() {
	sort.Strings(a.Packages)
	sort.Slice(a.Diagnostics, func(i, j int) bool {
		x, y := a.Diagnostics[i], a.Diagnostics[j]
		if x.File != y.File {
			return x.File < y.File
		}
		if x.Line != y.Line {
			return x.Line < y.Line
		}
		if x.Column != y.Column {
			return x.Column < y.Column
		}
		if x.Analyzer != y.Analyzer {
			return x.Analyzer < y.Analyzer
		}
		return x.Message < y.Message
	})
	sort.Slice(a.Algorithms, func(i, j int) bool {
		return a.Algorithms[i].Type < a.Algorithms[j].Type
	})
}

// WriteFile writes the artifact, normalized, through WriteJSON.
func (a *LintArtifact) WriteFile(path string) error {
	if a.Schema == "" {
		a.Schema = LintSchema
	}
	a.Normalize()
	return WriteJSON(path, a)
}

// ReadLintArtifact loads and validates one lint artifact file.
func ReadLintArtifact(path string) (*LintArtifact, error) {
	return ReadJSON(path, LintSchema, func(a *LintArtifact) string { return a.Schema })
}

// CompareLint gates current against baseline, returning one line per
// regression (empty means the gate passes). Regressions are:
//
//   - a diagnostic (analyzer, file, message) appearing more times than
//     in the baseline — line drift alone does not trip the gate;
//   - an algorithm whose baseline verdict was "local" (or
//     "nonlocal-declared") getting a worse verdict;
//   - an algorithm losing a bounded RMR count while declaring O(1);
//   - an algorithm whose shared-op count (rmr.ops) moved either way —
//     a refactor that drops calls from the walk shows up here;
//   - a baseline algorithm missing from the current artifact — the
//     engine no longer discovers it, so none of the above is checked.
//
// Fixes (diagnostics disappearing, verdicts improving) pass silently:
// they only require a baseline refresh, not a build failure.
func CompareLint(baseline, current *LintArtifact) []string {
	var regressions []string

	baseCount := make(map[string]int)
	for _, d := range baseline.Diagnostics {
		baseCount[d.Analyzer+"|"+d.File+"|"+d.Message]++
	}
	curCount := make(map[string]int)
	for _, d := range current.Diagnostics {
		key := d.Analyzer + "|" + d.File + "|" + d.Message
		curCount[key]++
		if curCount[key] > baseCount[key] {
			regressions = append(regressions,
				fmt.Sprintf("new finding: %s:%d: %s: %s", d.File, d.Line, d.Analyzer, d.Message))
		}
	}

	baseAlgo := make(map[string]LintAlgorithm)
	for _, a := range baseline.Algorithms {
		baseAlgo[a.Type] = a
	}
	rank := map[string]int{VerdictLocal: 0, VerdictNonlocalDeclared: 1, VerdictNonlocal: 2, VerdictUnproven: 2}
	analyzed := make(map[string]bool)
	for _, cur := range current.Algorithms {
		analyzed[cur.Type] = true
		base, ok := baseAlgo[cur.Type]
		if !ok {
			continue
		}
		if rank[cur.Verdict] > rank[base.Verdict] {
			regressions = append(regressions,
				fmt.Sprintf("locality regression: %s was %q, now %q", cur.Type, base.Verdict, cur.Verdict))
		}
		if cur.RMR.Declared != "" && !cur.RMR.Bounded && base.RMR.Bounded {
			regressions = append(regressions,
				fmt.Sprintf("rmr regression: %s declares %s but its shared-op count is no longer statically bounded", cur.Type, cur.RMR.Declared))
		}
		if cur.RMR.Ops != base.RMR.Ops {
			regressions = append(regressions,
				fmt.Sprintf("ops changed: %s counts %d shared ops, baseline %d; if intended, refresh with make baseline-lint", cur.Type, cur.RMR.Ops, base.RMR.Ops))
		}
	}
	for _, base := range baseline.Algorithms {
		if !analyzed[base.Type] {
			regressions = append(regressions,
				fmt.Sprintf("missing algorithm: %s is in the baseline but was not analyzed", base.Type))
		}
	}
	return regressions
}
