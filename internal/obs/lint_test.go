package obs

import (
	"path/filepath"
	"strings"
	"testing"
)

func sampleLint() *LintArtifact {
	return &LintArtifact{
		Tool:     "fetchphilint",
		Packages: []string{"internal/core", "internal/baseline"},
		Diagnostics: []LintDiag{
			{File: "internal/baseline/baseline.go", Line: 48, Column: 2, Analyzer: "localspin", Message: "non-local spin on l.lock"},
		},
		Algorithms: []LintAlgorithm{
			{Type: "internal/core.GDSM", Model: "DSM", Verdict: VerdictLocal,
				RMR: LintRMR{Declared: "O(1)", Ops: 40, Bounded: true}},
			{Type: "internal/baseline.TASLock", Model: "DSM", Verdict: VerdictNonlocalDeclared,
				NonLocalSites: []LintSite{{File: "internal/baseline/baseline.go", Line: 48, Expr: "l.lock", Home: "global memory (HomeGlobal)", Chain: "TASLock.Acquire"}},
				RMR:           LintRMR{Ops: 3, Bounded: false, Unbounded: []string{"internal/baseline/baseline.go:45"}}},
		},
	}
}

func TestLintArtifactRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "LINT.json")
	a := sampleLint()
	if err := a.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLintArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != LintSchema {
		t.Errorf("schema %q", got.Schema)
	}
	// Normalize sorts packages on write.
	if got.Packages[0] != "internal/baseline" {
		t.Errorf("packages not sorted: %v", got.Packages)
	}
	if len(got.Algorithms) != 2 || got.Algorithms[0].Type != "internal/baseline.TASLock" {
		t.Errorf("algorithms not sorted: %+v", got.Algorithms)
	}
	if got.Algorithms[1].RMR.Declared != "O(1)" {
		t.Errorf("rmr lost: %+v", got.Algorithms[1].RMR)
	}
}

func TestReadLintArtifactRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "LINT.json")
	a := sampleLint()
	a.Schema = "fetchphi.bench/v1"
	if err := a.WriteFile(path); err == nil {
		// WriteFile fills empty schemas but keeps explicit ones.
		if _, err := ReadLintArtifact(path); err == nil {
			t.Fatal("wrong schema accepted")
		}
	}
}

func TestCompareLintCleanAndLineDrift(t *testing.T) {
	base := sampleLint()
	cur := sampleLint()
	if regs := CompareLint(base, cur); len(regs) != 0 {
		t.Fatalf("identical artifacts regressed: %v", regs)
	}
	// Line drift of an existing finding does not trip the gate.
	cur.Diagnostics[0].Line = 52
	if regs := CompareLint(base, cur); len(regs) != 0 {
		t.Fatalf("line drift regressed: %v", regs)
	}
}

func TestCompareLintNewFinding(t *testing.T) {
	base := sampleLint()
	cur := sampleLint()
	cur.Diagnostics = append(cur.Diagnostics, LintDiag{
		File: "internal/core/gdsm.go", Line: 150, Analyzer: "localspin", Message: "non-local spin on sig",
	})
	regs := CompareLint(base, cur)
	if len(regs) != 1 || !strings.Contains(regs[0], "new finding") {
		t.Fatalf("regressions: %v", regs)
	}
}

func TestCompareLintVerdictFlip(t *testing.T) {
	base := sampleLint()
	cur := sampleLint()
	for i := range cur.Algorithms {
		if cur.Algorithms[i].Type == "internal/core.GDSM" {
			cur.Algorithms[i].Verdict = VerdictNonlocal
		}
	}
	regs := CompareLint(base, cur)
	if len(regs) != 1 || !strings.Contains(regs[0], "locality regression") {
		t.Fatalf("regressions: %v", regs)
	}
	// Improving (nonlocal-declared → local) passes.
	cur2 := sampleLint()
	for i := range cur2.Algorithms {
		if cur2.Algorithms[i].Type == "internal/baseline.TASLock" {
			cur2.Algorithms[i].Verdict = VerdictLocal
			cur2.Algorithms[i].NonLocalSites = nil
		}
	}
	if regs := CompareLint(base, cur2); len(regs) != 0 {
		t.Fatalf("improvement regressed: %v", regs)
	}
}

func TestCompareLintRMRUnbounded(t *testing.T) {
	base := sampleLint()
	cur := sampleLint()
	for i := range cur.Algorithms {
		if cur.Algorithms[i].Type == "internal/core.GDSM" {
			cur.Algorithms[i].RMR.Bounded = false
			cur.Algorithms[i].RMR.Unbounded = []string{"internal/core/gdsm.go:200"}
		}
	}
	regs := CompareLint(base, cur)
	if len(regs) != 1 || !strings.Contains(regs[0], "rmr regression") {
		t.Fatalf("regressions: %v", regs)
	}
}

// TestCompareLintOpsChanged: a shared-op count that moves from the
// baseline, down or up, fails the gate and names the refresh target.
func TestCompareLintOpsChanged(t *testing.T) {
	for name, ops := range map[string]int{"down": 39, "up": 41} {
		t.Run(name, func(t *testing.T) {
			cur := sampleLint()
			for i := range cur.Algorithms {
				if cur.Algorithms[i].Type == "internal/core.GDSM" {
					cur.Algorithms[i].RMR.Ops = ops
				}
			}
			regs := CompareLint(sampleLint(), cur)
			if len(regs) != 1 || !strings.Contains(regs[0], "ops changed: internal/core.GDSM") || !strings.Contains(regs[0], "make baseline-lint") {
				t.Fatalf("ops 40 → %d: regressions %v", ops, regs)
			}
		})
	}
}

func TestCompareLintMissingAlgorithm(t *testing.T) {
	base := sampleLint()
	cur := sampleLint()
	kept := cur.Algorithms[:0]
	for _, a := range cur.Algorithms {
		if a.Type != "internal/core.GDSM" {
			kept = append(kept, a)
		}
	}
	cur.Algorithms = kept
	regs := CompareLint(base, cur)
	if len(regs) != 1 || !strings.Contains(regs[0], "missing algorithm: internal/core.GDSM") {
		t.Fatalf("regressions: %v", regs)
	}
	// A newly analyzed algorithm is not a regression.
	if regs := CompareLint(cur, base); len(regs) != 0 {
		t.Fatalf("new algorithm regressed: %v", regs)
	}
}
