package lint

import (
	"path/filepath"
	"testing"
)

// runModuleWant is runWant's interprocedural counterpart: it builds a
// dataflow engine over the corpus package in testdata/<dir> and checks
// one module analyzer's diagnostics against the `// want` comments.
func runModuleWant(t *testing.T, a *ModuleAnalyzer, dir string) {
	t.Helper()
	loader := testLoader(t)
	pkg, err := loader.LoadDir(filepath.Join("testdata", dir))
	if err != nil {
		t.Fatalf("load corpus: %v", err)
	}
	engine := NewEngine(loader.Module, []*Package{pkg})
	matchWants(t, Suppress(pkg, CheckModuleRaw(a, engine)), parseWants(t, pkg))
}

func TestLocalSpinCorpus(t *testing.T) { runModuleWant(t, LocalSpin, "localspin") }

func TestRMRBoundCorpus(t *testing.T) { runModuleWant(t, RMRBound, "rmrbound") }

func TestIgnoreAuditCorpus(t *testing.T) {
	loader := testLoader(t)
	pkg, err := loader.LoadDir(filepath.Join("testdata", "ignoreaudit"))
	if err != nil {
		t.Fatalf("load corpus: %v", err)
	}
	var raw []Diagnostic
	for _, a := range All() {
		raw = append(raw, CheckRaw(a, pkg)...)
	}
	matchWants(t, AuditIgnores(pkg, raw), parseWants(t, pkg))
}
