package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fetchphi/internal/harness"
	"fetchphi/internal/lint"
	"fetchphi/internal/memsim"
)

// TestStaticDynamicLocalityAgreement closes the loop between the two
// locality checkers: for every algorithm in the registry, the lint
// engine's static spin-locality verdict must agree with memsim's
// dynamic non-local-spin accounting on both machine models. A
// statically certified algorithm may never be caught spinning remotely
// at runtime, and the paper's Sec. 1 counterexamples (T. Anderson,
// Graunke–Thakkar) must be caught by both checkers.
func TestStaticDynamicLocalityAgreement(t *testing.T) {
	engine := algorithmEngine(t)

	// The named CC-only locks from the paper's prior-work table must
	// fail both statically and dynamically.
	mustBeNonlocal := map[string]bool{"t-anderson": true, "graunke-thakkar": true}

	for _, name := range AlgorithmNames() {
		build := builder(name)
		algo := engine.Algorithm(typeKeyOf(t, build))
		if algo == nil {
			t.Errorf("%s: no static analysis for type %s", name, typeKeyOf(t, build))
			continue
		}
		rep := engine.Analyze(algo)
		if !rep.Complete {
			t.Errorf("%s: static analysis incomplete for %s", name, algo.TypeKey)
			continue
		}
		for _, model := range []memsim.Model{memsim.CC, memsim.DSM} {
			met, err := harness.Run(build, harness.Workload{
				Model: model, N: 4, Entries: 8, CSOps: 1, Seed: 3,
			})
			if err != nil {
				t.Errorf("%s on %v: %v", name, model, err)
				continue
			}
			// Non-local spinning is observable only on DSM (a CC
			// spinner caches the remote line); the CC leg checks the
			// accounting stays silent where locality is free.
			if model == memsim.CC && met.NonLocalSpins != 0 {
				t.Errorf("%s on CC: %d non-local spins counted, want 0", name, met.NonLocalSpins)
				continue
			}
			if model != memsim.DSM {
				continue
			}
			if rep.Local() && met.NonLocalSpins != 0 {
				t.Errorf("%s: statically certified local-spin (%s) but %d non-local spin reads on DSM",
					name, algo.TypeKey, met.NonLocalSpins)
			}
			if mustBeNonlocal[name] {
				if rep.Local() {
					t.Errorf("%s: statically certified local-spin, but the paper's Sec. 1 table says CC-only", name)
				}
				if met.NonLocalSpins == 0 {
					t.Errorf("%s: expected dynamic non-local spinning on DSM, saw none", name)
				}
			}
		}
	}
}

// algorithmEngine builds the lint dataflow engine over the module's
// algorithm packages, exactly as cmd/fetchphilint does.
func algorithmEngine(t *testing.T) *lint.Engine {
	t.Helper()
	root, err := findModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*lint.Package
	for _, rel := range lint.AlgorithmPackages {
		pkg, err := loader.Load(loader.Module + "/" + rel)
		if err != nil {
			t.Fatalf("load %s: %v", rel, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return lint.NewEngine(loader.Module, pkgs)
}

// typeKeyOf maps a registry builder to the engine's TypeKey by
// instantiating it on a throwaway machine and reflecting the concrete
// algorithm type.
func typeKeyOf(t *testing.T, build harness.Builder) string {
	t.Helper()
	rt := reflect.TypeOf(build(memsim.NewMachine(memsim.CC, 4)))
	for rt.Kind() == reflect.Ptr {
		rt = rt.Elem()
	}
	return strings.TrimPrefix(rt.PkgPath(), "fetchphi/") + "." + rt.Name()
}

func findModuleRoot() (string, error) {
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
