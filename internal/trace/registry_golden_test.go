package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"fetchphi/internal/experiments"
	"fetchphi/internal/harness"
	"fetchphi/internal/memsim"
)

// TestRegistryTraceGolden pins one sha256 per fetchphi.trace/v1
// artifact, as `tracectl record` writes it, for every registered
// algorithm on every memory model at span limits 0 (the whole run)
// and 8 (a ring that wraps): N=6, 4 entries, seed 1. clh and
// yang-anderson-tree name distinct variables alike, so their artifacts
// pin how a span's names are deduplicated. Regenerate with
// `go test ./internal/trace -run TestRegistryTraceGolden -update` only
// after a deliberate change to what a span records.
func TestRegistryTraceGolden(t *testing.T) {
	names := experiments.AlgorithmNames()
	for _, must := range []string{"clh", "yang-anderson-tree"} {
		if !slices.Contains(names, must) {
			t.Fatalf("registry lacks %s", must)
		}
	}
	dir := t.TempDir()
	var b strings.Builder
	wrapped := false
	for _, alg := range names {
		build, err := experiments.Algorithm(alg)
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range []memsim.Model{memsim.CC, memsim.DSM, memsim.CCUpdate} {
			for _, limit := range []int{0, 8} {
				rec := NewRecorder(limit)
				w := harness.Workload{Model: model, N: 6, Entries: 4, CSOps: 1, Seed: 1, Sink: rec}
				kind, reason := "recording", ""
				if _, err := harness.Run(build, w); err != nil {
					kind, reason = "flight-recorder", err.Error()
				}
				a := rec.Artifact(kind)
				for i := range rec.procs {
					wrapped = wrapped || rec.procs[i].spans.filled
				}
				a.Reason = reason
				a.Algorithm = alg
				a.Model = model.String()
				a.N = w.N
				a.CreatedBy = "cmd/tracectl"
				path := filepath.Join(dir, "trace.json")
				if err := a.WriteFile(path); err != nil {
					t.Fatal(err)
				}
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(data)
				fmt.Fprintf(&b, "%s %s limit=%d %s\n", alg, model, limit, hex.EncodeToString(sum[:]))
			}
		}
	}
	if !wrapped {
		t.Fatal("no ring wrapped at limit 8: the golden does not cover a wrapped ring")
	}

	path := filepath.Join("testdata", "registry_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Errorf("artifact differs from %s line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("%d artifacts, %s has %d", len(gl)-1, path, len(wl)-1)
	}
}
