package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"fetchphi/internal/claims"
)

// writeFamilies writes one claims artifact per family; verdicts[f]
// maps claim ids to family f's verdicts.
func writeFamilies(t *testing.T, verdicts []map[string]claims.Verdict) []string {
	t.Helper()
	dir := t.TempDir()
	var paths []string
	for f, vs := range verdicts {
		art := &claims.Artifact{}
		for id, v := range vs {
			art.Claims = append(art.Claims, claims.ClaimResult{ID: id, Verdict: v})
		}
		path := filepath.Join(dir, fmt.Sprintf("CLAIMS_%d.json", f))
		if err := art.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	return paths
}

func runArgs(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestTallyAndGate: the tally counts reproduced verdicts per claim;
// the gate passes on an equal or higher tally and names every claim
// whose count fell, and a change in the number of families.
func TestTallyAndGate(t *testing.T) {
	const (
		ok   = claims.Reproduced
		fail = claims.NotReproduced
		inc  = claims.Inconclusive
	)
	baseline := filepath.Join(t.TempDir(), "SEEDS.json")
	families := writeFamilies(t, []map[string]claims.Verdict{
		{"lemma-1": ok, "theorem-1": fail},
		{"lemma-1": ok, "theorem-1": ok},
		{"lemma-1": inc, "theorem-1": ok},
	})
	code, stdout, stderr := runArgs(append([]string{"-out", baseline}, families...)...)
	if code != 0 {
		t.Fatalf("tally: exit %d\n%s", code, stderr)
	}
	for _, want := range []string{"lemma-1              reproduced in 2/3", "theorem-1            reproduced in 2/3"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("tally output lacks %q:\n%s", want, stdout)
		}
	}
	if code, stdout, stderr := runArgs(append([]string{"-baseline", baseline}, families...)...); code != 0 || !strings.Contains(stdout, "seeds gate passed") {
		t.Fatalf("self gate: exit %d\n%s%s", code, stdout, stderr)
	}

	worse := writeFamilies(t, []map[string]claims.Verdict{
		{"lemma-1": ok, "theorem-1": fail},
		{"lemma-1": fail, "theorem-1": ok},
		{"lemma-1": inc, "theorem-1": ok},
	})
	code, _, stderr = runArgs(append([]string{"-baseline", baseline}, worse...)...)
	if code != 1 || !strings.Contains(stderr, "lemma-1: reproduced in 1 seed families, down from 2") {
		t.Errorf("lowered count: exit %d, want 1 naming lemma-1\n%s", code, stderr)
	}
	if strings.Contains(stderr, "theorem-1") {
		t.Errorf("gate named a claim whose count held:\n%s", stderr)
	}

	code, _, stderr = runArgs(append([]string{"-baseline", baseline}, families[:2]...)...)
	if code != 1 || !strings.Contains(stderr, "tallied 2 seed families, the baseline 3") {
		t.Errorf("fewer families: exit %d, want 1\n%s", code, stderr)
	}
}

// TestBadInput: no artifacts, or an unreadable one, is a usage error.
func TestBadInput(t *testing.T) {
	if code, _, _ := runArgs(); code != 2 {
		t.Errorf("no arguments: exit %d, want 2", code)
	}
	if code, _, _ := runArgs(filepath.Join(t.TempDir(), "missing.json")); code != 2 {
		t.Errorf("missing artifact: exit %d, want 2", code)
	}
}
