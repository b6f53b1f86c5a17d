package claims

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fetchphi/internal/harness"
	"fetchphi/internal/obs"
)

// TestAbortWaitFreeBoundMatchesHarness pins the claims-layer mirror of
// the harness constant: the predicate and the conformance checker must
// judge wait-freedom by the same number.
func TestAbortWaitFreeBoundMatchesHarness(t *testing.T) {
	if AbortWaitFreeBound != harness.AbortResolveBound {
		t.Fatalf("claims.AbortWaitFreeBound = %d, harness.AbortResolveBound = %d — the mirrored constants drifted",
			AbortWaitFreeBound, harness.AbortResolveBound)
	}
}

const baselineDir = "../../bench/baseline"

func loadBaseline(t *testing.T) Bench {
	t.Helper()
	b, err := LoadBenchDir(baselineDir)
	if err != nil {
		t.Fatalf("LoadBenchDir(%s): %v", baselineDir, err)
	}
	return b
}

// TestEvaluateBaselineReproducesEverything is the repo's core
// conformance statement: evaluated over the checked-in quick baseline,
// every one of the paper's claims must come back reproduced. A
// predicate or measurement change that breaks this breaks the repo's
// documented conclusions.
func TestEvaluateBaselineReproducesEverything(t *testing.T) {
	art := Evaluate(loadBaseline(t))
	if got, want := len(art.Claims), len(Registry()); got != want {
		t.Fatalf("Evaluate produced %d claims, want %d", got, want)
	}
	for _, c := range art.Claims {
		if c.Verdict != Reproduced {
			t.Errorf("%s: verdict %s, want %s\nmeasured: %s\ndetails:\n  %s",
				c.ID, c.Verdict, Reproduced, c.Measured, strings.Join(c.Details, "\n  "))
		}
		if c.Measured == "" {
			t.Errorf("%s: empty measured summary", c.ID)
		}
		if len(c.Details) == 0 {
			t.Errorf("%s: no predicate detail lines", c.ID)
		}
	}
	if err := art.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

// TestEvaluateGrowthClaimsCarrySeries: the asymptotic claims must ship
// fitted evidence series (the HTML report draws them; a reviewer
// re-derives the verdict from them).
func TestEvaluateGrowthClaimsCarrySeries(t *testing.T) {
	art := Evaluate(loadBaseline(t))
	wantSeries := map[string]bool{
		"lemma-1": true, "lemma-2": true, "theorem-1": true, "theorem-2": true,
		"abortable-amortized": true,
	}
	for _, c := range art.Claims {
		if wantSeries[c.ID] && len(c.Series) == 0 {
			t.Errorf("%s: no evidence series", c.ID)
		}
		for _, s := range c.Series {
			if len(s.Points) < 2 {
				t.Errorf("%s/%s: series with %d points", c.ID, s.Name, len(s.Points))
			}
			if s.Best == "" {
				t.Errorf("%s/%s: series without a best-fit model", c.ID, s.Name)
			}
		}
	}
}

// TestEvaluateDeterministic: same bench, same artifact, byte for byte.
func TestEvaluateDeterministic(t *testing.T) {
	b := loadBaseline(t)
	a1, a2 := Evaluate(b), Evaluate(b)
	p1 := filepath.Join(t.TempDir(), "a1.json")
	p2 := filepath.Join(t.TempDir(), "a2.json")
	if err := a1.WriteFile(p1); err != nil {
		t.Fatal(err)
	}
	if err := a2.WriteFile(p2); err != nil {
		t.Fatal(err)
	}
	d1, _ := os.ReadFile(p1)
	d2, _ := os.ReadFile(p2)
	if string(d1) != string(d2) {
		t.Fatal("two evaluations of the same bench differ")
	}
}

// TestEvaluateMissingExperimentIsInconclusive: absent evidence is not
// a contradiction — the claim goes inconclusive and names what's
// missing.
func TestEvaluateMissingExperimentIsInconclusive(t *testing.T) {
	b := loadBaseline(t)
	delete(b, "E3")
	art := Evaluate(b)
	for _, c := range art.Claims {
		switch c.ID {
		case "theorem-1":
			if c.Verdict != Inconclusive {
				t.Errorf("theorem-1 without E3: verdict %s, want %s", c.Verdict, Inconclusive)
			}
			if !strings.Contains(c.Measured, "E3") {
				t.Errorf("theorem-1 measured %q does not name the missing artifact", c.Measured)
			}
		default:
			if c.Verdict != Reproduced {
				t.Errorf("%s: verdict %s, want %s (unrelated claim affected by missing E3)", c.ID, c.Verdict, Reproduced)
			}
		}
	}
}

// TestEvaluateDetectsContradiction: corrupt one measurement the
// predicates depend on and the owning claim must flip to
// not-reproduced with a FAIL line naming it.
func TestEvaluateDetectsContradiction(t *testing.T) {
	b := loadBaseline(t)
	// Give G-DSM a non-local spin: Lemma 2's locality predicate breaks.
	e2 := *b["E2"]
	e2.Cells = append([]obs.Cell(nil), e2.Cells...)
	e2.Cells[0].NonLocalSpins = 7
	b["E2"] = &e2
	art := Evaluate(b)
	for _, c := range art.Claims {
		if c.ID != "lemma-2" {
			continue
		}
		if c.Verdict != NotReproduced {
			t.Fatalf("lemma-2 with a non-local spin: verdict %s, want %s", c.Verdict, NotReproduced)
		}
		found := false
		for _, d := range c.Details {
			if strings.HasPrefix(d, "FAIL") && strings.Contains(d, "non-local") {
				found = true
			}
		}
		if !found {
			t.Fatalf("lemma-2 details lack a FAIL line for the locality break:\n  %s",
				strings.Join(c.Details, "\n  "))
		}
	}
}

// TestEvaluateDetectsGrowthMisclassification: replace E1's worst RMRs
// with a genuinely growing series and Lemma 1 must stop reproducing —
// the fit engine, not a hand-tuned threshold, is what catches it.
func TestEvaluateDetectsGrowthMisclassification(t *testing.T) {
	b := loadBaseline(t)
	e1 := *b["E1"]
	e1.Cells = append([]obs.Cell(nil), e1.Cells...)
	for i := range e1.Cells {
		e1.Cells[i].WorstRMR = int64(3 * e1.Cells[i].N) // Θ(N) growth
	}
	b["E1"] = &e1
	art := Evaluate(b)
	for _, c := range art.Claims {
		if c.ID == "lemma-1" && c.Verdict != NotReproduced {
			t.Fatalf("lemma-1 with linear RMR growth: verdict %s, want %s\ndetails:\n  %s",
				c.Verdict, NotReproduced, strings.Join(c.Details, "\n  "))
		}
	}
}

// TestEvaluateDetectsAmortizedGrowth: replace E10's amortized figures
// with a series that grows in N and the abortable claim must stop
// reproducing — the fit engine catches a lock whose withdrawal cost
// leaks into later passages.
func TestEvaluateDetectsAmortizedGrowth(t *testing.T) {
	b := loadBaseline(t)
	e10 := *b["E10"]
	e10.Cells = append([]obs.Cell(nil), e10.Cells...)
	for i := range e10.Cells {
		e10.Cells[i].AmortizedRMR = float64(5 * e10.Cells[i].N) // Θ(N) growth
	}
	b["E10"] = &e10
	art := Evaluate(b)
	for _, c := range art.Claims {
		if c.ID == "abortable-amortized" && c.Verdict != NotReproduced {
			t.Fatalf("abortable-amortized with linear amortized growth: verdict %s, want %s\ndetails:\n  %s",
				c.Verdict, NotReproduced, strings.Join(c.Details, "\n  "))
		}
	}
}

// TestEvaluateDetectsSlowWithdrawal: an E10 cell whose abort request
// stayed pending past the wait-free bound must contradict the claim
// with a FAIL line naming the bound.
func TestEvaluateDetectsSlowWithdrawal(t *testing.T) {
	b := loadBaseline(t)
	e10 := *b["E10"]
	e10.Cells = append([]obs.Cell(nil), e10.Cells...)
	e10.Cells[0].MaxAbortResolve = AbortWaitFreeBound + 1
	b["E10"] = &e10
	art := Evaluate(b)
	for _, c := range art.Claims {
		if c.ID != "abortable-amortized" {
			continue
		}
		if c.Verdict != NotReproduced {
			t.Fatalf("abortable-amortized with a slow withdrawal: verdict %s, want %s", c.Verdict, NotReproduced)
		}
		found := false
		for _, d := range c.Details {
			if strings.HasPrefix(d, "FAIL") && strings.Contains(d, "wait-free") {
				found = true
			}
		}
		if !found {
			t.Fatalf("details lack a FAIL line for the wait-free break:\n  %s", strings.Join(c.Details, "\n  "))
		}
	}
}

// TestArtifactRoundTrip: write → read → identical claims.
func TestArtifactRoundTrip(t *testing.T) {
	art := Evaluate(loadBaseline(t))
	art.CreatedBy = "claims_test"
	art.Commit = "deadbeef"
	art.BenchDir = baselineDir
	path := filepath.Join(t.TempDir(), ArtifactFileName)
	if err := art.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Claims) != len(art.Claims) {
		t.Fatalf("round-trip lost claims: %d → %d", len(art.Claims), len(got.Claims))
	}
	for i := range got.Claims {
		if got.Claims[i].ID != art.Claims[i].ID || got.Claims[i].Verdict != art.Claims[i].Verdict {
			t.Errorf("claim %d: round-trip changed %s/%s → %s/%s", i,
				art.Claims[i].ID, art.Claims[i].Verdict, got.Claims[i].ID, got.Claims[i].Verdict)
		}
	}
}

func TestValidateRejectsBadArtifacts(t *testing.T) {
	cases := []struct {
		name string
		art  Artifact
	}{
		{"wrong schema", Artifact{Schema: "fetchphi.bench/v1"}},
		{"empty id", Artifact{Schema: Schema, Claims: []ClaimResult{{Verdict: Reproduced}}}},
		{"dup id", Artifact{Schema: Schema, Claims: []ClaimResult{
			{ID: "x", Verdict: Reproduced}, {ID: "x", Verdict: Reproduced}}}},
		{"bad verdict", Artifact{Schema: Schema, Claims: []ClaimResult{{ID: "x", Verdict: "maybe"}}}},
	}
	for _, tc := range cases {
		if err := tc.art.Validate(); err == nil {
			t.Errorf("%s: Validate accepted it", tc.name)
		}
	}
}

// TestCompareFlips: the gate fires exactly on reproduced→worse
// transitions and on reproduced claims vanishing.
func TestCompareFlips(t *testing.T) {
	base := &Artifact{Schema: Schema, Claims: []ClaimResult{
		{ID: "a", Verdict: Reproduced},
		{ID: "b", Verdict: Reproduced},
		{ID: "c", Verdict: Inconclusive},
	}}
	cur := &Artifact{Schema: Schema, Claims: []ClaimResult{
		{ID: "a", Verdict: NotReproduced}, // flip
		// b missing entirely
		{ID: "c", Verdict: NotReproduced}, // baseline not reproduced: no flip
		{ID: "d", Verdict: Inconclusive},  // new claim: no flip
	}}
	flips := Compare(base, cur)
	if len(flips) != 2 {
		t.Fatalf("Compare found %d flips, want 2: %v", len(flips), flips)
	}
	byID := map[string]Flip{}
	for _, f := range flips {
		byID[f.ID] = f
	}
	if f := byID["a"]; f.Current != NotReproduced || f.Missing {
		t.Errorf("flip a: %+v", f)
	}
	if f := byID["b"]; !f.Missing {
		t.Errorf("flip b: %+v", f)
	}
	if got := byID["a"].String(); !strings.Contains(got, "a") || !strings.Contains(got, "not-reproduced") {
		t.Errorf("flip string %q lacks id/verdict", got)
	}
	if identical := Compare(base, base); len(identical) != 0 {
		t.Errorf("self-compare found flips: %v", identical)
	}
}

// TestBaselineClaimsArtifactIsCurrent: the checked-in CLAIMS.json must
// match what evaluating the checked-in bench artifacts produces today
// (same discipline as the bench baseline itself: the gate's reference
// may not go stale).
func TestBaselineClaimsArtifactIsCurrent(t *testing.T) {
	path := filepath.Join(baselineDir, ArtifactFileName)
	base, err := ReadArtifact(path)
	if err != nil {
		t.Fatalf("baseline claims artifact: %v (run `make baseline-claims` to regenerate)", err)
	}
	cur := Evaluate(loadBaseline(t))
	if flips := Compare(base, cur); len(flips) != 0 {
		t.Fatalf("checked-in claims baseline flips against a fresh evaluation: %v", flips)
	}
	for _, c := range base.Claims {
		if c.Verdict != Reproduced {
			t.Errorf("baseline records %s as %s — the shipped baseline must reproduce every claim", c.ID, c.Verdict)
		}
	}
}

// TestLoadBenchDirSkipsForeignSchemas: a bench directory legitimately
// mixes bench artifacts with trace dumps and a claims verdict file;
// the loader must take the bench ones and skip the rest (satellite:
// mixed-schema directories must not error).
func TestLoadBenchDirSkipsForeignSchemas(t *testing.T) {
	dir := t.TempDir()
	a := &obs.Artifact{Schema: obs.Schema, Experiment: "E1",
		Cells: []obs.Cell{{Experiment: "E1", Algorithm: "x", Model: "CC", N: 2, Entries: 1, Seed: 1}}}
	if err := a.WriteFile(filepath.Join(dir, obs.ArtifactName("E1"))); err != nil {
		t.Fatal(err)
	}
	trace := `{"schema": "fetchphi.trace/v1", "spans": []}`
	if err := os.WriteFile(filepath.Join(dir, "TRACE_E1.json"), []byte(trace), 0o644); err != nil {
		t.Fatal(err)
	}
	claimsArt := &Artifact{Schema: Schema, Claims: []ClaimResult{{ID: "lemma-1", Verdict: Reproduced}}}
	if err := claimsArt.WriteFile(filepath.Join(dir, ArtifactFileName)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := LoadBenchDir(dir)
	if err != nil {
		t.Fatalf("LoadBenchDir on a mixed dir: %v", err)
	}
	if len(b) != 1 || b["E1"] == nil {
		t.Fatalf("loaded %d artifacts, want exactly E1", len(b))
	}
}

func TestLoadBenchDirRejectsDuplicates(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"BENCH_E1.json", "BENCH_E1_copy.json"} {
		a := &obs.Artifact{Schema: obs.Schema, Experiment: "E1"}
		if err := a.WriteFile(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := LoadBenchDir(dir); err == nil {
		t.Fatal("two artifacts for one experiment were accepted")
	}
}

func TestMarkdownTable(t *testing.T) {
	art := Evaluate(loadBaseline(t))
	md := Markdown(art)
	lines := strings.Split(strings.TrimSpace(md), "\n")
	if got, want := len(lines), 2+len(Registry()); got != want {
		t.Fatalf("markdown has %d lines, want %d:\n%s", got, want, md)
	}
	if lines[0] != "| claim | paper | measured | verdict |" {
		t.Errorf("header row %q", lines[0])
	}
	for _, c := range Registry() {
		if !strings.Contains(md, c.Title) {
			t.Errorf("markdown lacks claim %q", c.Title)
		}
	}
	if !strings.Contains(md, "| reproduced |") {
		t.Error("markdown lacks a reproduced verdict cell")
	}
}

// synthBench builds an E1, E2 and E10 bench over N = 2..32 whose
// series are flat at 17, except that the first series by name (the
// one the summary line quotes) costs 3N RMRs when grow is set.
func synthBench(grow bool) Bench {
	worst := func(alg string, n int) int64 {
		if grow && alg == "a" {
			return int64(3 * n)
		}
		return 17
	}
	var e1, e2, e10 []obs.Cell
	for _, n := range []int{2, 4, 8, 16, 32} {
		for _, alg := range []string{"a", "b", "c"} {
			e1 = append(e1, obs.Cell{Algorithm: alg, Model: "CC", N: n, WorstRMR: worst(alg, n)})
			e2 = append(e2, obs.Cell{Algorithm: alg, Model: "DSM", N: n, WorstRMR: worst(alg, n)})
		}
		for _, s := range []struct{ alg, model string }{{"a", "CC"}, {"b", "CC"}, {"b", "DSM"}} {
			e10 = append(e10, obs.Cell{
				Algorithm: s.alg, Model: s.model, N: n,
				Passages: 100, Aborts: 4, MaxAbortResolve: 3,
				AmortizedRMR: float64(worst(s.alg, n)),
			})
		}
	}
	return Bench{
		"E1":  &obs.Artifact{Cells: e1},
		"E2":  &obs.Artifact{Cells: e2},
		"E10": &obs.Artifact{Cells: e10},
	}
}

// TestGrowthSummaryFollowsFits: a claim's measured line may call its
// growth flat, and its fits constant for all series, only when every
// fit says so; one growing series must show in the line as it does in
// the verdict.
func TestGrowthSummaryFollowsFits(t *testing.T) {
	eval := map[string]func(Bench) Outcome{
		"lemma-1":             evalLemma1,
		"lemma-2":             evalLemma2,
		"abortable-amortized": evalAbortableAmortized,
	}
	for _, tc := range []struct {
		claim    string
		grow     bool
		verdict  Verdict
		measured string
	}{
		{"lemma-1", false, Reproduced,
			"worst 17→17 flat from N=2→32, best-fit constant for all 3 primitives"},
		{"lemma-1", true, NotReproduced,
			"worst 6→96 from N=2→32, best-fit constant for 2 of 3 primitives"},
		{"lemma-2", false, Reproduced,
			"worst 17→17 flat from N=2→32, 0 non-local spin reads"},
		{"lemma-2", true, NotReproduced,
			"worst 6→96 from N=2→32, best-fit constant for 2 of 3 primitives, 0 non-local spin reads"},
		{"abortable-amortized", false, Reproduced,
			"amortized 17.0→17.0 flat from N=2→32 across 3 series; 60 aborts, worst resolve 3 steps"},
		{"abortable-amortized", true, NotReproduced,
			"amortized 6.0→96.0 from N=2→32, best-fit constant for 2 of 3 series; 60 aborts, worst resolve 3 steps"},
	} {
		o := eval[tc.claim](synthBench(tc.grow))
		if o.Verdict != tc.verdict || o.Measured != tc.measured {
			t.Errorf("%s (grow %v): %s, %q\nwant %s, %q\ndetails:\n  %s", tc.claim, tc.grow,
				o.Verdict, o.Measured, tc.verdict, tc.measured, strings.Join(o.Details, "\n  "))
		}
	}
}
