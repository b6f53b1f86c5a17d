// Package claims is the claims-conformance engine: a declarative
// registry mapping each of the paper's claims (Lemma 1, Lemma 2,
// Theorem 1, Theorem 2, the Sec. 2 rank examples, the Sec. 1
// prior-work attributes) to machine-checkable predicates over
// fetchphi.bench/v1 artifacts and the growth models internal/fit
// assigns to their RMR-vs-N series. Evaluating the registry over a
// bench directory yields a fetchphi.claims/v1 artifact — one verdict
// per claim plus the evidence behind it — written with the same
// validation/canonical-sort/atomic-write discipline as the bench and
// trace schemas. CI gates on Compare: a claim that the checked-in
// baseline records as reproduced may never silently flip.
package claims

import (
	"fmt"
	"sort"

	"fetchphi/internal/fit"
	"fetchphi/internal/obs"
)

// Schema identifies the claims-artifact format. Bump on incompatible
// changes; ReadArtifact rejects artifacts from a different schema.
const Schema = "fetchphi.claims/v1"

// ArtifactFileName is the canonical claims-artifact file name; the
// checked-in baseline lives at bench/baseline/CLAIMS.json.
const ArtifactFileName = "CLAIMS.json"

// Verdict is one claim's conformance outcome.
type Verdict string

const (
	// Reproduced: every predicate held on the measured artifacts.
	Reproduced Verdict = "reproduced"
	// NotReproduced: at least one predicate failed — the measurements
	// contradict the claim.
	NotReproduced Verdict = "not-reproduced"
	// Inconclusive: the bench directory lacks the artifacts (or cells)
	// the claim's predicates need. Not a failure by itself; the gate
	// treats a reproduced→inconclusive transition as a flip.
	Inconclusive Verdict = "inconclusive"
)

func validVerdict(v Verdict) bool {
	switch v {
	case Reproduced, NotReproduced, Inconclusive:
		return true
	}
	return false
}

// SeriesFit is one fitted evidence series: the measured points and
// the growth model internal/fit selected for them, kept in the
// artifact so the HTML report can redraw the curve and a reviewer can
// re-derive the verdict.
type SeriesFit struct {
	// Name identifies the series (experiment, algorithm, metric).
	Name string `json:"name"`
	// Metric is the y-axis label (e.g. "worst RMR/entry").
	Metric string `json:"metric"`
	// Expect names the asymptotic shape the paper claims for it.
	Expect string `json:"expect,omitempty"`
	// Points are the measured samples, sorted by N.
	Points []fit.Point `json:"points"`
	// Best is the selected model's name; A and B its parameters; R2
	// and Flat the selection evidence (see fit.Result).
	Best string  `json:"best"`
	A    float64 `json:"a"`
	B    float64 `json:"b"`
	R2   float64 `json:"r2"`
	Flat bool    `json:"flat,omitempty"`
	// Margin is the runner-up SSE ratio (see fit.Result.Margin).
	Margin float64 `json:"margin"`
}

// newSeriesFit flattens a fit.Result into its artifact form.
func newSeriesFit(name, metric, expect string, r fit.Result) SeriesFit {
	best := r.BestFit()
	return SeriesFit{
		Name: name, Metric: metric, Expect: expect,
		Points: r.Points,
		Best:   r.BestName, A: best.A, B: best.B, R2: best.R2,
		Flat: r.Flat, Margin: r.Margin,
	}
}

// ClaimResult is one claim's verdict plus the evidence cells behind
// it.
type ClaimResult struct {
	// ID is the claim's stable registry id (e.g. "lemma-1").
	ID string `json:"id"`
	// Title and Paper are the human row: which claim, and what the
	// paper asserts (the EXPERIMENTS.md summary-table columns).
	Title string `json:"title"`
	Paper string `json:"paper"`
	// Experiments lists the bench artifacts the predicates consumed.
	Experiments []string `json:"experiments"`
	// Verdict is the outcome.
	Verdict Verdict `json:"verdict"`
	// Measured is the one-line evidence summary (the summary-table
	// "measured" column), produced mechanically from the artifacts.
	Measured string `json:"measured"`
	// Details are the individual predicate results, one line each —
	// including the failed ones, so a not-reproduced verdict names
	// exactly what broke.
	Details []string `json:"details,omitempty"`
	// Series are the fitted evidence series (empty for table-driven
	// claims like the rank examples).
	Series []SeriesFit `json:"series,omitempty"`
}

// Artifact is one evaluation of the full claims registry.
type Artifact struct {
	// Schema is always the package Schema constant.
	Schema string `json:"schema"`
	// CreatedBy names the tool that wrote the artifact.
	CreatedBy string `json:"created_by,omitempty"`
	// Commit is the repository commit, when known.
	Commit string `json:"commit,omitempty"`
	// BenchDir records which bench directory was evaluated.
	BenchDir string `json:"bench_dir,omitempty"`
	// Claims are the per-claim results, in canonical (paper) order.
	Claims []ClaimResult `json:"claims"`
}

// claimOrder is the canonical (paper) ordering of registry ids;
// unknown ids sort after known ones, alphabetically.
func claimOrder(id string) int {
	for i, c := range Registry() {
		if c.ID == id {
			return i
		}
	}
	return len(Registry())
}

// Sort orders claims canonically, making artifacts byte-stable.
func (a *Artifact) Sort() {
	sort.Slice(a.Claims, func(i, j int) bool {
		oi, oj := claimOrder(a.Claims[i].ID), claimOrder(a.Claims[j].ID)
		if oi != oj {
			return oi < oj
		}
		return a.Claims[i].ID < a.Claims[j].ID
	})
}

// Validate checks the artifact's schema invariants.
func (a *Artifact) Validate() error {
	if a.Schema != Schema {
		return fmt.Errorf("claims: artifact has schema %q, want %q", a.Schema, Schema)
	}
	seen := make(map[string]bool)
	for i, c := range a.Claims {
		if c.ID == "" {
			return fmt.Errorf("claims: claim %d has no id", i)
		}
		if seen[c.ID] {
			return fmt.Errorf("claims: duplicate claim id %q", c.ID)
		}
		seen[c.ID] = true
		if !validVerdict(c.Verdict) {
			return fmt.Errorf("claims: claim %q has verdict %q, want %s/%s/%s",
				c.ID, c.Verdict, Reproduced, NotReproduced, Inconclusive)
		}
	}
	return nil
}

// WriteFile writes the artifact, sorted and validated, through
// obs.WriteJSON: a crashed run never leaves a truncated verdict file
// behind.
func (a *Artifact) WriteFile(path string) error {
	if a.Schema == "" {
		a.Schema = Schema
	}
	a.Sort()
	if err := a.Validate(); err != nil {
		return err
	}
	return obs.WriteJSON(path, a)
}

// ReadArtifact loads and validates one claims artifact file.
func ReadArtifact(path string) (*Artifact, error) {
	a, err := obs.ReadJSON(path, Schema, func(a *Artifact) string { return a.Schema })
	if err != nil {
		return nil, err
	}
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("claims: %s: %w", path, err)
	}
	return a, nil
}

// WriteHTML writes the artifact's HTML report (see HTML) atomically,
// like the artifact itself.
func WriteHTML(a *Artifact, path string) error {
	return obs.WriteFileAtomic(path, HTML(a))
}

// Flip is one gate failure: a claim the baseline records as
// reproduced that the current evaluation no longer reproduces (or no
// longer evaluates at all).
type Flip struct {
	// ID names the flipped claim.
	ID string
	// Baseline and Current are the compared verdicts.
	Baseline, Current Verdict
	// Missing marks a claim absent from the current artifact.
	Missing bool
}

// String renders the flip as one report line.
func (f Flip) String() string {
	if f.Missing {
		return fmt.Sprintf("%s: %s in baseline but missing from current evaluation", f.ID, f.Baseline)
	}
	return fmt.Sprintf("%s: verdict flipped %s → %s", f.ID, f.Baseline, f.Current)
}

// Compare gates current against baseline: every claim the baseline
// reproduces must still be reproduced. New claims, and claims the
// baseline itself does not reproduce, are not failures — the gate
// guards against silent conclusion drift, not against growth. The
// returned slice is empty iff the gate passes.
func Compare(baseline, current *Artifact) []Flip {
	cur := make(map[string]ClaimResult, len(current.Claims))
	for _, c := range current.Claims {
		cur[c.ID] = c
	}
	var flips []Flip
	for _, b := range baseline.Claims {
		if b.Verdict != Reproduced {
			continue
		}
		c, ok := cur[b.ID]
		if !ok {
			flips = append(flips, Flip{ID: b.ID, Baseline: b.Verdict, Missing: true})
			continue
		}
		if c.Verdict != Reproduced {
			flips = append(flips, Flip{ID: b.ID, Baseline: b.Verdict, Current: c.Verdict})
		}
	}
	return flips
}
