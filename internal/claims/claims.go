package claims

import (
	"fmt"
	"sort"
	"strings"

	"fetchphi/internal/fit"
	"fetchphi/internal/obs"
)

// Claim is one registry entry: a paper claim plus the predicate that
// decides, from bench artifacts alone, whether the measurements
// reproduce it.
type Claim struct {
	// ID is the stable artifact id (e.g. "lemma-1").
	ID string
	// Title and Paper are the summary-table columns: which claim, and
	// what the paper asserts.
	Title string
	Paper string
	// Experiments are the bench artifacts the predicate needs; if any
	// is absent the claim is Inconclusive without running Eval.
	Experiments []string
	// Eval runs the predicates over the (complete) evidence.
	Eval func(Bench) Outcome
}

// Outcome is one predicate evaluation.
type Outcome struct {
	Verdict  Verdict
	Measured string
	Details  []string
	Series   []SeriesFit
}

// Thresholds shared by the predicates, exported so DESIGN.md and the
// tests quote the same numbers.
const (
	// PrimitiveSpread is how far the per-N worst RMR of Algorithm
	// G-CC/G-DSM may differ across primitives and still count as "the
	// primitive does not matter" (Lemmas 1 and 2 hold for any
	// primitive of sufficient rank).
	PrimitiveSpread = 1
	// RatioBand bounds Theorem 1's worst/height ratio: the largest
	// observed ratio may exceed the smallest by at most this factor
	// before "worst RMRs ∝ tree height" stops being credible.
	RatioBand = 1.35
	// BypassSlack is how much a starvation-free algorithm's bounded
	// bypass may wiggle between run lengths (scheduler noise on a
	// structural bound), while an unfair lock's bypass must grow
	// strictly.
	BypassSlack = 2
	// AbortWaitFreeBound is the most own-process scheduling points an
	// abort request may stay pending before withdrawal stops counting
	// as wait-free. Mirrors harness.AbortResolveBound (a test asserts
	// the two never drift); claims stays a pure artifact-analysis layer
	// rather than importing the simulation harness for one constant.
	AbortWaitFreeBound = 200
)

// Registry returns the paper's claims in paper order. The six entries
// are exactly the rows of the EXPERIMENTS.md summary table, which
// cmd/claims -markdown regenerates from an evaluation so the
// documented conclusions can never drift from what CI verified.
func Registry() []Claim {
	return []Claim{
		{
			ID:          "lemma-1",
			Title:       "Lemma 1 (G-CC on CC)",
			Paper:       "O(1) RMR/entry",
			Experiments: []string{"E1"},
			Eval:        evalLemma1,
		},
		{
			ID:          "lemma-2",
			Title:       "Lemma 2 (G-DSM on DSM)",
			Paper:       "O(1) RMR/entry, local spins",
			Experiments: []string{"E2"},
			Eval:        evalLemma2,
		},
		{
			ID:          "theorem-1",
			Title:       "Theorem 1 (tree, rank r)",
			Paper:       "Θ(log_r N)",
			Experiments: []string{"E3"},
			Eval:        evalTheorem1,
		},
		{
			ID:          "theorem-2",
			Title:       "Theorem 2 (Algorithm T)",
			Paper:       "Θ(log N/log log N)",
			Experiments: []string{"E4"},
			Eval:        evalTheorem2,
		},
		{
			ID:          "rank-examples",
			Title:       "Rank examples (Sec. 2)",
			Paper:       "f&i/f&s unbounded; r-bounded = r; TAS = 2",
			Experiments: []string{"E5"},
			Eval:        evalRankExamples,
		},
		{
			ID:          "sec1-attributes",
			Title:       "Sec. 1 attributes",
			Paper:       "TA/GT CC-only; MCS O(1) both; MCS-swap-only unfair",
			Experiments: []string{"E6", "E7"},
			Eval:        evalSec1Attributes,
		},
		{
			ID:          "abortable-amortized",
			Title:       "Abortable (amortized)",
			Paper:       "O(1) amortized RMR/passage on CC and DSM; wait-free aborts",
			Experiments: []string{"E10"},
			Eval:        evalAbortableAmortized,
		},
	}
}

// Evaluate runs the full registry over the loaded bench artifacts.
// Callers stamp CreatedBy/Commit/BenchDir before writing.
func Evaluate(b Bench) *Artifact {
	art := &Artifact{Schema: Schema}
	for _, c := range Registry() {
		out := evalClaim(c, b)
		art.Claims = append(art.Claims, ClaimResult{
			ID: c.ID, Title: c.Title, Paper: c.Paper,
			Experiments: c.Experiments,
			Verdict:     out.Verdict,
			Measured:    out.Measured,
			Details:     out.Details,
			Series:      out.Series,
		})
	}
	art.Sort()
	return art
}

// evalClaim guards Eval behind the evidence-presence check.
func evalClaim(c Claim, b Bench) Outcome {
	var missing []string
	for _, id := range c.Experiments {
		if b[id] == nil {
			missing = append(missing, id)
		}
	}
	if len(missing) > 0 {
		return Outcome{
			Verdict:  Inconclusive,
			Measured: fmt.Sprintf("missing bench artifacts: %s", strings.Join(missing, ", ")),
		}
	}
	return c.Eval(b)
}

// checker accumulates predicate results. Every predicate leaves one
// line, pass or fail, so a verdict is always re-derivable from its
// details.
type checker struct {
	details []string
	failed  bool
	missing bool
}

func (c *checker) okf(format string, args ...any) {
	c.details = append(c.details, "ok — "+fmt.Sprintf(format, args...))
}

func (c *checker) failf(format string, args ...any) {
	c.details = append(c.details, "FAIL — "+fmt.Sprintf(format, args...))
	c.failed = true
}

// checkf records one predicate: the line must read as a statement of
// what held (or did not).
func (c *checker) checkf(ok bool, format string, args ...any) bool {
	if ok {
		c.okf(format, args...)
	} else {
		c.failf(format, args...)
	}
	return ok
}

// missf records absent evidence: the claim cannot be decided either
// way.
func (c *checker) missf(format string, args ...any) {
	c.details = append(c.details, "MISSING — "+fmt.Sprintf(format, args...))
	c.missing = true
}

// pick returns yes when ok holds and no otherwise: a predicate line or
// summary states what was observed, not what was hoped for.
func pick(ok bool, yes, no string) string {
	if ok {
		return yes
	}
	return no
}

// cmpOp renders how a compares to b.
func cmpOp(a, b float64) string {
	switch {
	case a < b:
		return "<"
	case a > b:
		return ">"
	}
	return "="
}

// notef records context that is not a predicate.
func (c *checker) notef(format string, args ...any) {
	c.details = append(c.details, "note — "+fmt.Sprintf(format, args...))
}

// verdict folds the accumulated results: contradiction beats absence.
func (c *checker) verdict() Verdict {
	switch {
	case c.failed:
		return NotReproduced
	case c.missing:
		return Inconclusive
	}
	return Reproduced
}

// worstSeries groups an artifact's non-wall-clock cells by algorithm
// into (N, worst RMR/entry) series, aggregating multiple cells at the
// same N (seeds) by max — worst-case claims compare worst cases.
func worstSeries(a *obs.Artifact) map[string][]fit.Point {
	byAlg := make(map[string]map[int]float64)
	for _, c := range a.Cells {
		if c.WallClock {
			continue
		}
		m := byAlg[c.Algorithm]
		if m == nil {
			m = make(map[int]float64)
			byAlg[c.Algorithm] = m
		}
		if w := float64(c.WorstRMR); w > m[c.N] {
			m[c.N] = w
		}
	}
	out := make(map[string][]fit.Point, len(byAlg))
	for alg, m := range byAlg {
		ns := make([]int, 0, len(m))
		for n := range m {
			ns = append(ns, n)
		}
		sort.Ints(ns)
		pts := make([]fit.Point, 0, len(ns))
		for _, n := range ns {
			pts = append(pts, fit.Point{N: n, Y: m[n]})
		}
		out[alg] = pts
	}
	return out
}

// sortedKeys returns a point-series map's keys in deterministic order.
func sortedKeys(m map[string][]fit.Point) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// intsCSV renders a sorted int set like "4, 16, 64".
func intsCSV(ns []int) string {
	parts := make([]string, len(ns))
	for i, n := range ns {
		parts[i] = fmt.Sprintf("%d", n)
	}
	return strings.Join(parts, ", ")
}

// constantFits is what constantFitChecks found, for a claim's summary
// line: the sweep's span, the worst figure at each end of it, how many
// series fit constant, and the evidence series.
type constantFits struct {
	minN, maxN  int
	first, last float64 // at minN and maxN, from the first series by name to reach each
	constant    int     // series whose best fit is constant
	total       int     // series checked, fitted or not
	series      []SeriesFit
}

// all reports whether every series fit constant: only then may a
// summary call the growth flat.
func (c constantFits) all() bool { return c.constant == c.total }

// span is "flat from N=a→b" when every series fit constant, and just
// "from N=a→b" otherwise.
func (c constantFits) span() string {
	s := fmt.Sprintf("from N=%d→%d", c.minN, c.maxN)
	if c.all() {
		return "flat " + s
	}
	return s
}

// tally counts the constant fits: "all 3", or "1 of 3".
func (c constantFits) tally() string {
	if c.all() {
		return fmt.Sprintf("all %d", c.total)
	}
	return fmt.Sprintf("%d of %d", c.constant, c.total)
}

// constantFitChecks asserts that every series in the map classifies
// as constant under the fit engine, appending one predicate line and
// one evidence series each.
func constantFitChecks(ck *checker, series map[string][]fit.Point, metric, expect string) constantFits {
	c := constantFits{total: len(series)}
	for _, alg := range sortedKeys(series) {
		pts := series[alg]
		if len(pts) < 2 {
			ck.missf("%s: only %d sweep point(s), cannot classify growth", alg, len(pts))
			continue
		}
		r, err := fit.Fit(pts)
		if err != nil {
			ck.missf("%s: %v", alg, err)
			continue
		}
		if ck.checkf(r.Best == fit.Constant,
			"%s %s best-fit model is %s (R² %.2f, margin %.2f%s)",
			alg, metric, r.BestName, r.BestFit().R2, r.Margin,
			flatNote(r)) {
			c.constant++
		}
		c.series = append(c.series, newSeriesFit(alg, metric, expect, r))
		if c.minN == 0 || pts[0].N < c.minN {
			c.minN, c.first = pts[0].N, pts[0].Y
		}
		lastPt := pts[len(pts)-1]
		if lastPt.N > c.maxN {
			c.maxN, c.last = lastPt.N, lastPt.Y
		}
	}
	return c
}

func flatNote(r fit.Result) string {
	if r.Flat {
		return "; flat guard rejected a tighter growth fit"
	}
	return ""
}

// primitiveAgreement asserts that, at every N, the per-primitive
// worst RMRs agree within PrimitiveSpread: the generic algorithm's
// cost depends on the primitive's rank, not its φ.
func primitiveAgreement(ck *checker, series map[string][]fit.Point) {
	perN := make(map[int][]float64)
	for _, alg := range sortedKeys(series) {
		for _, p := range series[alg] {
			perN[p.N] = append(perN[p.N], p.Y)
		}
	}
	ns := make([]int, 0, len(perN))
	for n := range perN {
		ns = append(ns, n)
	}
	sort.Ints(ns)
	worstSpread := 0.0
	for _, n := range ns {
		lo, hi := perN[n][0], perN[n][0]
		for _, y := range perN[n] {
			if y < lo {
				lo = y
			}
			if y > hi {
				hi = y
			}
		}
		if hi-lo > worstSpread {
			worstSpread = hi - lo
		}
	}
	ck.checkf(worstSpread <= PrimitiveSpread,
		"per-N worst RMR spread across primitives ≤ %d (measured max %.0f): the primitive's φ does not matter, only its rank",
		PrimitiveSpread, worstSpread)
}

// evalLemma1: Algorithm G-CC costs O(1) RMR per entry on CC machines,
// for every primitive of rank ≥ 2N.
func evalLemma1(b Bench) Outcome {
	series := worstSeries(b["E1"])
	ck := &checker{}
	if len(series) == 0 {
		ck.missf("E1 artifact has no cells")
		return Outcome{Verdict: ck.verdict(), Measured: "E1 artifact has no cells", Details: ck.details}
	}
	cf := constantFitChecks(ck, series, "worst RMR/entry", "O(1)")
	primitiveAgreement(ck, series)
	measured := fmt.Sprintf("worst %.0f→%.0f %s, best-fit constant for %s primitives",
		cf.first, cf.last, cf.span(), cf.tally())
	return Outcome{Verdict: ck.verdict(), Measured: measured, Details: ck.details, Series: cf.series}
}

// evalLemma2: Algorithm G-DSM costs O(1) RMR per entry on DSM
// machines and never busy-waits on a remote variable.
func evalLemma2(b Bench) Outcome {
	a := b["E2"]
	series := worstSeries(a)
	ck := &checker{}
	if len(series) == 0 {
		ck.missf("E2 artifact has no cells")
		return Outcome{Verdict: ck.verdict(), Measured: "E2 artifact has no cells", Details: ck.details}
	}
	cf := constantFitChecks(ck, series, "worst RMR/entry", "O(1)")
	primitiveAgreement(ck, series)
	var nonLocal int64
	for _, c := range a.Cells {
		nonLocal += c.NonLocalSpins
	}
	ck.checkf(nonLocal == 0,
		"non-local spin reads are exactly 0 across all %d DSM cells (measured %d): every spin is on a locally homed variable",
		len(a.Cells), nonLocal)
	growth := fmt.Sprintf("worst %.0f→%.0f %s", cf.first, cf.last, cf.span())
	if !cf.all() {
		growth += ", best-fit constant for " + cf.tally() + " primitives"
	}
	measured := fmt.Sprintf("%s, %d non-local spin reads", growth, nonLocal)
	return Outcome{Verdict: ck.verdict(), Measured: measured, Details: ck.details, Series: cf.series}
}

// treeHeight is ⌈log_base n⌉ computed exactly in integers (minimum 1:
// even a one-level tree arbitrates once).
func treeHeight(n, base int) int {
	if base < 2 {
		base = 2
	}
	h, reach := 0, 1
	for reach < n {
		reach *= base
		h++
	}
	if h == 0 {
		h = 1
	}
	return h
}

// evalTheorem1: the arbitration tree over rank-r primitives costs
// Θ(log_⌊r/2⌋ N): worst RMRs divided by the tree height is a constant
// independent of N, and raising the rank flattens the tree.
func evalTheorem1(b Bench) Outcome {
	a := b["E3"]
	ck := &checker{}
	// worst[(rank, N)] aggregates the tree cells; the ratio-band and
	// rank-monotonicity checks both read it.
	type key struct{ rank, n int }
	worst := make(map[key]float64)
	ranksSet := make(map[int]bool)
	nsSet := make(map[int]bool)
	for _, c := range a.Cells {
		var r int
		if _, err := fmt.Sscanf(c.Algorithm, "tree/rank-%d", &r); err != nil {
			continue
		}
		k := key{r, c.N}
		if w := float64(c.WorstRMR); w > worst[k] {
			worst[k] = w
		}
		ranksSet[r] = true
		nsSet[c.N] = true
	}
	if len(worst) == 0 {
		ck.missf("E3 artifact has no tree/rank-* cells")
		return Outcome{Verdict: ck.verdict(), Measured: "E3 artifact has no tree cells", Details: ck.details}
	}
	ranks := make([]int, 0, len(ranksSet))
	for r := range ranksSet {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	ns := make([]int, 0, len(nsSet))
	for n := range nsSet {
		ns = append(ns, n)
	}
	sort.Ints(ns)

	loRatio, hiRatio := 0.0, 0.0
	var fits []SeriesFit
	constant := 0
	for _, r := range ranks {
		var pts []fit.Point
		for _, n := range ns {
			w, ok := worst[key{r, n}]
			if !ok {
				continue
			}
			h := treeHeight(n, r/2)
			ratio := w / float64(h)
			pts = append(pts, fit.Point{N: n, Y: ratio})
			if loRatio == 0 || ratio < loRatio {
				loRatio = ratio
			}
			if ratio > hiRatio {
				hiRatio = ratio
			}
		}
		if len(pts) < 2 {
			ck.missf("rank %d: only %d sweep point(s)", r, len(pts))
			continue
		}
		res, err := fit.Fit(pts)
		if err != nil {
			ck.missf("rank %d: %v", r, err)
			continue
		}
		if ck.checkf(res.Best == fit.Constant,
			"rank %d: worst/height vs N best-fit model is %s (R² %.2f)", r, res.BestName, res.BestFit().R2) {
			constant++
		}
		fits = append(fits, newSeriesFit(
			fmt.Sprintf("tree/rank-%d", r), "worst RMR/entry ÷ height", "constant", res))
	}
	banded := hiRatio <= RatioBand*loRatio
	ck.checkf(banded,
		"worst/height ratio %s: %.1f–%.1f (max/min %.2f %s %.2f) across N∈{%s}, r∈{%s}",
		pick(banded, "pinned to a band", "outside its band"), loRatio, hiRatio, hiRatio/loRatio,
		pick(banded, "≤", ">"), RatioBand, intsCSV(ns), intsCSV(ranks))
	var raised []int // N where a higher rank cost more
	for _, n := range ns {
		prevR, prev, monotone := 0, -1.0, true
		for _, r := range ranks {
			w, ok := worst[key{r, n}]
			if !ok {
				continue
			}
			if prev >= 0 && w > prev {
				ck.failf("N=%d: raising the rank from %d to %d raises worst RMRs from %.0f to %.0f (a flatter tree must not cost more)",
					n, prevR, r, prev, w)
				monotone = false
				break
			}
			prevR, prev = r, w
		}
		if monotone {
			ck.okf("N=%d: raising the rank never raises worst RMRs (flatter tree ⇒ fewer levels)", n)
		} else {
			raised = append(raised, n)
		}
	}
	measured := fmt.Sprintf("worst/height ratio %s %.1f–%.1f across N∈{%s}, r∈{%s}",
		pick(banded, "pinned at", "spans"), loRatio, hiRatio, intsCSV(ns), intsCSV(ranks))
	if !banded {
		measured += fmt.Sprintf(" (max/min %.2f > %.2f)", hiRatio/loRatio, RatioBand)
	}
	if constant < len(fits) {
		measured += fmt.Sprintf(", best-fit constant for %d of %d ranks", constant, len(fits))
	}
	if len(raised) > 0 {
		measured += fmt.Sprintf(", a higher rank costs more at N∈{%s}", intsCSV(raised))
	}
	return Outcome{Verdict: ck.verdict(), Measured: measured, Details: ck.details, Series: fits}
}

// theorem2Expect names the asymptotic class of each E4 series.
var theorem2Expect = map[string]string{
	"t":                  "Θ(log N/log log N)",
	"t0":                 "Θ(log N/log log N)",
	"tree4":              "Θ(log₂ N)",
	"yang-anderson-tree": "Θ(log₂ N)",
}

// evalTheorem2: Algorithm T's worst RMRs stay below the binary
// arbitration tree's at every N and the gap widens as N grows — the
// measurable trace of Θ(log N/log log N) vs Θ(log₂ N).
func evalTheorem2(b Bench) Outcome {
	series := worstSeries(b["E4"])
	ck := &checker{}
	t, tree := series["t"], series["tree4"]
	if len(t) == 0 || len(tree) == 0 {
		ck.missf("E4 artifact lacks the t and tree4 series")
		return Outcome{Verdict: ck.verdict(), Measured: "E4 artifact lacks the t/tree4 series", Details: ck.details}
	}
	treeAt := make(map[int]float64, len(tree))
	for _, p := range tree {
		treeAt[p.N] = p.Y
	}
	var common []fit.Point // N with both series: Y = tree/T gap ratio
	for _, p := range t {
		if tw, ok := treeAt[p.N]; ok {
			ck.checkf(p.Y < tw,
				"N=%d: Algorithm T worst %.0f < binary tree worst %.0f", p.N, p.Y, tw)
			common = append(common, fit.Point{N: p.N, Y: tw / p.Y})
		}
	}
	if len(common) < 2 {
		ck.missf("fewer than 2 N values shared by the t and tree4 sweeps")
	} else {
		firstGap, lastGap := common[0], common[len(common)-1]
		ck.checkf(lastGap.Y > firstGap.Y,
			"the tree/T gap widens with N: ratio %.2f at N=%d → %.2f at N=%d",
			firstGap.Y, firstGap.N, lastGap.Y, lastGap.N)
	}
	if t0 := series["t0"]; len(t0) > 0 {
		tAt := make(map[int]float64, len(t))
		for _, p := range t {
			tAt[p.N] = p.Y
		}
		for _, p := range t0 {
			if tw, ok := tAt[p.N]; ok {
				ck.checkf(p.Y <= tw,
					"N=%d: T0 worst %.0f ≤ T worst %.0f (T pays for self-resetting, same class)", p.N, p.Y, tw)
			}
		}
	}
	var fits []SeriesFit
	for _, alg := range sortedKeys(series) {
		pts := series[alg]
		if len(pts) < 2 {
			continue
		}
		if r, err := fit.Fit(pts); err == nil {
			fits = append(fits, newSeriesFit(alg, "worst RMR/entry", theorem2Expect[alg], r))
		}
	}
	measured := "E4 series incomplete"
	if len(common) >= 2 {
		last := common[len(common)-1]
		tAt := make(map[int]float64, len(t))
		for _, p := range t {
			tAt[p.N] = p.Y
		}
		measured = fmt.Sprintf("at N=%d: T worst %.0f vs binary tree %.0f; tree/T gap %.2f→%.2f, widening with N",
			last.N, tAt[last.N], treeAt[last.N], common[0].Y, last.Y)
	}
	return Outcome{Verdict: ck.verdict(), Measured: measured, Details: ck.details, Series: fits}
}

// requiredRanks pins the paper's named Sec. 2 examples: these rows
// must exist in the E5 table with exactly these claimed ranks.
var requiredRanks = map[string]string{
	"fetch-and-increment":            "∞",
	"fetch-and-store":                "∞",
	"12-bounded-fetch-and-increment": "12",
	"test-and-set":                   "2",
	"compare-and-swap":               "2",
}

// evalRankExamples: the empirical rank estimator confirms every
// claimed rank from Sec. 2 (unbounded ranks saturate the probe cap),
// and every self-resettable primitive's reset identity verifies.
func evalRankExamples(b Bench) Outcome {
	a := b["E5"]
	ck := &checker{}
	var table *obs.Table
	for i := range a.Tables {
		if a.Tables[i].ID == "E5" {
			table = &a.Tables[i]
			break
		}
	}
	if table == nil {
		ck.missf("E5 artifact has no E5 table")
		return Outcome{Verdict: ck.verdict(), Measured: "E5 artifact has no rank table", Details: ck.details}
	}
	col := make(map[string]int, len(table.Columns))
	for i, c := range table.Columns {
		col[c] = i
	}
	for _, want := range []string{"primitive", "claimed rank", "estimated rank", "self-resettable", "reset identity"} {
		if _, ok := col[want]; !ok {
			ck.missf("E5 table lacks column %q", want)
		}
	}
	if ck.missing {
		return Outcome{Verdict: ck.verdict(), Measured: "E5 table schema unexpected", Details: ck.details}
	}
	seen := make(map[string]string, len(table.Rows))
	resettable, verified := 0, 0
	var mismatched, unlisted []string // rank disagreements; paper examples not as claimed
	for _, row := range table.Rows {
		name := row[col["primitive"]]
		claimed := row[col["claimed rank"]]
		est := row[col["estimated rank"]]
		seen[name] = claimed
		var ok bool
		if claimed == "∞" {
			ok = ck.checkf(strings.HasPrefix(est, "≥"),
				"%s: claimed rank ∞, estimator %s its probe cap (%s)",
				name, pick(strings.HasPrefix(est, "≥"), "saturated", "stopped below"), est)
		} else {
			ok = ck.checkf(est == claimed,
				"%s: estimated rank %s %s claimed %s%s", name, est,
				pick(est == claimed, "matches", "differs from"), claimed,
				pick(est == claimed, " exactly (and rank+1 was refuted)", ""))
		}
		if !ok {
			mismatched = append(mismatched, fmt.Sprintf("%s estimated %s, claimed %s", name, est, claimed))
		}
		if row[col["self-resettable"]] == "yes" {
			resettable++
			identity := row[col["reset identity"]]
			if ck.checkf(identity == "verified", "%s: self-reset identity %s",
				name, pick(identity == "verified", "verified", fmt.Sprintf("not verified (%q)", identity))) {
				verified++
			}
		}
	}
	for _, name := range sortedStrings(requiredRanks) {
		claimed, ok := seen[name]
		want := requiredRanks[name]
		switch {
		case !ok:
			ck.failf("paper example %s absent from the E5 table (claimed rank %s expected)", name, want)
		case claimed != want:
			ck.failf("paper example %s present with claimed rank %s, not %s", name, claimed, want)
		default:
			ck.okf("paper example %s present with claimed rank %s", name, want)
			continue
		}
		unlisted = append(unlisted, name)
	}
	measured := fmt.Sprintf("estimator confirms every claimed rank across %d primitives (unbounded ranks saturate the cap)", len(table.Rows))
	if len(mismatched) > 0 {
		measured = fmt.Sprintf("estimator confirms %d of %d claimed ranks (%s)",
			len(table.Rows)-len(mismatched), len(table.Rows), strings.Join(mismatched, "; "))
	}
	if verified == resettable {
		measured += fmt.Sprintf("; %d self-reset identities verified", resettable)
	} else {
		measured += fmt.Sprintf("; %d of %d self-reset identities verified", verified, resettable)
	}
	if len(unlisted) > 0 {
		measured += "; paper examples not as claimed: " + strings.Join(unlisted, ", ")
	}
	return Outcome{Verdict: ck.verdict(), Measured: measured, Details: ck.details}
}

func sortedStrings(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Sec. 1 attribute sets: who must spin remotely on DSM, who must not.
var (
	remoteOnDSM  = []string{"clh", "graunke-thakkar", "t-anderson", "test-and-set", "ticket"}
	localOnBoth  = []string{"g-dsm/fetch-and-store", "mcs", "mcs-swap-only"}
	queueLocksCC = []string{"clh", "graunke-thakkar", "mcs", "mcs-swap-only", "t-anderson"}
)

// evalSec1Attributes: the prior-work bullet list of Sec. 1, measured.
// Spin locality from E6 (who re-checks remote variables on which
// model), cost ordering on CC, and bounded vs growing bypass from E7.
func evalSec1Attributes(b Bench) Outcome {
	a6, a7 := b["E6"], b["E7"]
	ck := &checker{}

	type key struct{ alg, model string }
	worst := make(map[key]float64)
	spins := make(map[key]int64)
	have := make(map[key]bool)
	for _, c := range a6.Cells {
		k := key{c.Algorithm, c.Model}
		have[k] = true
		if w := float64(c.WorstRMR); w > worst[k] {
			worst[k] = w
		}
		if c.NonLocalSpins > spins[k] {
			spins[k] = c.NonLocalSpins
		}
	}
	all := append(append([]string{}, remoteOnDSM...), localOnBoth...)
	sort.Strings(all)
	for _, alg := range all {
		if !have[key{alg, "CC"}] || !have[key{alg, "DSM"}] {
			ck.missf("E6 lacks %s on both models", alg)
		}
	}
	if ck.missing {
		return Outcome{Verdict: ck.verdict(), Measured: "E6 coverage incomplete", Details: ck.details}
	}
	var remoteWhereLocal []string // "alg on model (n)" where 0 re-checks are claimed
	for _, alg := range all {
		s := spins[key{alg, "CC"}]
		if !ck.checkf(s == 0, "%s on CC: %d non-local spin re-checks", alg, s) {
			remoteWhereLocal = append(remoteWhereLocal, fmt.Sprintf("%s on CC (%d)", alg, s))
		}
	}
	loSpin, hiSpin := int64(-1), int64(0)
	var localOnDSM []string // remoteOnDSM members that did not spin remotely
	for _, alg := range remoteOnDSM {
		s := spins[key{alg, "DSM"}]
		if !ck.checkf(s > 0, "%s on DSM: %s (%d re-checks of variables homed elsewhere)",
			alg, pick(s > 0, "spins remotely", "does not spin remotely"), s) {
			localOnDSM = append(localOnDSM, alg)
		}
		if loSpin < 0 || s < loSpin {
			loSpin = s
		}
		if s > hiSpin {
			hiSpin = s
		}
	}
	for _, alg := range localOnBoth {
		s := spins[key{alg, "DSM"}]
		if !ck.checkf(s == 0, "%s on DSM: %d non-local spin re-checks (%s)",
			alg, s, pick(s == 0, "local-spin on both models", "not local-spin on DSM")) {
			remoteWhereLocal = append(remoteWhereLocal, fmt.Sprintf("%s on DSM (%d)", alg, s))
		}
	}
	maxQueue := 0.0
	for _, alg := range queueLocksCC {
		if w := worst[key{alg, "CC"}]; w > maxQueue {
			maxQueue = w
		}
	}
	ticketW, tasW := worst[key{"ticket", "CC"}], worst[key{"test-and-set", "CC"}]
	ordered := maxQueue < ticketW && ticketW < tasW
	ordering := fmt.Sprintf("queue locks %.0f %s ticket %.0f %s test-and-set %.0f",
		maxQueue, cmpOp(maxQueue, ticketW), ticketW, cmpOp(ticketW, tasW), tasW)
	ck.checkf(ordered, "CC worst-case ordering: %s (%s)",
		ordering, pick(ordered, "O(1) vs Θ(N) vs worse", "want queue locks < ticket < test-and-set"))

	// E7: bounded bypass stays put as the run grows; the unfair lock's
	// grows. Adversarial cells (algorithm suffix "/adversarial") are a
	// separate scheduler and stay out of the growth comparison.
	bypass := make(map[string]map[int]int64)
	for _, c := range a7.Cells {
		if strings.HasSuffix(c.Algorithm, "/adversarial") {
			continue
		}
		m := bypass[c.Algorithm]
		if m == nil {
			m = make(map[int]int64)
			bypass[c.Algorithm] = m
		}
		if c.MaxBypass > m[c.Entries] {
			m[c.Entries] = c.MaxBypass
		}
	}
	algs := make([]string, 0, len(bypass))
	for alg := range bypass {
		algs = append(algs, alg)
	}
	sort.Strings(algs)
	var tasShort, tasLong int64
	var unbounded []string // bypass grew past the slack, test-and-set's not counted
	for _, alg := range algs {
		m := bypass[alg]
		if len(m) < 2 {
			ck.missf("E7 %s: fewer than two run lengths", alg)
			continue
		}
		entries := make([]int, 0, len(m))
		for e := range m {
			entries = append(entries, e)
		}
		sort.Ints(entries)
		short, long := m[entries[0]], m[entries[len(entries)-1]]
		if alg == "test-and-set" {
			tasShort, tasLong = short, long
			ck.checkf(long > short, "test-and-set: bypass %s with run length (%d→%d)%s",
				pick(long > short, "grows", "does not grow"), short, long,
				pick(long > short, ": no starvation-freedom bound", ""))
		} else if !ck.checkf(long <= short+BypassSlack, "%s: bypass %s (%d→%d, slack %d)%s",
			alg, pick(long <= short+BypassSlack, "flat as the run grows", "grows past its slack as the run grows"),
			short, long, BypassSlack, pick(long <= short+BypassSlack, ": bounded bypass", "")) {
			unbounded = append(unbounded, alg)
		}
	}
	ck.notef("mcs-swap-only's FIFO violation needs an in-flight enqueue window no sweep cell drives; TestMCSSwapOnlyViolatesFIFO demonstrates it and TestMCSStandardIsFIFO proves the swap+CAS variant cannot reorder the same probe")

	measured := fmt.Sprintf("TAS/ticket/TA/GT/CLH spin remotely on DSM (%d–%d re-checks)", loSpin, hiSpin)
	if len(localOnDSM) > 0 {
		measured += " but for " + strings.Join(localOnDSM, ", ")
	}
	if len(remoteWhereLocal) == 0 {
		measured += ", MCS variants and G-DSM 0 on both"
	} else {
		measured += ", non-local spin re-checks where none are claimed: " + strings.Join(remoteWhereLocal, ", ")
	}
	if !ordered {
		measured += "; CC worst-case ordering broken: " + ordering
	}
	switch {
	case tasLong > tasShort && len(unbounded) == 0:
		measured += fmt.Sprintf("; only test-and-set's bypass grows with run length (%d→%d)", tasShort, tasLong)
	case tasLong > tasShort:
		measured += fmt.Sprintf("; bypass grows with run length for test-and-set (%d→%d) and past its slack for %s",
			tasShort, tasLong, strings.Join(unbounded, ", "))
	default:
		measured += fmt.Sprintf("; test-and-set's bypass does not grow with run length (%d→%d)", tasShort, tasLong)
		if len(unbounded) > 0 {
			measured += ", and grows past its slack for " + strings.Join(unbounded, ", ")
		}
	}
	return Outcome{Verdict: ck.verdict(), Measured: measured, Details: ck.details}
}

// amortizedSeries groups an artifact's abortable cells by
// algorithm+model into (N, amortized RMR/passage) series, aggregating
// seeds at the same N by max. Cells that never recorded a passage
// (non-abortable strays in the artifact) are excluded — the series
// must measure the amortized metric, not a zero default.
func amortizedSeries(a *obs.Artifact) map[string][]fit.Point {
	byKey := make(map[string]map[int]float64)
	for _, c := range a.Cells {
		if c.WallClock || c.Passages == 0 {
			continue
		}
		key := c.Algorithm + " on " + c.Model
		m := byKey[key]
		if m == nil {
			m = make(map[int]float64)
			byKey[key] = m
		}
		if c.AmortizedRMR > m[c.N] {
			m[c.N] = c.AmortizedRMR
		}
	}
	out := make(map[string][]fit.Point, len(byKey))
	for key, m := range byKey {
		ns := make([]int, 0, len(m))
		for n := range m {
			ns = append(ns, n)
		}
		sort.Ints(ns)
		pts := make([]fit.Point, 0, len(ns))
		for _, n := range ns {
			pts = append(pts, fit.Point{N: n, Y: m[n]})
		}
		out[key] = pts
	}
	return out
}

// evalAbortableAmortized: the abortable locks cost O(1) amortized RMR
// per passage (total RMR ÷ completed-or-withdrawn passages) on both
// models under the E10 abort adversary, every cell actually withdrew
// requests, and every withdrawal resolved within the wait-free bound.
func evalAbortableAmortized(b Bench) Outcome {
	a := b["E10"]
	series := amortizedSeries(a)
	ck := &checker{}
	if len(series) == 0 {
		ck.missf("E10 artifact has no abortable cells")
		return Outcome{Verdict: ck.verdict(), Measured: "E10 artifact has no abortable cells", Details: ck.details}
	}
	models := make(map[string]bool)
	for _, c := range a.Cells {
		if c.Passages > 0 {
			models[c.Model] = true
		}
	}
	for _, model := range []string{"CC", "DSM"} {
		if !models[model] {
			ck.missf("E10 has no abortable cells on %s; the claim spans both models", model)
		}
	}
	cf := constantFitChecks(ck, series, "amortized RMR/passage", "O(1) amortized")
	var totalAborts, worstResolve int64
	vacuous := 0
	for _, c := range a.Cells {
		if c.Passages == 0 {
			continue
		}
		totalAborts += c.Aborts
		if c.Aborts == 0 {
			vacuous++
		}
		if c.MaxAbortResolve > worstResolve {
			worstResolve = c.MaxAbortResolve
		}
	}
	ck.checkf(vacuous == 0,
		"every abortable cell withdrew at least one request (%d aborts total, %d vacuous cells): the amortized denominator is exercised everywhere",
		totalAborts, vacuous)
	ck.checkf(worstResolve <= AbortWaitFreeBound,
		"withdrawal is wait-free: worst abort resolved in %d own steps (bound %d)",
		worstResolve, AbortWaitFreeBound)
	fitted := fmt.Sprintf(" across %d series", cf.total)
	if !cf.all() {
		fitted = ", best-fit constant for " + cf.tally() + " series"
	}
	measured := fmt.Sprintf("amortized %.1f→%.1f %s%s; %d aborts, worst resolve %d steps",
		cf.first, cf.last, cf.span(), fitted, totalAborts, worstResolve)
	return Outcome{Verdict: ck.verdict(), Measured: measured, Details: ck.details, Series: cf.series}
}
