package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fetchphi/internal/harness"
	"fetchphi/internal/memsim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// goldenCheck exhausts one abort schedule at N=2, one entry, K=2.
func goldenCheck(t *testing.T, name string, model memsim.Model, aborts []memsim.AbortPoint) memsim.ExploreResult {
	t.Helper()
	opts := harness.ExploreOptions{Preemptions: 2, Workers: 1, Aborts: aborts}
	return harness.CheckExplorer(builder(name), model, 2, 1, opts).Run()
}

// goldenRun runs one abortable workload.
func goldenRun(t *testing.T, name string, w harness.Workload, aborts []memsim.AbortPoint, retries, delay int) (harness.Metrics, error) {
	t.Helper()
	w.Aborts, w.Retries, w.RetryDelay = aborts, retries, delay
	return harness.Run(builder(name), w)
}

// TestAbortGolden pins what the abortable paths measure: the explorer's
// Runs and DepthRuns for every abortable algorithm under every
// canonical abort schedule, and the run metrics of workloads that cover
// both retry budgets, a retry delay, non-critical work and idle
// processes. Regenerate with `go test ./internal/experiments -run
// TestAbortGolden -update` only after a deliberate change to how an
// abortable passage is driven.
func TestAbortGolden(t *testing.T) {
	var b strings.Builder
	models := []memsim.Model{memsim.CC, memsim.DSM}
	scheds := memsim.EnumerateAbortSchedules(2, 2, true)
	for _, name := range abortableNames {
		for _, model := range models {
			for _, aborts := range scheds {
				res := goldenCheck(t, name, model, aborts)
				fmt.Fprintf(&b, "check %s %v %s: runs=%d depth=%v exhausted=%v err=%v\n",
					name, model, memsim.FormatAbortSchedule(aborts), res.Runs, res.DepthRuns, res.Exhausted, res.Err)
			}
		}
	}
	points := []memsim.AbortPoint{{Proc: 0, Passage: 0, Event: 1}, {Proc: 1, Passage: 1, Event: 0}, {Proc: 2, Passage: 2, Event: 2}}
	runs := []struct {
		label          string
		w              harness.Workload
		aborts         []memsim.AbortPoint
		retries, delay int
	}{
		{"retries=0", harness.Workload{N: 3, Entries: 4, CSOps: 1, Seed: 3}, points, 0, 0},
		{"retries=1 delay=3", harness.Workload{N: 3, Entries: 4, CSOps: 1, Seed: 3}, points, 1, 3},
		{"retries=1 ncs=2", harness.Workload{N: 3, Entries: 4, CSOps: 2, NCSOps: 2, Seed: 5}, points, 1, 0},
		{"participants=2 of 4", harness.Workload{N: 4, Entries: 3, CSOps: 1, NCSOps: 1, Participants: 2, Seed: 7}, points[:2], 1, 1},
	}
	for _, name := range abortableNames {
		for _, model := range models {
			for _, r := range runs {
				w := r.w
				w.Model = model
				met, err := goldenRun(t, name, w, r.aborts, r.retries, r.delay)
				h := met.Obs.RMRPerEntry
				fmt.Fprintf(&b, "run %s %v %s: steps=%d aborts=%d passages=%d amortized=%.6f resolve=%d bypass=%d rmr-hist=%d/%d err=%v\n",
					name, model, r.label, met.Result.Steps, met.Aborts, met.Passages, met.AmortizedRMR,
					met.MaxAbortResolve, met.MaxBypass, h.Count, h.Sum, err)
			}
		}
	}

	path := filepath.Join("testdata", "abort_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("output diverges from %s at line %d:\n got %q\nwant %q", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output diverges from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
