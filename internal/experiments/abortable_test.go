package experiments

import (
	"encoding/json"
	"testing"

	"fetchphi/internal/harness"
	"fetchphi/internal/obs"
)

// TestEveryAbortableAlgorithmSurvivesAbortExploration is the
// registry-wide abort conformance gate, the abortable mirror of
// TestEveryAlgorithmSurvivesShardedExploration: every algorithm in
// the registry's abortable subset is exhausted at N=2, K=2 on both memory
// models under every canonical abort schedule (no abort, every
// single-point schedule, re-request doubles, cross-process pairs).
// The exploration proves mutual exclusion on abort paths and that
// non-aborting processes finish (starvation-freedom within the run);
// the per-run check hook proves withdrawal resolves within the
// wait-free bound. Registering an abortable algorithm automatically
// puts it under this gate.
func TestEveryAbortableAlgorithmSurvivesAbortExploration(t *testing.T) {
	maxEvent := 2
	if testing.Short() {
		maxEvent = 1
	}
	for _, name := range abortableNames {
		b := builder(name)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if err := harness.CheckAbortable(b, 2, 1, 2, maxEvent, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// e10Artifact runs the quick E10 sweep with the given worker count and
// returns the canonical (sorted) artifact bytes.
func e10Artifact(t *testing.T, workers int) []byte {
	t.Helper()
	art := &obs.Artifact{Schema: obs.Schema, Experiment: "E10", Params: obs.Params{Quick: true, Seed: 1}}
	E10Abortable(Opts{
		Quick: true, Seed: 1, Workers: workers,
		Record: func(c obs.Cell) { art.Cells = append(art.Cells, c) },
	})
	art.Sort()
	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestE10AmortizedDeterministicAcrossWorkers is the amortized-RMR
// determinism satellite: under the pinned abort schedule, the per-cell
// amortized figures — and every other recorded byte — are identical
// whether the sweep runs on 1, 2, or 4 workers. Same discipline as the
// byte-identical artifact tests for the plain experiments: parallelism
// may only change wall-clock time, never a measurement.
func TestE10AmortizedDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("E10 sweep ×3 is not a -short test")
	}
	ref := e10Artifact(t, 1)
	var probe struct {
		Cells []obs.Cell `json:"cells"`
	}
	if err := json.Unmarshal(ref, &probe); err != nil {
		t.Fatal(err)
	}
	if len(probe.Cells) == 0 {
		t.Fatal("serial E10 sweep recorded no cells")
	}
	for _, c := range probe.Cells {
		if c.Passages == 0 || c.AmortizedRMR == 0 || c.AbortSchedule == "" {
			t.Fatalf("cell %s lacks abort accounting: %+v", c.Key(), c)
		}
	}
	for _, workers := range []int{2, 4} {
		if got := e10Artifact(t, workers); string(got) != string(ref) {
			t.Fatalf("E10 artifact differs between 1 and %d sweep workers", workers)
		}
	}
}
