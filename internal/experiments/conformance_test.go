package experiments

import (
	"testing"

	"fetchphi/internal/harness"
)

// TestEveryAlgorithmSurvivesShardedExploration is the CI conformance
// gate the registry enforces on itself: every algorithm in
// AlgorithmNames() — paper constructions, abortable locks (abort-free)
// and baselines alike — is model-checked with the sharded explorer at
// N=2, K=2 on both memory models, and the schedule space must be
// exhausted (a capped check would silently prove nothing). Adding an
// algorithm to the registry automatically puts it under this gate.
func TestEveryAlgorithmSurvivesShardedExploration(t *testing.T) {
	entries := 2
	if testing.Short() {
		entries = 1
	}
	for _, name := range AlgorithmNames() {
		b := builder(name)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			reports, err := harness.CheckSharded(b, 2, entries, harness.ExploreOptions{
				Preemptions: 2,
				Workers:     4,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(reports) != 2 {
				t.Fatalf("%d model reports, want CC and DSM", len(reports))
			}
			for _, r := range reports {
				if !r.Result.Exhausted {
					t.Fatalf("model %v: schedule space not exhausted (%d runs) — the check proved nothing", r.Model, r.Result.Runs)
				}
				if r.Result.Runs == 0 {
					t.Fatalf("model %v: zero schedules explored", r.Model)
				}
			}
		})
	}
}
