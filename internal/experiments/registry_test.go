package experiments

import (
	"testing"

	"fetchphi/internal/harness"
	"fetchphi/internal/memsim"
)

// TestEveryAlgorithmVerifies runs the uniform correctness gate over
// the whole registry: random-schedule stress on both models plus a
// small exhaustive exploration. This is the repository's integration
// test — any algorithm change that breaks safety or liveness fails
// here even if its own package tests were not updated.
func TestEveryAlgorithmVerifies(t *testing.T) {
	if testing.Short() {
		t.Skip("registry sweep is slow")
	}
	for _, name := range AlgorithmNames() {
		name := name
		b, err := Algorithm(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if err := harness.Verify(b, 4, 5, 6); err != nil {
				t.Fatal(err)
			}
			if err := harness.VerifyPCT(b, 4, 4, 5); err != nil {
				t.Fatal(err)
			}
			if _, err := harness.CheckSharded(b, 2, 1, harness.ExploreOptions{Preemptions: 2, MaxRuns: 100_000}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAlgorithmLookup covers the registry API.
func TestAlgorithmLookup(t *testing.T) {
	if _, err := Algorithm("g-dsm"); err != nil {
		t.Fatal(err)
	}
	if _, err := Algorithm("nope"); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	names := AlgorithmNames()
	if len(names) < 15 {
		t.Fatalf("registry suspiciously small: %v", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
}

// TestRegistryBuildersAreIndependent: two machines built from the same
// entry share no state.
func TestRegistryBuildersAreIndependent(t *testing.T) {
	b, err := Algorithm("mcs")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := harness.Run(b, harness.Workload{
			Model: memsim.CC, N: 3, Entries: 3, Seed: int64(i),
		}); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}
