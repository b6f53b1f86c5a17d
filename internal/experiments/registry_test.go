package experiments

import (
	"slices"
	"testing"

	"fetchphi/internal/harness"
	"fetchphi/internal/memsim"
)

// TestEveryAlgorithmVerifies runs the uniform correctness gate over
// the registry: random-schedule stress on both models plus a small
// exhaustive exploration. Run abort-free, an abortable lock is a plain
// algorithm and must pass the same gate. This is the repository's integration
// test — any algorithm change that breaks safety or liveness fails
// here even if its own package tests were not updated.
func TestEveryAlgorithmVerifies(t *testing.T) {
	if testing.Short() {
		t.Skip("registry sweep is slow")
	}
	for _, name := range AlgorithmNames() {
		b := builder(name)
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
	if len(names) != 22 {
		t.Fatalf("%d registered algorithms, want 22: %v", len(names), names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
	names[0] = "changed"
	if AlgorithmNames()[0] == "changed" {
		t.Fatal("AlgorithmNames hands out the registry's own slice")
	}
}

// TestAlgorithmLookupAllocatesNothing: the registry is built once, so
// the lookups every experiment pass makes cost no allocation.
func TestAlgorithmLookupAllocatesNothing(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, func() {
		for _, name := range names {
			if _, err := Algorithm(name); err != nil {
				t.Fatal(err)
			}
		}
	}); allocs != 0 {
		t.Fatalf("%v allocations per pass over the registry, want 0", allocs)
	}
}

// TestAbortableSubsetIsDerived: the abortable subset is exactly the
// registered algorithms whose built instance is a
// harness.AbortableAlgorithm, in name order.
func TestAbortableSubsetIsDerived(t *testing.T) {
	want := []string{"gdsm-abortable/f&i", "gdsm-abortable/f&s", "token-abortable"}
	if !slices.Equal(abortableNames, want) {
		t.Fatalf("abortable subset %v, want %v", abortableNames, want)
	}
	var built []string
	for _, name := range AlgorithmNames() {
		m := memsim.NewMachine(memsim.CC, 2)
		if _, ok := builder(name)(m).(harness.AbortableAlgorithm); ok {
			built = append(built, name)
		}
		m.Release()
	}
	if !slices.Equal(built, want) {
		t.Fatalf("built instances that are abortable: %v, want %v", built, want)
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
