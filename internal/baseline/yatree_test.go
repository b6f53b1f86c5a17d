package baseline

import (
	"testing"

	"fetchphi/internal/harness"
	"fetchphi/internal/memsim"
)

func yaBuilder(m *memsim.Machine) harness.Algorithm { return NewYangAndersonTree(m) }

func TestYATreeHeight(t *testing.T) {
	tests := []struct{ n, want int }{
		{1, 0}, {2, 1}, {3, 2}, {4, 2}, {8, 3}, {9, 4}, {16, 4}, {64, 6},
	}
	for _, tt := range tests {
		m := memsim.NewMachine(memsim.CC, tt.n)
		if got := NewYangAndersonTree(m).Height(); got != tt.want {
			t.Errorf("N=%d: height %d, want %d", tt.n, got, tt.want)
		}
	}
}

func TestYATreeCorrectUnderRandomSchedules(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 6
	}
	if err := harness.Verify(yaBuilder, 5, 8, seeds); err != nil {
		t.Fatal(err)
	}
	if err := harness.VerifyPCT(yaBuilder, 5, 5, 5); err != nil {
		t.Fatal(err)
	}
}

func TestYATreeModelChecked(t *testing.T) {
	maxRuns := 300_000
	if testing.Short() {
		maxRuns = 30_000
	}
	if _, err := harness.CheckSharded(yaBuilder, 2, 2, harness.ExploreOptions{Preemptions: 3, MaxRuns: maxRuns}); err != nil {
		t.Fatal(err)
	}
	if _, err := harness.CheckSharded(yaBuilder, 3, 1, harness.ExploreOptions{Preemptions: 2, MaxRuns: maxRuns}); err != nil {
		t.Fatal(err)
	}
}

func TestYATreeLocalSpinOnDSM(t *testing.T) {
	met, err := harness.Run(yaBuilder, harness.Workload{
		Model: memsim.DSM, N: 8, Entries: 6, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if met.NonLocalSpins != 0 {
		t.Fatalf("%d non-local spin reads", met.NonLocalSpins)
	}
}

// TestYATreeLogarithmicRMR: worst RMR per entry tracks ⌈log₂ N⌉.
func TestYATreeLogarithmicRMR(t *testing.T) {
	worstAt := func(n int) (int64, int) {
		mm := memsim.NewMachine(memsim.CC, n)
		h := NewYangAndersonTree(mm).Height()
		met, err := harness.Run(yaBuilder, harness.Workload{
			Model: memsim.CC, N: n, Entries: 5, Seed: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return met.WorstRMR, h
	}
	w4, h4 := worstAt(4)
	w64, h64 := worstAt(64)
	rmrRatio := float64(w64) / float64(w4)
	heightRatio := float64(h64) / float64(h4)
	if rmrRatio > 2.5*heightRatio {
		t.Errorf("worst RMR ratio %.1f far exceeds height ratio %.1f (w4=%d w64=%d)",
			rmrRatio, heightRatio, w4, w64)
	}
}

func TestYATreeSingleProcess(t *testing.T) {
	if err := harness.Verify(yaBuilder, 1, 5, 3); err != nil {
		t.Fatal(err)
	}
}
