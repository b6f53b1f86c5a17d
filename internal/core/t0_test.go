package core

import (
	"testing"

	"fetchphi/internal/harness"
	"fetchphi/internal/memsim"
)

func t0Builder(m *memsim.Machine) harness.Algorithm { return NewT0(m) }

func t0DegreeBuilder(degree int) harness.Builder {
	return func(m *memsim.Machine) harness.Algorithm { return NewT0WithDegree(m, degree) }
}

func TestNodeTypeCodec(t *testing.T) {
	tests := []struct {
		winner, waiter int
	}{
		{-1, -1}, {0, -1}, {5, -1}, {0, 1}, {7, 3}, {1000, 999},
	}
	for _, tt := range tests {
		w := encodeNode(tt.winner, tt.waiter)
		if nodeWinner(w) != tt.winner || nodeWaiter(w) != tt.waiter {
			t.Errorf("(%d,%d) round-tripped to (%d,%d)", tt.winner, tt.waiter, nodeWinner(w), nodeWaiter(w))
		}
	}
	if encodeNode(-1, -1) != 0 {
		t.Error("(⊥,⊥) must encode to 0 (the fresh-variable value)")
	}
}

func TestAcquireNodeTransitions(t *testing.T) {
	m := memsim.NewMachine(memsim.CC, 3)
	v := m.NewVar("node", memsim.HomeGlobal, 0)
	results := make([]AcquireResult, 3)
	for i := 0; i < 3; i++ {
		i := i
		m.AddProc("p", func(p *memsim.Proc) {
			results[i] = acquireNode(p, v)
		})
	}
	if err := m.Run(memsim.RunConfig{Sched: memsim.RoundRobin{}}).Err(); err != nil {
		t.Fatal(err)
	}
	if results[0] != Winner || results[1] != PrimaryWaiter || results[2] != SecondaryWaiter {
		t.Fatalf("results = %v %v %v", results[0], results[1], results[2])
	}
	if nodeWinner(m.Value(v)) != 0 || nodeWaiter(m.Value(v)) != 1 {
		t.Fatalf("final node = (%d,%d)", nodeWinner(m.Value(v)), nodeWaiter(m.Value(v)))
	}
}

func TestReleaseNodeSuccessAndFail(t *testing.T) {
	m := memsim.NewMachine(memsim.CC, 2)
	free := m.NewVar("free", memsim.HomeGlobal, 0)
	contested := m.NewVar("contested", memsim.HomeGlobal, encodeNode(0, 1))
	m.AddProc("p0", func(p *memsim.Proc) {
		acquireNode(p, free)
		if !releaseNode(p, free) {
			p.Machine() // unreachable; fail via panic below
			panic("release of uncontested node failed")
		}
		if releaseNode(p, contested) {
			panic("release of contested node succeeded")
		}
	})
	m.AddProc("p1", func(*memsim.Proc) {})
	if err := m.Run(memsim.RunConfig{Sched: memsim.RoundRobin{}}).Err(); err != nil {
		t.Fatal(err)
	}
	if m.Value(free) != 0 {
		t.Errorf("released node = %d, want 0", m.Value(free))
	}
	if m.Value(contested) != encodeNode(0, 1) {
		t.Errorf("failed release mutated the node")
	}
}

func TestT0MaxLevelShrinksWithDegree(t *testing.T) {
	heights := map[int]int{}
	for _, deg := range []int{2, 3, 4} {
		m := memsim.NewMachine(memsim.CC, 64)
		heights[deg] = NewT0WithDegree(m, deg).MaxLevel()
	}
	if !(heights[2] > heights[3] && heights[3] >= heights[4]) {
		t.Fatalf("heights not monotone in degree: %v", heights)
	}
	// degree 2 over 64 leaves: 64,32,16,8,4,2,1 → 7 levels.
	if heights[2] != 7 {
		t.Fatalf("degree-2 height = %d, want 7", heights[2])
	}
}

func TestT0CorrectUnderRandomSchedules(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 6
	}
	if err := harness.Verify(t0Builder, 5, 8, seeds); err != nil {
		t.Fatal(err)
	}
}

func TestT0DegreeVariantsCorrect(t *testing.T) {
	seeds := 10
	if testing.Short() {
		seeds = 4
	}
	for _, deg := range []int{2, 3, 5} {
		if err := harness.Verify(t0DegreeBuilder(deg), 6, 5, seeds); err != nil {
			t.Fatalf("degree %d: %v", deg, err)
		}
	}
}

func TestT0ModelChecked(t *testing.T) {
	maxRuns := 150_000
	if testing.Short() {
		maxRuns = 15_000
	}
	if _, err := harness.CheckSharded(t0Builder, 2, 2, harness.ExploreOptions{Preemptions: 2, MaxRuns: maxRuns}); err != nil {
		t.Fatal(err)
	}
	if _, err := harness.CheckSharded(t0Builder, 3, 1, harness.ExploreOptions{Preemptions: 2, MaxRuns: maxRuns}); err != nil {
		t.Fatal(err)
	}
}

func TestT0LocalSpinOnDSM(t *testing.T) {
	met, err := harness.Run(t0Builder, harness.Workload{
		Model: memsim.DSM, N: 9, Entries: 6, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if met.NonLocalSpins != 0 {
		t.Fatalf("%d non-local spin reads on DSM", met.NonLocalSpins)
	}
}

func TestT0StarvationFree(t *testing.T) {
	met, err := harness.Run(t0Builder, harness.Workload{
		Model: memsim.CC, N: 6, Entries: 20, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if met.MaxBypass > 4*6 {
		t.Errorf("max bypass %d suggests starvation risk", met.MaxBypass)
	}
}

// TestT0RMRTracksHeight: worst per-entry RMR should scale with the
// tree height (Θ(log N / log log N)), not with N.
func TestT0RMRTracksHeight(t *testing.T) {
	worstAt := func(n int) (int64, int) {
		mm := memsim.NewMachine(memsim.CC, n)
		h := NewT0(mm).MaxLevel()
		met, err := harness.Run(t0Builder, harness.Workload{
			Model: memsim.CC, N: n, Entries: 4, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return met.WorstRMR, h
	}
	w8, h8 := worstAt(8)
	w64, h64 := worstAt(64)
	rmrRatio := float64(w64) / float64(w8)
	heightRatio := float64(h64) / float64(h8)
	// Per-level cost is O(degree) for child scans; allow generous
	// slack while still excluding linear-in-N growth (8x).
	if rmrRatio > 3*heightRatio {
		t.Errorf("worst RMR ratio %.1f vs height ratio %.1f (w8=%d h8=%d w64=%d h64=%d)",
			rmrRatio, heightRatio, w8, h8, w64, h64)
	}
}

func TestT0RejectsDegreeOne(t *testing.T) {
	m := memsim.NewMachine(memsim.CC, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for degree 1")
		}
	}()
	NewT0WithDegree(m, 1)
}

func TestT0SingleProcess(t *testing.T) {
	if err := harness.Verify(t0Builder, 1, 5, 3); err != nil {
		t.Fatal(err)
	}
}

func TestAcquireResultString(t *testing.T) {
	if Winner.String() != "WINNER" || PrimaryWaiter.String() != "PRIMARY_WAITER" ||
		SecondaryWaiter.String() != "SECONDARY_WAITER" || AcquireResult(9).String() != "UNKNOWN" {
		t.Fatal("AcquireResult.String wrong")
	}
}
