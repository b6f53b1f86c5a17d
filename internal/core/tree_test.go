package core

import (
	"testing"

	"fetchphi/internal/harness"
	"fetchphi/internal/memsim"
	"fetchphi/internal/phi"
)

// treeBuilder builds an arbitration tree over the rank-r bounded
// fetch-and-increment.
func treeBuilder(rank int) harness.Builder {
	return func(m *memsim.Machine) harness.Algorithm {
		return NewTree(m, phi.NewBoundedFetchInc(rank))
	}
}

func TestTreeHeightMatchesTheory(t *testing.T) {
	tests := []struct {
		n, rank, want int
	}{
		{n: 8, rank: 4, want: 3},   // c=2 → ⌈log2 8⌉
		{n: 9, rank: 4, want: 4},   // c=2 → ⌈log2 9⌉
		{n: 16, rank: 8, want: 2},  // c=4
		{n: 64, rank: 8, want: 3},  // c=4
		{n: 64, rank: 16, want: 2}, // c=8
		{n: 8, rank: 100, want: 1}, // c capped at n → flat
		{n: 2, rank: 4, want: 1},   // single node
	}
	for _, tt := range tests {
		m := memsim.NewMachine(memsim.CC, tt.n)
		tr := NewTree(m, phi.NewBoundedFetchInc(tt.rank))
		if tr.Height() != tt.want {
			t.Errorf("N=%d rank=%d: height %d, want %d", tt.n, tt.rank, tr.Height(), tt.want)
		}
	}
}

func TestTreeSlotAssignmentsDisjoint(t *testing.T) {
	const n, rank = 27, 6 // c = 3
	m := memsim.NewMachine(memsim.CC, n)
	tr := NewTree(m, phi.NewBoundedFetchInc(rank))
	for level := 0; level < tr.levels; level++ {
		// Two processes may share a (node, slot) only if they share
		// the entire subtree below that slot.
		type key struct {
			node *GDSM
			slot int
		}
		subtree := make(map[key]int)
		span := 1
		for l := 0; l <= level; l++ {
			span *= tr.cap
		}
		for id := 0; id < n; id++ {
			node, slot := tr.node(id, level)
			k := key{node, slot}
			if prev, ok := subtree[k]; ok && prev != id/span {
				t.Fatalf("level %d: processes of subtrees %d and %d share slot %d", level, prev, id/span, slot)
			}
			subtree[k] = id / span
		}
	}
}

func TestTreeCorrectUnderRandomSchedules(t *testing.T) {
	seeds := 15
	if testing.Short() {
		seeds = 5
	}
	for _, rank := range []int{4, 6, 8} {
		if err := harness.Verify(treeBuilder(rank), 5, 6, seeds); err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}

func TestTreeModelChecked(t *testing.T) {
	maxRuns := 200_000
	if testing.Short() {
		maxRuns = 20_000
	}
	// N=3 with c=2 exercises a two-level tree exhaustively.
	if _, err := harness.CheckSharded(treeBuilder(4), 3, 1, harness.ExploreOptions{Preemptions: 2, MaxRuns: maxRuns}); err != nil {
		t.Fatal(err)
	}
}

func TestTreeLocalSpinOnDSM(t *testing.T) {
	met, err := harness.Run(treeBuilder(4), harness.Workload{
		Model: memsim.DSM, N: 8, Entries: 5, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if met.NonLocalSpins != 0 {
		t.Fatalf("%d non-local spin reads on DSM", met.NonLocalSpins)
	}
}

// TestTreeRMRGrowsLogarithmically is the Theorem 1 shape check: for a
// fixed rank, worst-case RMR per entry should grow like log_c N — i.e.
// roughly linearly in the tree height, and far slower than N.
func TestTreeRMRGrowsLogarithmically(t *testing.T) {
	worstAt := func(n int) (int64, int) {
		m := memsim.NewMachine(memsim.CC, n)
		tr := NewTree(m, phi.NewBoundedFetchInc(4))
		h := tr.Height()
		met, err := harness.Run(treeBuilder(4), harness.Workload{
			Model: memsim.CC, N: n, Entries: 4, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return met.WorstRMR, h
	}
	w8, h8 := worstAt(8)
	w64, h64 := worstAt(64)
	// Height grows 3 → 6; per-level cost is a constant, so the worst
	// RMR ratio should track the height ratio, not the 8x process
	// ratio.
	heightRatio := float64(h64) / float64(h8)
	rmrRatio := float64(w64) / float64(w8)
	if rmrRatio > 2.5*heightRatio {
		t.Errorf("worst RMR ratio %.1f far exceeds height ratio %.1f (w8=%d h8=%d w64=%d h64=%d)",
			rmrRatio, heightRatio, w8, h8, w64, h64)
	}
}

// TestTreeHigherRankIsFlatter confirms the log base: at fixed N, a
// higher-rank primitive gives a shallower tree and fewer RMRs.
func TestTreeHigherRankIsFlatter(t *testing.T) {
	meanAt := func(rank int) float64 {
		met, err := harness.Run(treeBuilder(rank), harness.Workload{
			Model: memsim.CC, N: 32, Entries: 4, Seed: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		return met.MeanRMR
	}
	low, high := meanAt(4), meanAt(16)
	if high >= low {
		t.Errorf("rank 16 tree (%.1f RMR) not cheaper than rank 4 tree (%.1f RMR)", high, low)
	}
}

func TestTreeRejectsRankBelowFour(t *testing.T) {
	m := memsim.NewMachine(memsim.CC, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for rank-3 primitive")
		}
	}()
	NewTree(m, phi.BoundedIncDec{})
}

func TestTreeSingleProcessNoNodes(t *testing.T) {
	m := memsim.NewMachine(memsim.CC, 1)
	tr := NewTree(m, phi.NewBoundedFetchInc(4))
	if tr.Height() != 0 {
		t.Fatalf("height %d for N=1, want 0", tr.Height())
	}
	m.AddProc("p", func(p *memsim.Proc) {
		tr.Acquire(p)
		p.EnterCS()
		p.ExitCS()
		tr.Release(p)
	})
	if err := m.Run(memsim.RunConfig{Sched: memsim.RoundRobin{}}).Err(); err != nil {
		t.Fatal(err)
	}
}

// TestTreeHeightFormula cross-checks Height against ⌈log_c N⌉ for many
// sizes.
func TestTreeHeightFormula(t *testing.T) {
	for _, c := range []int{2, 3, 4, 8} {
		rank := 2 * c
		for n := 2; n <= 100; n += 7 {
			m := memsim.NewMachine(memsim.CC, n)
			tr := NewTree(m, phi.NewBoundedFetchInc(rank))
			// want = ⌈log_c n⌉, computed exactly.
			want, pow := 0, 1
			for pow < n {
				pow *= c
				want++
			}
			if got := tr.Height(); got != want {
				t.Errorf("N=%d c=%d: height %d, want %d", n, c, got, want)
			}
		}
	}
}
