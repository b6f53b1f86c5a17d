package core

import (
	"testing"

	"fetchphi/internal/harness"
	"fetchphi/internal/memsim"
	"fetchphi/internal/phi"
)

// selfResettables enumerates the primitives Algorithm T accepts.
func selfResettables() map[string]phi.SelfResettable {
	return map[string]phi.SelfResettable{
		"bounded-inc-dec": phi.BoundedIncDec{},
		"fetch-and-store": phi.FetchAndStore{},
		"fetch-and-add":   phi.FetchAndAdd{},
		"double-cas":      phi.DoubleCompareSwap{},
		"set-and-write":   phi.SetAndWrite{},
	}
}

func tBuilder(prim phi.SelfResettable) harness.Builder {
	return func(m *memsim.Machine) harness.Algorithm { return NewT(m, prim) }
}

// TestAlgTCorrectUnderRandomSchedules stresses Algorithm T with every
// self-resettable primitive on both models.
func TestAlgTCorrectUnderRandomSchedules(t *testing.T) {
	seeds := 15
	if testing.Short() {
		seeds = 5
	}
	for name, prim := range selfResettables() {
		prim := prim
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if err := harness.Verify(tBuilder(prim), 5, 8, seeds); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAlgTModelChecked exhaustively explores small configurations with
// the paper's canonical rank-3 primitive.
func TestAlgTModelChecked(t *testing.T) {
	maxRuns := 150_000
	if testing.Short() {
		maxRuns = 15_000
	}
	if _, err := harness.CheckSharded(tBuilder(phi.BoundedIncDec{}), 2, 2, harness.ExploreOptions{Preemptions: 2, MaxRuns: maxRuns}); err != nil {
		t.Fatal(err)
	}
	if _, err := harness.CheckSharded(tBuilder(phi.BoundedIncDec{}), 3, 1, harness.ExploreOptions{Preemptions: 2, MaxRuns: maxRuns}); err != nil {
		t.Fatal(err)
	}
}

// TestAlgTLocalSpinOnDSM asserts Theorem 2's local-spin property.
func TestAlgTLocalSpinOnDSM(t *testing.T) {
	met, err := harness.Run(tBuilder(phi.BoundedIncDec{}), harness.Workload{
		Model: memsim.DSM, N: 9, Entries: 6, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if met.NonLocalSpins != 0 {
		t.Fatalf("%d non-local spin reads on DSM", met.NonLocalSpins)
	}
}

// TestAlgTStarvationFree: bounded bypass under heavy contention.
func TestAlgTStarvationFree(t *testing.T) {
	met, err := harness.Run(tBuilder(phi.BoundedIncDec{}), harness.Workload{
		Model: memsim.CC, N: 6, Entries: 20, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if met.MaxBypass > 4*6 {
		t.Errorf("max bypass %d suggests starvation risk", met.MaxBypass)
	}
}

// TestTHeightMatchesBuild: THeight gives the MaxLevel NewTWithDegree
// builds, which is 1 + ⌈log_degree N⌉, and the built levels narrow from
// N leaf nodes by ⌈1/degree⌉ a level up to one root; NewT uses
// TDegree's degree.
func TestTHeightMatchesBuild(t *testing.T) {
	for _, deg := range []int{2, 3, 4, 8} {
		for n := 1; n <= 100; n += 3 {
			m := memsim.NewMachine(memsim.CC, n)
			alg := NewTWithDegree(m, phi.BoundedIncDec{}, deg)
			want, pow := 1, 1
			for pow < n {
				pow *= deg
				want++
			}
			if got := THeight(n, deg); got != want || alg.MaxLevel() != want {
				t.Errorf("N=%d degree %d: THeight %d, built %d, want %d", n, deg, got, alg.MaxLevel(), want)
			}
			width := n
			for lev := alg.MaxLevel(); lev >= 1; lev-- {
				if len(alg.lock0[lev]) != width || len(alg.waiter[lev]) != width {
					t.Errorf("N=%d degree %d level %d: %d nodes, want %d", n, deg, lev, len(alg.lock0[lev]), width)
				}
				width = (width + deg - 1) / deg
			}
			m.Release()
		}
	}
	for _, n := range []int{1, 2, 4, 16, 64, 256, 1024} {
		m := memsim.NewMachine(memsim.CC, n)
		if got := NewT(m, phi.BoundedIncDec{}).degree; got != TDegree(n) {
			t.Errorf("N=%d: NewT degree %d, TDegree %d", n, got, TDegree(n))
		}
		m.Release()
	}
}

// TestAlgTRMRTracksHeight: Theorem 2's shape — worst per-entry RMR
// scales with the Θ(log N / log log N) height, not with N.
func TestAlgTRMRTracksHeight(t *testing.T) {
	worstAt := func(n int) (int64, int) {
		mm := memsim.NewMachine(memsim.CC, n)
		h := NewT(mm, phi.BoundedIncDec{}).MaxLevel()
		met, err := harness.Run(tBuilder(phi.BoundedIncDec{}), harness.Workload{
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
	if rmrRatio > 3*heightRatio {
		t.Errorf("worst RMR ratio %.1f vs height ratio %.1f (w8=%d h8=%d w64=%d h64=%d)",
			rmrRatio, heightRatio, w8, h8, w64, h64)
	}
}

// TestAlgTTwoWinnersMayPassANode: the four-way node protocol lets a
// secondary winner ascend past an occupied node; with three processes
// hammering one two-level tree this path is exercised, and the run
// stays correct.
func TestAlgTTwoWinnersMayPassANode(t *testing.T) {
	builder := func(m *memsim.Machine) harness.Algorithm {
		return NewTWithDegree(m, phi.BoundedIncDec{}, 3)
	}
	for seed := int64(0); seed < 30; seed++ {
		if _, err := harness.Run(builder, harness.Workload{
			Model: memsim.CC, N: 3, Entries: 10, Seed: seed,
		}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestAlgTRejectsLowRank(t *testing.T) {
	m := memsim.NewMachine(memsim.CC, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for rank-2 self-resettable-shaped input")
		}
	}()
	NewT(m, lowRankSelfResettable{})
}

// lowRankSelfResettable claims self-resettability but only rank 2.
type lowRankSelfResettable struct{ phi.FetchAndStore }

func (lowRankSelfResettable) Rank() int { return 2 }

func TestAlgTRejectsDegreeOne(t *testing.T) {
	m := memsim.NewMachine(memsim.CC, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for degree 1")
		}
	}()
	NewTWithDegree(m, phi.BoundedIncDec{}, 1)
}

func TestAlgTSingleProcess(t *testing.T) {
	if err := harness.Verify(tBuilder(phi.BoundedIncDec{}), 1, 5, 3); err != nil {
		t.Fatal(err)
	}
}

// TestAlgTDegreeSweep: every degree is a correct algorithm (E8c runs
// the performance side of this sweep).
func TestAlgTDegreeSweep(t *testing.T) {
	for _, deg := range []int{2, 3, 4} {
		deg := deg
		builder := func(m *memsim.Machine) harness.Algorithm {
			return NewTWithDegree(m, phi.BoundedIncDec{}, deg)
		}
		if err := harness.Verify(builder, 6, 5, 8); err != nil {
			t.Fatalf("degree %d: %v", deg, err)
		}
	}
}
