package core

import (
	"testing"

	"fetchphi/internal/harness"
	"fetchphi/internal/memsim"
	"fetchphi/internal/phi"
)

// treeCase is one of the two algorithms built on promotionTree, with
// what its tests vary. Each property below is checked once, over both
// rows; the TestT0… and TestAlgT… functions run one row each.
type treeCase struct {
	withDegree func(m *memsim.Machine, degree int) harness.Algorithm
	// variants are the builds at the paper's degree stressed under
	// random schedules, one subtest each; nil stresses build alone.
	variants map[string]harness.Builder
	// seeds and shortSeeds are the random schedules per variant.
	seeds, shortSeeds int
	// degrees are the explicit degrees swept, with sweepSeeds and
	// shortSweepSeeds random schedules each.
	degrees                     []int
	sweepSeeds, shortSweepSeeds int
}

var (
	t0Case = treeCase{
		withDegree: func(m *memsim.Machine, degree int) harness.Algorithm { return NewT0WithDegree(m, degree) },
		seeds:      20, shortSeeds: 6,
		degrees: []int{2, 3, 5}, sweepSeeds: 10, shortSweepSeeds: 4,
	}
	tCase = treeCase{
		withDegree: func(m *memsim.Machine, degree int) harness.Algorithm {
			return NewTWithDegree(m, phi.BoundedIncDec{}, degree)
		},
		variants: func() map[string]harness.Builder {
			v := make(map[string]harness.Builder)
			for name, prim := range selfResettables() {
				v[name] = tBuilder(prim)
			}
			return v
		}(),
		seeds: 15, shortSeeds: 5,
		degrees: []int{2, 3, 4}, sweepSeeds: 8, shortSweepSeeds: 8,
	}
)

// build builds the algorithm at the paper's degree (TDegree).
func (c treeCase) build(m *memsim.Machine) harness.Algorithm {
	return c.withDegree(m, TDegree(m.NumProcs()))
}

func TestT0CorrectUnderRandomSchedules(t *testing.T)   { t0Case.correctUnderRandomSchedules(t) }
func TestAlgTCorrectUnderRandomSchedules(t *testing.T) { tCase.correctUnderRandomSchedules(t) }

// correctUnderRandomSchedules verifies mutual exclusion and progress
// at N=5 over many random schedules, for every variant on both models.
func (c treeCase) correctUnderRandomSchedules(t *testing.T) {
	seeds := c.seeds
	if testing.Short() {
		seeds = c.shortSeeds
	}
	if c.variants == nil {
		if err := harness.Verify(c.build, 5, 8, seeds); err != nil {
			t.Fatal(err)
		}
		return
	}
	for name, build := range c.variants {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if err := harness.Verify(build, 5, 8, seeds); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestT0DegreeVariantsCorrect(t *testing.T) { t0Case.degreeSweep(t) }

// TestAlgTDegreeSweep: every degree is a correct algorithm (E8c runs
// the performance side of this sweep).
func TestAlgTDegreeSweep(t *testing.T) { tCase.degreeSweep(t) }

func (c treeCase) degreeSweep(t *testing.T) {
	seeds := c.sweepSeeds
	if testing.Short() {
		seeds = c.shortSweepSeeds
	}
	for _, deg := range c.degrees {
		build := func(m *memsim.Machine) harness.Algorithm { return c.withDegree(m, deg) }
		if err := harness.Verify(build, 6, 5, seeds); err != nil {
			t.Fatalf("degree %d: %v", deg, err)
		}
	}
}

func TestT0ModelChecked(t *testing.T)   { t0Case.modelChecked(t) }
func TestAlgTModelChecked(t *testing.T) { tCase.modelChecked(t) }

// modelChecked exhaustively explores small configurations (T with the
// paper's canonical rank-3 primitive).
func (c treeCase) modelChecked(t *testing.T) {
	maxRuns := 150_000
	if testing.Short() {
		maxRuns = 15_000
	}
	for _, size := range []struct{ n, entries int }{{2, 2}, {3, 1}} {
		if _, err := harness.CheckSharded(c.build, size.n, size.entries, harness.ExploreOptions{Preemptions: 2, MaxRuns: maxRuns}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestT0LocalSpinOnDSM(t *testing.T)   { t0Case.localSpinOnDSM(t) }
func TestAlgTLocalSpinOnDSM(t *testing.T) { tCase.localSpinOnDSM(t) }

// localSpinOnDSM asserts Theorem 2's local-spin property.
func (c treeCase) localSpinOnDSM(t *testing.T) {
	met, err := harness.Run(c.build, harness.Workload{
		Model: memsim.DSM, N: 9, Entries: 6, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if met.NonLocalSpins != 0 {
		t.Fatalf("%d non-local spin reads on DSM", met.NonLocalSpins)
	}
}

func TestT0StarvationFree(t *testing.T)   { t0Case.starvationFree(t) }
func TestAlgTStarvationFree(t *testing.T) { tCase.starvationFree(t) }

// starvationFree: bounded bypass under heavy contention.
func (c treeCase) starvationFree(t *testing.T) {
	met, err := harness.Run(c.build, harness.Workload{
		Model: memsim.CC, N: 6, Entries: 20, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if met.MaxBypass > 4*6 {
		t.Errorf("max bypass %d suggests starvation risk", met.MaxBypass)
	}
}

func TestT0RMRTracksHeight(t *testing.T)   { t0Case.rmrTracksHeight(t) }
func TestAlgTRMRTracksHeight(t *testing.T) { tCase.rmrTracksHeight(t) }

// rmrTracksHeight: Theorem 2's shape — worst per-entry RMR scales with
// the Θ(log N / log log N) height, not with N.
func (c treeCase) rmrTracksHeight(t *testing.T) {
	worstAt := func(n int) (int64, int) {
		met, err := harness.Run(c.build, harness.Workload{
			Model: memsim.CC, N: n, Entries: 4, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return met.WorstRMR, THeight(n, TDegree(n))
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

func TestT0RejectsDegreeOne(t *testing.T)   { t0Case.rejectsDegreeOne(t) }
func TestAlgTRejectsDegreeOne(t *testing.T) { tCase.rejectsDegreeOne(t) }

func (c treeCase) rejectsDegreeOne(t *testing.T) {
	m := memsim.NewMachine(memsim.CC, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for degree 1")
		}
	}()
	c.withDegree(m, 1)
}

func TestT0SingleProcess(t *testing.T)   { t0Case.singleProcess(t) }
func TestAlgTSingleProcess(t *testing.T) { tCase.singleProcess(t) }

func (c treeCase) singleProcess(t *testing.T) {
	if err := harness.Verify(c.build, 1, 5, 3); err != nil {
		t.Fatal(err)
	}
}

// builtWidths returns the node count of every level of a built T0 or
// T, root first.
func builtWidths(alg harness.Algorithm) []int {
	var widths []int
	switch a := alg.(type) {
	case *T0:
		for _, level := range a.lock[1:] {
			widths = append(widths, len(level))
		}
	case *T:
		for lev, level := range a.lock0[1:] {
			if len(a.waiter[lev+1]) != len(level) {
				return nil
			}
			widths = append(widths, len(level))
		}
	}
	return widths
}

// TestT0MaxLevelShrinksWithDegree: THeight falls as the degree grows,
// and both trees are built that high.
func TestT0MaxLevelShrinksWithDegree(t *testing.T) {
	heights := map[int]int{}
	for _, deg := range []int{2, 3, 4} {
		heights[deg] = THeight(64, deg)
		for _, c := range []treeCase{t0Case, tCase} {
			m := memsim.NewMachine(memsim.CC, 64)
			alg := c.withDegree(m, deg)
			if got := len(builtWidths(alg)); got != heights[deg] {
				t.Errorf("degree %d: %s built %d levels, THeight %d", deg, alg.Name(), got, heights[deg])
			}
			m.Release()
		}
	}
	if !(heights[2] > heights[3] && heights[3] >= heights[4]) {
		t.Fatalf("heights not monotone in degree: %v", heights)
	}
	// degree 2 over 64 leaves: 64,32,16,8,4,2,1 → 7 levels.
	if heights[2] != 7 {
		t.Fatalf("degree-2 height = %d, want 7", heights[2])
	}
}

// TestTHeightMatchesBuild: THeight gives the height NewT0WithDegree and
// NewTWithDegree build, which is 1 + ⌈log_degree N⌉, and the built
// levels narrow from N leaf nodes by ⌈1/degree⌉ a level up to one
// root; NewT0 and NewT use TDegree's degree.
func TestTHeightMatchesBuild(t *testing.T) {
	for _, c := range []treeCase{t0Case, tCase} {
		for _, deg := range []int{2, 3, 4, 8} {
			for n := 1; n <= 100; n += 3 {
				want, pow := 1, 1
				for pow < n {
					pow *= deg
					want++
				}
				if got := THeight(n, deg); got != want {
					t.Errorf("N=%d degree %d: THeight %d, want %d", n, deg, got, want)
				}
				m := memsim.NewMachine(memsim.CC, n)
				widths := builtWidths(c.withDegree(m, deg))
				if len(widths) != want {
					t.Errorf("N=%d degree %d: built %d levels, want %d", n, deg, len(widths), want)
				}
				width := n
				for i := len(widths) - 1; i >= 0; i-- {
					if widths[i] != width {
						t.Errorf("N=%d degree %d level %d: %d nodes, want %d", n, deg, i+1, widths[i], width)
					}
					width = (width + deg - 1) / deg
				}
				m.Release()
			}
		}
	}
	for _, n := range []int{1, 2, 4, 16, 64, 256, 1024} {
		m := memsim.NewMachine(memsim.CC, n)
		if got := NewT0(m).degree; got != TDegree(n) {
			t.Errorf("N=%d: NewT0 degree %d, TDegree %d", n, got, TDegree(n))
		}
		if got := NewT(m, phi.BoundedIncDec{}).degree; got != TDegree(n) {
			t.Errorf("N=%d: NewT degree %d, TDegree %d", n, got, TDegree(n))
		}
		m.Release()
	}
}
