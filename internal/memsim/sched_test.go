package memsim_test

import (
	"testing"

	"fetchphi/internal/memsim"
)

// TestRandomReseedMatchesNewRandom pins Random.Reseed: one Random,
// reseeded from seed to seed, picks exactly what a fresh NewRandom of
// each seed picks, across runnable sets of every width, and reseeding
// and picking allocate nothing.
func TestRandomReseedMatchesNewRandom(t *testing.T) {
	runnable := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
	var kept memsim.Random
	for seed := int64(-50); seed < 500; seed++ {
		kept.Reseed(seed)
		fresh := memsim.NewRandom(seed)
		for step := int64(0); step < 200; step++ {
			ids := runnable[:1+step%int64(len(runnable))]
			if got, want := kept.Pick(step, ids, -1), fresh.Pick(step, ids, -1); got != want {
				t.Fatalf("seed %d step %d: reseeded Random picked %d, NewRandom(%d) picked %d", seed, step, got, seed, want)
			}
		}
	}
	if raceEnabled {
		return
	}
	seed := int64(0)
	if allocs := testing.AllocsPerRun(100, func() {
		seed++
		kept.Reseed(seed)
		kept.Pick(0, runnable, -1)
	}); allocs != 0 {
		t.Fatalf("Reseed and Pick allocate %v times per call, want 0", allocs)
	}
}
