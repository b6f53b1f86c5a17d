package core

import (
	"testing"

	"fetchphi/internal/harness"
	"fetchphi/internal/memsim"
	"fetchphi/internal/phi"
)

func nowaitBuilder(pick func(n int) phi.Primitive) harness.Builder {
	return func(m *memsim.Machine) harness.Algorithm {
		return NewGDSMNoExitWait(m, pick(m.NumProcs()))
	}
}

// TestNoExitWaitCorrectUnderRandomSchedules stresses the handshake
// extension across primitives and models.
func TestNoExitWaitCorrectUnderRandomSchedules(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 6
	}
	for name, pick := range genericPrimitives() {
		pick := pick
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if err := harness.Verify(nowaitBuilder(pick), 4, 12, seeds); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestNoExitWaitModelChecked explores small configurations
// exhaustively.
func TestNoExitWaitModelChecked(t *testing.T) {
	maxRuns := 300_000
	if testing.Short() {
		maxRuns = 30_000
	}
	if _, err := harness.CheckSharded(nowaitBuilder(func(int) phi.Primitive { return phi.FetchAndIncrement{} }),
		2, 2, harness.ExploreOptions{Preemptions: 2, MaxRuns: maxRuns}); err != nil {
		t.Fatal(err)
	}
	if _, err := harness.CheckSharded(nowaitBuilder(func(int) phi.Primitive { return phi.FetchAndStore{} }),
		3, 1, harness.ExploreOptions{Preemptions: 2, MaxRuns: maxRuns}); err != nil {
		t.Fatal(err)
	}
}

// TestNoExitWaitLocalSpinAndO1 keeps Lemma 2's guarantees.
func TestNoExitWaitLocalSpinAndO1(t *testing.T) {
	worstAt := func(n int) int64 {
		met, err := harness.Run(nowaitBuilder(func(int) phi.Primitive { return phi.FetchAndStore{} }),
			harness.Workload{Model: memsim.DSM, N: n, Entries: 6, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if met.NonLocalSpins != 0 {
			t.Fatalf("N=%d: %d non-local spin reads", n, met.NonLocalSpins)
		}
		return met.WorstRMR
	}
	w4, w32 := worstAt(4), worstAt(32)
	if w32 > 2*w4 {
		t.Errorf("worst RMR grew with N: %d → %d", w4, w32)
	}
}

// TestNoExitWaitManyGenerations cycles the queues many times so
// delegations cross generations, checking the delegation slot never
// leaks a stale successor signal.
func TestNoExitWaitManyGenerations(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		if _, err := harness.Run(nowaitBuilder(func(n int) phi.Primitive { return phi.NewBoundedFetchInc(2 * n) }),
			harness.Workload{Model: memsim.CC, N: 3, Entries: 50, Seed: seed}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestNoExitWaitReducesExitBlocking measures the point of the
// extension: across seeds, the variant never blocks in the exit
// section's old-queue wait, so its total await-block count is at most
// the standard variant's (and strictly lower on schedules where the
// standard variant waited).
func TestNoExitWaitReducesExitBlocking(t *testing.T) {
	blocks := func(b harness.Builder, seed int64) int64 {
		met, err := harness.Run(b, harness.Workload{
			Model: memsim.DSM, N: 6, Entries: 15, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, ps := range met.Result.Procs {
			total += ps.AwaitBlocks
		}
		return total
	}
	std := func(m *memsim.Machine) harness.Algorithm { return NewGDSM(m, phi.FetchAndIncrement{}) }
	nw := func(m *memsim.Machine) harness.Algorithm { return NewGDSMNoExitWait(m, phi.FetchAndIncrement{}) }

	var stdTotal, nwTotal int64
	for seed := int64(0); seed < 10; seed++ {
		stdTotal += blocks(std, seed)
		nwTotal += blocks(nw, seed)
	}
	t.Logf("await blocks: standard=%d no-exit-wait=%d", stdTotal, nwTotal)
	if nwTotal >= stdTotal {
		t.Errorf("extension did not reduce blocking: standard=%d no-exit-wait=%d", stdTotal, nwTotal)
	}
}

// TestNoExitWaitName distinguishes the variant in reports.
func TestNoExitWaitName(t *testing.T) {
	m := memsim.NewMachine(memsim.CC, 2)
	if got := NewGDSMNoExitWait(m, phi.FetchAndStore{}).Name(); got != "g-dsm-nowait/fetch-and-store" {
		t.Fatalf("Name() = %q", got)
	}
}
