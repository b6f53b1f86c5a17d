package baseline_test

import (
	"testing"

	"fetchphi/internal/experiments"
	"fetchphi/internal/harness"
	"fetchphi/internal/memsim"
)

// spinLocks are the registry names of the package's spin locks (the
// Yang–Anderson tree has its own tests).
var spinLocks = []string{"tas", "ticket", "t-anderson", "graunke-thakkar", "mcs", "mcs-swap-only", "clh"}

// named returns the registry's builder of each spin lock by the name
// its instance reports, which is what the tests' classifications and
// subtests are keyed by.
func named(t *testing.T) map[string]harness.Builder {
	t.Helper()
	out := make(map[string]harness.Builder)
	for _, alg := range spinLocks {
		b, err := experiments.Algorithm(alg)
		if err != nil {
			t.Fatal(err)
		}
		out[b(memsim.NewMachine(memsim.CC, 2)).Name()] = b
	}
	if len(out) != len(spinLocks) {
		t.Fatalf("%d spin locks report %d distinct names", len(spinLocks), len(out))
	}
	return out
}

// TestAllLocksCorrectUnderRandomSchedules stress-tests every baseline
// lock for mutual exclusion, deadlock freedom and completion.
func TestAllLocksCorrectUnderRandomSchedules(t *testing.T) {
	seeds := 25
	if testing.Short() {
		seeds = 8
	}
	for name, b := range named(t) {
		b := b
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if err := harness.Verify(b, 4, 6, seeds); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAllLocksModelChecked exhaustively explores two-process
// configurations of every baseline lock with up to two preemptions.
func TestAllLocksModelChecked(t *testing.T) {
	for name, b := range named(t) {
		b := b
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if _, err := harness.CheckSharded(b, 2, 2, harness.ExploreOptions{Preemptions: 2, MaxRuns: 500_000}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLocalSpinOnDSM verifies the paper's Sec. 1 classification: MCS
// (both variants) spins locally on DSM; the test-and-set, ticket,
// T. Anderson, Graunke–Thakkar, and CLH locks do not.
func TestLocalSpinOnDSM(t *testing.T) {
	localSpin := map[string]bool{
		"test-and-set":    false,
		"ticket":          false,
		"t-anderson":      false,
		"graunke-thakkar": false,
		"clh":             false,
		"mcs":             true,
		"mcs-swap-only":   true,
	}
	for name, b := range named(t) {
		want, ok := localSpin[name]
		if !ok {
			t.Fatalf("no classification for %q", name)
		}
		met, err := harness.Run(b, harness.Workload{
			Model: memsim.DSM, N: 6, Entries: 10, CSOps: 1, Seed: 3,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want && met.NonLocalSpins != 0 {
			t.Errorf("%s: %d non-local spin reads on DSM, want 0", name, met.NonLocalSpins)
		}
		if !want && met.NonLocalSpins == 0 {
			t.Errorf("%s: expected non-local spinning on DSM, saw none", name)
		}
	}
}

// TestCCRMRScaling verifies the asymptotic split on CC machines: the
// queue locks (T. Anderson, Graunke–Thakkar, MCS, CLH) have O(1) RMR
// per entry, while test-and-set and ticket grow with N.
func TestCCRMRScaling(t *testing.T) {
	meanAt := func(b harness.Builder, n int) float64 {
		met, err := harness.Run(b, harness.Workload{
			Model: memsim.CC, N: n, Entries: 8, CSOps: 1, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return met.MeanRMR
	}
	constant := map[string]bool{
		"test-and-set":    false,
		"ticket":          false,
		"t-anderson":      true,
		"graunke-thakkar": true,
		"clh":             true,
		"mcs":             true,
		"mcs-swap-only":   true,
	}
	for name, b := range named(t) {
		small, large := meanAt(b, 4), meanAt(b, 24)
		ratio := large / small
		if constant[name] && ratio > 2.0 {
			t.Errorf("%s: mean RMR grew %0.1fx (%.2f → %.2f); expected O(1)", name, ratio, small, large)
		}
		if !constant[name] && ratio < 2.0 {
			t.Errorf("%s: mean RMR grew only %0.1fx (%.2f → %.2f); expected growth with N", name, ratio, small, large)
		}
	}
}

// TestFairLocksBoundBypass checks bounded bypass for the starvation-
// free queue locks: no process is overtaken more than ~N entries while
// in its entry section.
func TestFairLocksBoundBypass(t *testing.T) {
	fair := []string{"ticket", "t-anderson", "graunke-thakkar", "mcs", "clh"}
	all := named(t)
	const n = 6
	for _, name := range fair {
		met, err := harness.Run(all[name], harness.Workload{
			Model: memsim.CC, N: n, Entries: 20, CSOps: 1, Seed: 11,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if met.MaxBypass > int64(2*n) {
			t.Errorf("%s: max bypass %d exceeds 2N=%d", name, met.MaxBypass, 2*n)
		}
	}
}

// TestMCSUncontendedFastPath: a solo acquire takes O(1) operations and
// no waiting.
func TestMCSUncontendedFastPath(t *testing.T) {
	met, err := harness.Run(named(t)["mcs"], harness.Workload{Model: memsim.DSM, N: 1, Entries: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if met.WorstRMR > 4 {
		t.Errorf("uncontended MCS entry cost %d RMRs", met.WorstRMR)
	}
}
