package core

import (
	"testing"

	"fetchphi/internal/harness"
	"fetchphi/internal/memsim"
	"fetchphi/internal/phi"
)

func specializedBuilder(m *memsim.Machine) harness.Algorithm { return NewGCCFetchInc(m) }

func TestSpecializedGCCCorrect(t *testing.T) {
	if err := harness.Verify(specializedBuilder, 4, 12, 15); err != nil {
		t.Fatal(err)
	}
	if err := harness.VerifyPCT(specializedBuilder, 4, 5, 5); err != nil {
		t.Fatal(err)
	}
	if err := harness.VerifyAdversarial(specializedBuilder, 4, 5); err != nil {
		t.Fatal(err)
	}
}

func TestSpecializedGCCModelChecked(t *testing.T) {
	maxRuns := 300_000
	if testing.Short() {
		maxRuns = 30_000
	}
	if _, err := harness.CheckSharded(specializedBuilder, 2, 2, harness.ExploreOptions{Preemptions: 2, MaxRuns: maxRuns}); err != nil {
		t.Fatal(err)
	}
	if _, err := harness.CheckSharded(specializedBuilder, 3, 1, harness.ExploreOptions{Preemptions: 2, MaxRuns: maxRuns}); err != nil {
		t.Fatal(err)
	}
}

// TestSpecializedGCCCheaper: removing the Position traffic must lower
// the mean RMR per entry relative to the generic algorithm with the
// same primitive.
func TestSpecializedGCCCheaper(t *testing.T) {
	mean := func(b harness.Builder) float64 {
		met, err := harness.Run(b, harness.Workload{
			Model: memsim.CC, N: 8, Entries: 10, CSOps: 1, Seed: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return met.MeanRMR
	}
	generic := mean(gccBuilder(func(int) phi.Primitive { return phi.FetchAndIncrement{} }))
	specialized := mean(specializedBuilder)
	t.Logf("mean RMR/entry: generic=%.1f specialized=%.1f", generic, specialized)
	if specialized >= generic {
		t.Errorf("specialization did not reduce RMRs: %.1f vs %.1f", specialized, generic)
	}
}

// TestSpecializedGCCSoak cycles many generations (positions derived
// from fetch values must stay aligned across resets).
func TestSpecializedGCCSoak(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		if _, err := harness.Run(specializedBuilder, harness.Workload{
			Model: memsim.CC, N: 3, Entries: 60, CSOps: 1, Seed: seed,
		}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
