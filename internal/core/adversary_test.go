package core

import (
	"testing"

	"fetchphi/internal/harness"
	"fetchphi/internal/memsim"
	"fetchphi/internal/phi"
)

// TestStarvationFreedomUnderAdversary drives every paper algorithm
// with a scheduler that maximally disfavors each process in turn. The
// paper claims starvation freedom for all of them; completion under
// the adversary is the sharpest executable form of that claim.
func TestStarvationFreedomUnderAdversary(t *testing.T) {
	if testing.Short() {
		t.Skip("adversarial sweep is slow")
	}
	builders := map[string]harness.Builder{
		"g-cc": func(m *memsim.Machine) harness.Algorithm {
			return NewGCC(m, phi.FetchAndIncrement{})
		},
		"g-dsm": func(m *memsim.Machine) harness.Algorithm {
			return NewGDSM(m, phi.FetchAndStore{})
		},
		"g-dsm-nowait": func(m *memsim.Machine) harness.Algorithm {
			return NewGDSMNoExitWait(m, phi.FetchAndIncrement{})
		},
		"tree4": func(m *memsim.Machine) harness.Algorithm {
			return NewTree(m, phi.NewBoundedFetchInc(4))
		},
		"t0": func(m *memsim.Machine) harness.Algorithm { return NewT0(m) },
		"t": func(m *memsim.Machine) harness.Algorithm {
			return NewT(m, phi.BoundedIncDec{})
		},
	}
	for name, b := range builders {
		b := b
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if err := harness.VerifyAdversarial(b, 4, 5); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTreeWithXorPrimitive: the rank-4 fetch-and-xor drives a binary
// arbitration tree — a primitive well outside the paper's worked
// examples exercising the generic construction.
func TestTreeWithXorPrimitive(t *testing.T) {
	builder := func(m *memsim.Machine) harness.Algorithm {
		return NewTree(m, phi.NewFetchAndXor(m.NumProcs()))
	}
	if err := harness.Verify(builder, 5, 6, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := harness.CheckSharded(builder, 3, 1, harness.ExploreOptions{Preemptions: 2, MaxRuns: 100_000}); err != nil {
		t.Fatal(err)
	}
	met, err := harness.Run(builder, harness.Workload{
		Model: memsim.DSM, N: 8, Entries: 5, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if met.NonLocalSpins != 0 {
		t.Fatalf("%d non-local spins", met.NonLocalSpins)
	}
}

// TestGCCWithFetchAndAdd exercises another infinite-rank primitive
// through the flat generic algorithm under the adversary.
func TestGCCWithFetchAndAdd(t *testing.T) {
	builder := func(m *memsim.Machine) harness.Algorithm {
		return NewGCC(m, phi.FetchAndAdd{})
	}
	if err := harness.VerifyAdversarial(builder, 3, 6); err != nil {
		t.Fatal(err)
	}
}
