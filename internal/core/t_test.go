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
