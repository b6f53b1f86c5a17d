package phi

import (
	"strings"
	"testing"
)

const (
	rankTrials = 300
	rankSeed   = 1
)

// TestClaimedRanksHold verifies, for every primitive, that no random
// interleaving violates the rank the primitive claims (capped at 64 for
// the infinite-rank primitives).
func TestClaimedRanksHold(t *testing.T) {
	const n = 6
	for _, prim := range All(n) {
		prim := prim
		t.Run(prim.Name(), func(t *testing.T) {
			r := prim.Rank()
			if r == RankInfinite {
				r = 64
			}
			if v := CheckRank(prim, n, r, rankTrials, rankSeed); v != nil {
				t.Fatal(v)
			}
		})
	}
}

// TestFiniteRanksAreTight verifies that for every finite-rank
// primitive, rank+1 is refuted by some interleaving — i.e. the claimed
// rank is exact, not merely a lower bound.
func TestFiniteRanksAreTight(t *testing.T) {
	const n = 6
	for _, prim := range All(n) {
		if prim.Rank() == RankInfinite {
			continue
		}
		prim := prim
		t.Run(prim.Name(), func(t *testing.T) {
			if v := CheckRank(prim, n, prim.Rank()+1, 5000, rankSeed); v == nil {
				t.Fatalf("no interleaving refuted rank %d; claimed rank %d is not tight",
					prim.Rank()+1, prim.Rank())
			}
		})
	}
}

// TestEstimateRankMatchesClaims checks the estimator against the
// claimed ranks.
func TestEstimateRankMatchesClaims(t *testing.T) {
	const n = 5
	const cap = 40
	for _, prim := range All(n) {
		prim := prim
		t.Run(prim.Name(), func(t *testing.T) {
			got := EstimateRank(prim, n, cap, 2000, rankSeed)
			want := prim.Rank()
			if want > cap {
				want = cap
			}
			if got != want {
				t.Fatalf("EstimateRank = %d, want %d", got, want)
			}
		})
	}
}

// TestEstimateRankReseedsLikeCheckRank: EstimateRank, which reseeds
// one source per rank, returns what calling CheckRank with seed+r for
// each rank r returns. Two trials per rank make the estimate depend on
// the exact random streams, so any other stream shows.
func TestEstimateRankReseedsLikeCheckRank(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		for _, prim := range All(3) {
			want := 0
			for r := 1; r <= 14 && CheckRank(prim, 3, r, 2, seed+int64(r)) == nil; r++ {
				want = r
			}
			if got := EstimateRank(prim, 3, 14, 2, seed); got != want {
				t.Errorf("%s seed %d: EstimateRank = %d, CheckRank per rank gives %d", prim.Name(), seed, got, want)
			}
		}
	}
}

// TestBoundedFetchIncRankScales spot-checks that the parameterized rank
// of the bounded fetch-and-increment tracks its bound.
func TestBoundedFetchIncRankScales(t *testing.T) {
	for _, r := range []int{2, 3, 5, 8, 16} {
		prim := NewBoundedFetchInc(r)
		if got := EstimateRank(prim, 4, r+4, 3000, rankSeed); got != r {
			t.Errorf("bound %d: estimated rank %d", r, got)
		}
	}
}

// TestSelfResettablePrimitives verifies both self-resettability
// requirements for every primitive that claims the property.
func TestSelfResettablePrimitives(t *testing.T) {
	const n = 6
	for _, prim := range All(n) {
		sr, ok := prim.(SelfResettable)
		if !ok {
			continue
		}
		t.Run(prim.Name(), func(t *testing.T) {
			if err := CheckSelfReset(sr, n, 200, 100, rankSeed); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestTestAndSetRankViolationDetail confirms the checker reports a
// condition-(i) violation with a useful message when test-and-set is
// claimed to have rank 3.
func TestTestAndSetRankViolationDetail(t *testing.T) {
	v := CheckRank(TestAndSet{}, 4, 3, 1000, rankSeed)
	if v == nil {
		t.Fatal("expected a violation for test-and-set at rank 3")
	}
	if v.Condition != 1 && v.Condition != 2 {
		t.Fatalf("condition = %d, want a write-collision condition", v.Condition)
	}
	if !strings.Contains(v.Error(), "test-and-set") {
		t.Fatalf("error lacks primitive name: %s", v.Error())
	}
}

// TestRankWithSingleProcess checks the degenerate n=1 system: condition
// (ii) still binds (successive writes by the same process must differ
// among the first r−1).
func TestRankWithSingleProcess(t *testing.T) {
	if v := CheckRank(FetchAndStore{}, 1, 16, 200, rankSeed); v != nil {
		t.Fatal(v)
	}
	if v := CheckRank(TestAndSet{}, 1, 3, 1000, rankSeed); v == nil {
		t.Fatal("test-and-set should violate rank 3 even with one process")
	}
}

// TestCheckRankAllocsIndependentOfTrials keeps the trial loop
// allocation-free: everything CheckRank allocates is per-call setup,
// so 1000 trials must allocate exactly what one trial does.
func TestCheckRankAllocsIndependentOfTrials(t *testing.T) {
	allocs := func(trials int) float64 {
		return testing.AllocsPerRun(10, func() {
			if v := CheckRank(FetchAndIncrement{}, 6, 48, trials, 1); v != nil {
				t.Fatal(v)
			}
		})
	}
	if one, many := allocs(1), allocs(1000); one != many {
		t.Fatalf("CheckRank allocates %v objects for 1 trial but %v for 1000: the trial loop allocates", one, many)
	}
}

// BenchmarkCheckRank measures one CheckRank call at n=6, r=48 for an
// infinite-rank primitive and for a finite-rank one whose rank (48)
// the probe does not exceed, so both run every trial to the end.
func BenchmarkCheckRank(b *testing.B) {
	for _, prim := range []Primitive{FetchAndIncrement{}, NewBoundedFetchInc(48)} {
		b.Run(prim.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if v := CheckRank(prim, 6, 48, rankTrials, int64(i)); v != nil {
					b.Fatal(v)
				}
			}
		})
	}
}

// TestSurveyKeepsPrimitiveOrder checks that the fan-out returns each
// primitive's result at its own index, whatever the worker count.
func TestSurveyKeepsPrimitiveOrder(t *testing.T) {
	prims := All(4)
	for _, workers := range []int{0, 1, 2, 3, 64} {
		got := Survey(prims, workers, func(prim Primitive) string { return prim.Name() })
		if len(got) != len(prims) {
			t.Fatalf("workers=%d: %d results for %d primitives", workers, len(got), len(prims))
		}
		for i, prim := range prims {
			if got[i] != prim.Name() {
				t.Fatalf("workers=%d: result %d is %q, want %q", workers, i, got[i], prim.Name())
			}
		}
	}
	if got := Survey(nil, 4, func(Primitive) int { return 1 }); len(got) != 0 {
		t.Fatalf("empty survey returned %v", got)
	}
}
