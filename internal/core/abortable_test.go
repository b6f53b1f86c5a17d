package core

import (
	"strings"
	"testing"

	"fetchphi/internal/harness"
	"fetchphi/internal/memsim"
	"fetchphi/internal/phi"
)

// Both abortable locks implement harness.AbortableAlgorithm: Acquire and
// Release keep their non-abortable contract, so each also runs the
// standard conformance suite unchanged.
var (
	_ harness.AbortableAlgorithm = (*TokenAbortable)(nil)
	_ harness.AbortableAlgorithm = (*GDSMAbortable)(nil)
)

func tokenAbortableBuilder() harness.Builder {
	return func(m *memsim.Machine) harness.Algorithm { return NewTokenAbortable(m) }
}

func gdsmAbortableBuilder(pick func(n int) phi.Primitive) harness.Builder {
	return func(m *memsim.Machine) harness.Algorithm {
		return NewGDSMAbortable(m, pick(m.NumProcs()))
	}
}

// abortableBuilders is the package's abortable-lock roster, used by
// every test below; the experiments registry mirrors it.
func abortableBuilders() map[string]harness.Builder {
	return map[string]harness.Builder{
		"token-abortable":    tokenAbortableBuilder(),
		"gdsm-abortable/f&i": gdsmAbortableBuilder(func(int) phi.Primitive { return phi.FetchAndIncrement{} }),
		"gdsm-abortable/f&s": gdsmAbortableBuilder(func(int) phi.Primitive { return phi.FetchAndStore{} }),
	}
}

// TestAbortableCorrectAbortFree: with no abort scheduled, the
// abortable locks are ordinary mutual exclusion algorithms and must
// pass the standard random-schedule stress on both models.
func TestAbortableCorrectAbortFree(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for name, b := range abortableBuilders() {
		b := b
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if err := harness.Verify(b, 4, 10, seeds); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAbortableUnderRandomAbortSchedules stresses the abort paths:
// every process gets an abort point somewhere in its entry section,
// with one re-request allowed, across seeds and models. The runs must
// stay violation-free, and aborts must actually happen (a schedule
// that never fires would test nothing).
func TestAbortableUnderRandomAbortSchedules(t *testing.T) {
	seeds := 10
	if testing.Short() {
		seeds = 3
	}
	for name, b := range abortableBuilders() {
		b := b
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var totalAborts int64
			for _, model := range []memsim.Model{memsim.CC, memsim.DSM} {
				for seed := 0; seed < seeds; seed++ {
					w := harness.Workload{
						Model: model, N: 4, Entries: 6, CSOps: 1, Seed: int64(seed),
						Aborts: []memsim.AbortPoint{
							{Proc: 0, Passage: 1, Event: 2},
							{Proc: 1, Passage: 2, Event: 0},
							{Proc: 2, Passage: 0, Event: 5},
							{Proc: 3, Passage: 4, Event: 3},
						},
						Retries:    1,
						RetryDelay: 2,
					}
					met, err := harness.Run(b, w)
					if err != nil {
						t.Fatalf("model %v seed %d: %v", model, seed, err)
					}
					totalAborts += met.Aborts
					if met.Passages != met.Result.CSEntries+met.Aborts {
						t.Fatalf("model %v seed %d: passages=%d != entries=%d + aborts=%d",
							model, seed, met.Passages, met.Result.CSEntries, met.Aborts)
					}
					if met.MaxAbortResolve > harness.AbortResolveBound {
						t.Fatalf("model %v seed %d: abort resolution took %d own steps (bound %d)",
							model, seed, met.MaxAbortResolve, harness.AbortResolveBound)
					}
				}
			}
			if totalAborts == 0 {
				t.Fatal("abort schedule never fired; the stress is vacuous")
			}
		})
	}
}

// TestAbortableAdversarialWithAborts combines the starvation adversary
// with abort schedules: the victim process both gets starved by the
// scheduler and has its requests aborted; everyone must still finish.
func TestAbortableAdversarialWithAborts(t *testing.T) {
	for name, b := range abortableBuilders() {
		b := b
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, model := range []memsim.Model{memsim.CC, memsim.DSM} {
				for victim := 0; victim < 3; victim++ {
					w := harness.Workload{
						Model: model, N: 3, Entries: 4, CSOps: 1,
						Sched:   memsim.NewAdversary(int64(victim)+1, victim),
						Aborts:  []memsim.AbortPoint{{Proc: victim, Passage: 1, Event: 1}},
						Retries: 1,
					}
					if _, err := harness.Run(b, w); err != nil {
						t.Fatalf("model %v victim %d: %v", model, victim, err)
					}
				}
			}
		})
	}
}

// TestAbortableExhaustiveSmall is the package-level slice of the
// acceptance bar: exhaust the preemption-bounded schedule space at
// N=2, K=2 for every canonical abort schedule over entry events 0..2,
// on both models. (The registry-wide run at the same bound lives in
// internal/experiments.)
func TestAbortableExhaustiveSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive abort conformance is not a -short test")
	}
	for name, b := range abortableBuilders() {
		b := b
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if err := harness.CheckAbortable(b, 2, 1, 2, 2, 0); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestGDSMAbortableRequiresInfiniteRank: withdrawn nodes break the
// finite-rank reuse analysis, so the constructor must refuse bounded
// primitives.
func TestGDSMAbortableRequiresInfiniteRank(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("NewGDSMAbortable accepted a bounded-rank primitive")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "infinite-rank") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	m := memsim.NewMachine(memsim.CC, 2)
	NewGDSMAbortable(m, phi.NewBoundedFetchInc(8))
}

// TestTokenAbortableAmortizedUnderHeavyAborts: with every second
// request aborted, the amortized RMR per passage must stay flat in N —
// the constant-amortized-RMR claim at test scale. The per-model bound
// is loose; the fit/claims pipeline pins the real series.
func TestTokenAbortableAmortizedUnderHeavyAborts(t *testing.T) {
	for _, model := range []memsim.Model{memsim.CC, memsim.DSM} {
		var prev float64
		for _, n := range []int{2, 4, 8} {
			var points []memsim.AbortPoint
			for pr := 0; pr < n; pr++ {
				for pass := 0; pass < 8; pass += 2 {
					points = append(points, memsim.AbortPoint{Proc: pr, Passage: pass, Event: 1})
				}
			}
			w := harness.Workload{
				Model: model, N: n, Entries: 6, CSOps: 1, Seed: 7,
				Aborts:  points,
				Retries: 1,
			}
			met, err := harness.Run(tokenAbortableBuilder(), w)
			if err != nil {
				t.Fatalf("model %v N=%d: %v", model, n, err)
			}
			if met.Aborts == 0 {
				t.Fatalf("model %v N=%d: no aborts fired", model, n)
			}
			if prev != 0 && met.AmortizedRMR > 3*prev {
				t.Fatalf("model %v: amortized RMR grew from %.2f (N smaller) to %.2f at N=%d — not O(1)",
					model, prev, met.AmortizedRMR, n)
			}
			prev = met.AmortizedRMR
		}
	}
}
