package memsim

import (
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"
)

// brokenLockMachineN generalizes brokenLockMachine to n processes and
// several entries each — a bigger schedule tree, so sharding has real
// work to distribute.
func brokenLockMachineN(n, entries int) func() *Machine {
	return func() *Machine {
		m := NewMachine(CC, n)
		lock := m.NewVar("lock", HomeGlobal, 0)
		body := func(p *Proc) {
			for e := 0; e < entries; e++ {
				p.AwaitEq(lock, 0) // test ...
				p.Write(lock, 1)   // ... then set, non-atomically
				p.EnterCS()
				p.ExitCS()
				p.Write(lock, 0)
			}
		}
		for i := 0; i < n; i++ {
			m.AddProc("p", body)
		}
		return m
	}
}

// tasLockMachineN is the correct counterpart of brokenLockMachineN.
func tasLockMachineN(n, entries int) func() *Machine {
	return func() *Machine {
		m := NewMachine(CC, n)
		lock := m.NewVar("lock", HomeGlobal, 0)
		body := func(p *Proc) {
			for e := 0; e < entries; e++ {
				for {
					if p.RMW(lock, func(Word) Word { return 1 }) == 0 {
						break
					}
					p.AwaitEq(lock, 0)
				}
				p.EnterCS()
				p.ExitCS()
				p.Write(lock, 0)
			}
		}
		for i := 0; i < n; i++ {
			m.AddProc("p", body)
		}
		return m
	}
}

// TestSequentialVsShardedEquivalence is the determinism contract of
// the sharded explorer: on a deliberately broken fixture and on a
// correct one, Workers ∈ {1, 2, 8} must report identical Runs,
// Exhausted, DepthRuns, and the identical canonical FailingSchedule.
// Run under -race (make race) this also proves the wave sharding is
// data-race free.
func TestSequentialVsShardedEquivalence(t *testing.T) {
	fixtures := []struct {
		name     string
		build    func() *Machine
		wantFail bool
	}{
		{"broken", brokenLockMachineN(2, 2), true},
		{"correct", tasLockMachineN(2, 2), false},
	}
	for _, fx := range fixtures {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			t.Parallel()
			ref := (&Explorer{Build: fx.build, MaxPreemptions: 3, MaxSteps: 5000}).Run()
			if fx.wantFail && ref.Err == nil {
				t.Fatalf("broken fixture passed %d runs", ref.Runs)
			}
			if !fx.wantFail && (ref.Err != nil || !ref.Exhausted) {
				t.Fatalf("correct fixture: %+v", ref)
			}
			for _, workers := range []int{1, 2, 8} {
				// Several repetitions per worker count: a merge that
				// depended on timing would flake here, not pass.
				for rep := 0; rep < 3; rep++ {
					got := (&Explorer{Build: fx.build, MaxPreemptions: 3, MaxSteps: 5000, Workers: workers}).Run()
					if got.Runs != ref.Runs || got.Exhausted != ref.Exhausted {
						t.Fatalf("workers=%d rep=%d: Runs=%d Exhausted=%v, want %d/%v",
							workers, rep, got.Runs, got.Exhausted, ref.Runs, ref.Exhausted)
					}
					if !reflect.DeepEqual(got.DepthRuns, ref.DepthRuns) {
						t.Fatalf("workers=%d rep=%d: DepthRuns=%v, want %v", workers, rep, got.DepthRuns, ref.DepthRuns)
					}
					if !reflect.DeepEqual(got.FailingSchedule, ref.FailingSchedule) {
						t.Fatalf("workers=%d rep=%d: FailingSchedule=%v, want %v",
							workers, rep, got.FailingSchedule, ref.FailingSchedule)
					}
					if (got.Err == nil) != (ref.Err == nil) {
						t.Fatalf("workers=%d rep=%d: Err=%v, want %v", workers, rep, got.Err, ref.Err)
					}
					if got.Err != nil && got.Err.Error() != ref.Err.Error() {
						t.Fatalf("workers=%d rep=%d: Err=%q, want %q", workers, rep, got.Err, ref.Err)
					}
				}
			}
		})
	}
}

// TestShardedFailureIsCanonicallySmallest pins the merge rule down
// directly: the failing schedule the sharded explorer reports is the
// minimum, under (length, then lexicographic (Step, Proc)) order, of
// every failing schedule in the explored waves — enumerated here by
// exhaustively replaying the full tree.
func TestShardedFailureIsCanonicallySmallest(t *testing.T) {
	build := brokenLockMachineN(2, 1)
	res := (&Explorer{Build: build, MaxPreemptions: 2, MaxSteps: 5000, Workers: 8}).Run()
	if res.Err == nil {
		t.Fatalf("broken fixture passed %d runs", res.Runs)
	}

	// Independently enumerate every schedule up to the failing depth
	// and collect the failures.
	var failing [][]Preemption
	e := &Explorer{Build: build, MaxSteps: 5000}
	var w exploreWorker
	defer w.cs.Close()
	wave := [][]Preemption{nil}
	for depth := 0; depth < len(res.DepthRuns); depth++ {
		var next [][]Preemption
		for _, sched := range wave {
			wr := e.runOne(&w, sched, DefaultPreemptions)
			if wr.Err != nil {
				failing = append(failing, sched)
			}
			for _, p := range wr.Children {
				next = append(next, append(slices.Clip(sched), p))
			}
		}
		wave = next
	}
	if len(failing) == 0 {
		t.Fatal("reference enumeration found no failing schedule")
	}
	sort.Slice(failing, func(i, j int) bool { return canonicalLess(failing[i], failing[j]) })
	if !reflect.DeepEqual(res.FailingSchedule, failing[0]) {
		t.Fatalf("reported %v, canonical smallest is %v (of %d failures)",
			res.FailingSchedule, failing[0], len(failing))
	}
}

func canonicalLess(a, b []Preemption) bool {
	if len(a) != len(b) {
		return len(a) < len(b)
	}
	for i := range a {
		if a[i].Step != b[i].Step {
			return a[i].Step < b[i].Step
		}
		if a[i].Proc != b[i].Proc {
			return a[i].Proc < b[i].Proc
		}
	}
	return false
}

// TestExactPreemptionsZeroIsHonest is the -preemptions 0 footgun
// regression test: an explicit zero-preemption request must run
// exactly the single non-preemptive schedule, not silently promote to
// DefaultPreemptions.
func TestExactPreemptionsZeroIsHonest(t *testing.T) {
	if ExactPreemptions(0) != ZeroPreemptions {
		t.Fatalf("ExactPreemptions(0) = %d, want ZeroPreemptions", ExactPreemptions(0))
	}
	if ExactPreemptions(3) != 3 {
		t.Fatalf("ExactPreemptions(3) = %d, want 3", ExactPreemptions(3))
	}
	res := (&Explorer{Build: tasLockMachineN(2, 1), MaxPreemptions: ExactPreemptions(0), MaxSteps: 1000}).Run()
	if res.Runs != 1 || !res.Exhausted || res.Err != nil {
		t.Fatalf("zero-preemption exploration: %+v", res)
	}
	if !reflect.DeepEqual(res.DepthRuns, []int{1}) {
		t.Fatalf("DepthRuns = %v, want [1]", res.DepthRuns)
	}
	// The unsentineled zero still selects the default bound — that is
	// the documented field semantics the sentinel works around.
	if promoted := (&Explorer{Build: tasLockMachineN(2, 1), MaxPreemptions: 0, MaxSteps: 1000}).Run(); promoted.Runs <= 1 {
		t.Fatalf("MaxPreemptions=0 no longer selects the default bound: %+v", promoted)
	}
}

// TestExplorerDepthRunsAccounting: DepthRuns sums to Runs, both
// exhausted and truncated by MaxRuns.
func TestExplorerDepthRunsAccounting(t *testing.T) {
	sum := func(xs []int) int {
		s := 0
		for _, x := range xs {
			s += x
		}
		return s
	}
	full := (&Explorer{Build: tasLockMachineN(2, 2), MaxPreemptions: 2, MaxSteps: 5000}).Run()
	if !full.Exhausted || sum(full.DepthRuns) != full.Runs {
		t.Fatalf("exhausted: %+v", full)
	}
	cap := full.Runs / 2
	capped := (&Explorer{Build: tasLockMachineN(2, 2), MaxPreemptions: 2, MaxSteps: 5000, MaxRuns: cap, Workers: 4}).Run()
	if capped.Exhausted || capped.Runs != cap || sum(capped.DepthRuns) != cap {
		t.Fatalf("capped: %+v", capped)
	}
	// The capped DepthRuns must be a prefix (with a truncated last
	// entry) of the exhaustive ones.
	for i, d := range capped.DepthRuns {
		if i < len(capped.DepthRuns)-1 && d != full.DepthRuns[i] {
			t.Fatalf("capped wave %d ran %d schedules, exhaustive ran %d", i, d, full.DepthRuns[i])
		}
	}
}

// TestExplorerProgressObservationOnly: attaching a Progress hook (at
// any cadence) changes nothing about the result, and the hook sees
// monotonically complete coverage: a wave-start event per depth plus
// intra-wave events at the requested cadence.
func TestExplorerProgressObservationOnly(t *testing.T) {
	ref := (&Explorer{Build: tasLockMachineN(2, 2), MaxPreemptions: 2, MaxSteps: 5000}).Run()
	var (
		mu         sync.Mutex
		waveStarts []ExploreProgress
		intra      int
	)
	got := (&Explorer{
		Build: tasLockMachineN(2, 2), MaxPreemptions: 2, MaxSteps: 5000,
		Workers: 4, ProgressEvery: 10,
		Progress: func(p ExploreProgress) {
			mu.Lock()
			defer mu.Unlock()
			// Wave starts carry the pre-wave run count; intra-wave
			// events carry a larger, point-in-time count.
			if len(waveStarts) == 0 || p.Depth > waveStarts[len(waveStarts)-1].Depth {
				waveStarts = append(waveStarts, p)
			} else {
				intra++
			}
		},
	}).Run()
	if got.Runs != ref.Runs || !got.Exhausted || !reflect.DeepEqual(got.DepthRuns, ref.DepthRuns) {
		t.Fatalf("progress hook changed the result: %+v vs %+v", got, ref)
	}
	if len(waveStarts) != len(ref.DepthRuns) {
		t.Fatalf("%d wave-start events for %d waves", len(waveStarts), len(ref.DepthRuns))
	}
	for i, p := range waveStarts {
		if p.Frontier != ref.DepthRuns[i] {
			t.Fatalf("wave %d start reports frontier %d, want %d", i, p.Frontier, ref.DepthRuns[i])
		}
	}
	if ref.Runs >= 100 && intra == 0 {
		t.Fatalf("no intra-wave progress events over %d runs at cadence 10", ref.Runs)
	}
}

// TestShardedWallClockSpeedup is the performance half of the sharding
// contract: on a host with enough cores, Workers=4 explores the smoke
// configuration at least 2× faster than Workers=1. The exploration is
// pure CPU work, so the measurement is meaningless on fewer than four
// cores — the test skips there rather than asserting the impossible.
func TestShardedWallClockSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup measurement skipped in -short mode")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need ≥4 CPUs for a meaningful speedup measurement, have %d", runtime.NumCPU())
	}
	build := tasLockMachineN(3, 2)
	measure := func(workers int) time.Duration {
		start := time.Now()
		res := (&Explorer{Build: build, MaxPreemptions: 3, MaxSteps: 20_000, Workers: workers}).Run()
		if res.Err != nil || !res.Exhausted {
			t.Fatalf("workers=%d: %+v", workers, res)
		}
		return time.Since(start)
	}
	measure(1) // warm up before timing anything
	best := func(workers int) time.Duration {
		b := measure(workers)
		for rep := 1; rep < 3; rep++ {
			if d := measure(workers); d < b {
				b = d
			}
		}
		return b
	}
	seq, par := best(1), best(4)
	t.Logf("workers=1: %v, workers=4: %v (%.2fx)", seq, par, float64(seq)/float64(par))
	if par*2 > seq {
		t.Fatalf("workers=4 took %v, want ≤ half of workers=1 (%v)", par, seq)
	}
}

// TestFrontierDequeCoversEveryIndexOnce drives the stealing deque
// directly: whatever the claim interleaving, the shards partition the
// index space.
func TestFrontierDequeCoversEveryIndexOnce(t *testing.T) {
	const n, workers = 1000, 7
	d := newFrontierDeque(n, workers)
	seen := make([]int, n)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo, hi, ok := d.claim(w, 13)
				if !ok {
					return
				}
				mu.Lock()
				for i := lo; i < hi; i++ {
					seen[i]++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d claimed %d times", i, c)
		}
	}
}
