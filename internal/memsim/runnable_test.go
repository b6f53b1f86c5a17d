package memsim_test

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"fetchphi/internal/experiments"
	"fetchphi/internal/harness"
	"fetchphi/internal/memsim"
)

// scanCheck wraps a Scheduler and, at every pick, compares the runnable
// slice the engine passes with a from-scratch scan of process statuses.
type scanCheck struct {
	inner memsim.Scheduler
	m     *memsim.Machine
	picks int64
	err   error
}

func (s *scanCheck) Pick(step int64, runnable []int, last int) int {
	if want := memsim.ScanRunnable(s.m); s.err == nil && !slices.Equal(runnable, want) {
		s.err = fmt.Errorf("step %d: engine runnable %v, status scan %v", step, runnable, want)
	}
	s.picks++
	return s.inner.Pick(step, runnable, last)
}

// builder captures the machine the harness builds, so Pick can scan it.
func (s *scanCheck) builder(b harness.Builder) harness.Builder {
	return func(m *memsim.Machine) harness.Algorithm {
		s.m = m
		return b(m)
	}
}

func (s *scanCheck) verify(t *testing.T, what string, err error) {
	t.Helper()
	switch {
	case err != nil:
		t.Fatalf("%s: %v", what, err)
	case s.err != nil:
		t.Fatalf("%s: %v", what, s.err)
	case s.picks == 0:
		t.Fatalf("%s: the scheduler was never asked to pick", what)
	}
}

// TestRunnableSetMatchesScan checks the engine's maintained runnable
// set against a full status scan at every step, for every registered
// algorithm on both paper models, with the set inside one 64-bit word
// (N=2) and spanning two (N=65).
func TestRunnableSetMatchesScan(t *testing.T) {
	for _, name := range experiments.AlgorithmNames() {
		b, err := experiments.Algorithm(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range []memsim.Model{memsim.CC, memsim.DSM} {
			for _, n := range []int{2, 65} {
				chk := &scanCheck{inner: memsim.NewRandom(int64(n))}
				_, err := harness.Run(chk.builder(b), harness.Workload{
					Model: model, N: n, Entries: 2, Sched: chk,
				})
				chk.verify(t, fmt.Sprintf("%s/%v/N=%d", name, model, n), err)
			}
		}
	}
}

// TestRunnableSetMatchesScanAbortable runs the same check on an
// abortable algorithm while every process withdraws its first passage
// and re-requests, so processes leave awaits through aborts too.
func TestRunnableSetMatchesScanAbortable(t *testing.T) {
	name := experiments.AbortableAlgorithmNames()[0]
	ab, err := experiments.AbortableAlgorithm(name)
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []memsim.Model{memsim.CC, memsim.DSM} {
		for _, n := range []int{2, 65} {
			var aborts []memsim.AbortPoint
			for p := 0; p < n; p++ {
				aborts = append(aborts, memsim.AbortPoint{Proc: p, Passage: 0, Event: 1})
			}
			chk := &scanCheck{inner: memsim.NewRandom(int64(n))}
			met, err := harness.Run(chk.builder(ab), harness.Workload{
				Model: model, N: n, Entries: 2, Sched: chk,
				Aborts:     aborts,
				Retries:    1,
				RetryDelay: 2,
			})
			chk.verify(t, fmt.Sprintf("%s/%v/N=%d", name, model, n), err)
			if met.Aborts == 0 {
				t.Fatalf("%s/%v/N=%d: no passage was withdrawn", name, model, n)
			}
		}
	}
}

// BenchmarkStep measures the engine's per-step cost on G-DSM with no
// sinks: ns/step is run time over simulated steps (machine builds are
// not timed), allocs/step the heap allocations made during the runs.
func BenchmarkStep(b *testing.B) {
	for _, n := range []int{2, 64, 256, 1024} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			var steps int64
			var mallocs uint64
			var ms runtime.MemStats
			b.StopTimer()
			for i := 0; i < b.N; i++ {
				m, cfg := gdsmMachine(n, 2), memsim.RunConfig{Sched: memsim.NewRandom(int64(i))}
				runtime.ReadMemStats(&ms)
				before := ms.Mallocs
				b.StartTimer()
				res := m.Run(cfg)
				b.StopTimer()
				runtime.ReadMemStats(&ms)
				mallocs += ms.Mallocs - before
				if err := res.Err(); err != nil {
					b.Fatal(err)
				}
				steps += res.Steps
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
			b.ReportMetric(float64(mallocs)/float64(steps), "allocs/step")
		})
	}
}

// gdsmWaves returns an explorer of G-DSM at N=2, K=2 and its first
// depth+1 waves, root first, each built from the outcomes of the one
// before, so the machines those runs released and the worker's storage
// are warm.
func gdsmWaves(tb testing.TB, depth int) (*memsim.Explorer, []memsim.Wave) {
	e := &memsim.Explorer{Build: func() *memsim.Machine { return gdsmMachine(2, 2) }, MaxPreemptions: 2}
	waves := []memsim.Wave{memsim.RootWave()}
	for d := 0; d < depth; d++ {
		waves = append(waves, memsim.NextWave(waves[d], runRange(tb, e, waves[d])))
	}
	return e, waves
}

// depth2Wave returns the G-DSM explorer of gdsmWaves and its full
// depth-2 wave.
func depth2Wave(tb testing.TB) (*memsim.Explorer, memsim.Wave) {
	e, waves := gdsmWaves(tb, 2)
	return e, waves[2]
}

// runRange runs a wave through RunScheduleRange and fails tb if the
// range or any of its schedules fails.
func runRange(tb testing.TB, e *memsim.Explorer, w memsim.Wave) []memsim.ScheduleOutcome {
	out, err := e.RunScheduleRange(w)
	if err != nil {
		tb.Fatal(err)
	}
	for i := range out {
		if out[i].Err != nil {
			tb.Fatal(out[i].Err)
		}
	}
	return out
}

// BenchmarkExploreRange measures what the explorer pays per schedule on
// G-DSM at N=2, K=2 over the full depth-2 wave: build a machine, run
// one schedule, release the machine. BenchmarkStep leaves builds out of
// its timing; here they are in, and they make most of the allocations.
func BenchmarkExploreRange(b *testing.B) {
	e, wave := depth2Wave(b)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	bytes, mallocs := ms.TotalAlloc, ms.Mallocs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runRange(b, e, wave)
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	scheds := float64(b.N) * float64(wave.Len)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/scheds, "ns/schedule")
	b.ReportMetric(float64(ms.TotalAlloc-bytes)/scheds, "B/schedule")
	b.ReportMetric(float64(ms.Mallocs-mallocs)/scheds, "allocs/schedule")
}

// exploreScheduleAllocs and exploreScheduleBytes are the ceilings
// TestExploreScheduleAllocs holds the explorer to: heap allocations and
// bytes per schedule of BenchmarkExploreRange's warm depth-2 wave, as
// measured when Release began keeping variables' watch lists (`go test
// ./internal/memsim -run TestExploreScheduleAllocs -v`, linux/amd64,
// go1.24: 4.006 allocs and 92.3–93.3 B; 5.877 and 122.2–123.2 B before,
// 63.89 and 3357 B before algorithm objects became machine storage,
// 108.1 allocs before machines were recycled). What is left is the
// test's own builder (process names and bodies) and the explorer's
// schedules.
const (
	exploreScheduleAllocs = 4.1
	exploreScheduleBytes  = 98
)

// TestExploreScheduleAllocs fails when exploring a schedule allocates
// more than it did when these ceilings were set, so a change that
// brings back per-schedule machine, Dict, mutex or algorithm-object
// allocations shows in make test, not only in a benchmark run.
func TestExploreScheduleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	e, wave := depth2Wave(t)
	explore := func() { runRange(t, e, wave) }
	allocs := testing.AllocsPerRun(1, explore) / float64(wave.Len)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	explore()
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(wave.Len)
	t.Logf("%.4f allocs and %.1f B per schedule over a %d-schedule wave", allocs, bytes, wave.Len)
	if allocs > exploreScheduleAllocs {
		t.Errorf("%.2f allocs/schedule, want at most %.2f", allocs, exploreScheduleAllocs)
	}
	if bytes > exploreScheduleBytes {
		t.Errorf("%.1f B/schedule, want at most %d", bytes, exploreScheduleBytes)
	}
}

// TestExploreWaveChildAllocs holds the explorer's child generation to
// one allocation per schedule that has children. It runs G-DSM's
// depth-1 wave twice, once with K=2, where every passing schedule
// derives its children, and once with K=1, where the wave sits at the
// preemption bound and derives none. The builds, the runs and the
// wave's own storage are the same in both, so the difference is what
// child generation costs: at most one allocation per schedule with
// children, plus the choice records each worker's chooser grows once
// per wave. The wave has several children per parent, so an
// allocation per child would exceed the bound.
func TestExploreWaveChildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	// perWorker bounds the growth of one chooser's choice and runnable
	// records over a wave: a few doublings each.
	const perWorker = 24
	_, waves := gdsmWaves(t, 1)
	wave := waves[1]
	for _, workers := range []int{1, 2} {
		build := func() *memsim.Machine { return gdsmMachine(2, 2) }
		expand := &memsim.Explorer{Build: build, MaxPreemptions: 2, Workers: workers}
		bound := &memsim.Explorer{Build: build, MaxPreemptions: 1, Workers: workers}
		out := runRange(t, expand, wave)
		parents, children := 0, 0
		for i := range out {
			if n := len(out[i].Children); n > 0 {
				parents++
				children += n
			}
		}
		if children < 2*parents {
			t.Fatalf("%d children of %d parents cannot tell one allocation per child from one per parent", children, parents)
		}
		withChildren := testing.AllocsPerRun(3, func() { runRange(t, expand, wave) })
		without := testing.AllocsPerRun(3, func() { runRange(t, bound, wave) })
		extra := withChildren - without
		t.Logf("workers=%d: %d-schedule wave, %d parents of %d children: %.0f allocations with children, %.0f without",
			workers, wave.Len, parents, children, withChildren, without)
		if max := float64(parents + perWorker*workers); extra > max {
			t.Errorf("workers=%d: child generation made %.0f allocations, want at most %.0f (%d parents, %d children)",
				workers, extra, max, parents, children)
		}
	}
}
