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

// depth2Wave returns an explorer of G-DSM at N=2, K=2 and its full
// depth-2 wave, with the two waves before it run, so the machines they
// released and the worker's storage are warm.
func depth2Wave(tb testing.TB) (*memsim.Explorer, [][]memsim.Preemption) {
	e := &memsim.Explorer{Build: func() *memsim.Machine { return gdsmMachine(2, 2) }, MaxPreemptions: 2}
	wave := memsim.RootWave()
	for depth := 0; depth < 2; depth++ {
		var next [][]memsim.Preemption
		for _, o := range e.RunScheduleRange(wave) {
			if o.Err != nil {
				tb.Fatal(o.Err)
			}
			next = append(next, o.Children...)
		}
		wave = next
	}
	return e, wave
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
		for _, o := range e.RunScheduleRange(wave) {
			if o.Err != nil {
				b.Fatal(o.Err)
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	scheds := float64(b.N) * float64(len(wave))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/scheds, "ns/schedule")
	b.ReportMetric(float64(ms.TotalAlloc-bytes)/scheds, "B/schedule")
	b.ReportMetric(float64(ms.Mallocs-mallocs)/scheds, "allocs/schedule")
}

// exploreScheduleAllocs is the ceiling TestExploreScheduleAllocs
// holds the explorer to: heap allocations per schedule of
// BenchmarkExploreRange's warm depth-2 wave, as measured when machines,
// Dicts and two-process mutex state started being recycled or sized by
// use (`go test ./internal/memsim -run TestExploreScheduleAllocs -v`,
// linux/amd64, go1.24: 63.89; 108.1 before).
const exploreScheduleAllocs = 63.9

// TestExploreScheduleAllocs fails when exploring a schedule allocates
// more than it did when this ceiling was set, so a change that brings
// back per-schedule machine, Dict or mutex allocations shows in make
// test, not only in a benchmark run.
func TestExploreScheduleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	e, wave := depth2Wave(t)
	got := testing.AllocsPerRun(1, func() {
		for _, o := range e.RunScheduleRange(wave) {
			if o.Err != nil {
				t.Fatal(o.Err)
			}
		}
	}) / float64(len(wave))
	t.Logf("%.4f allocs/schedule over a %d-schedule wave", got, len(wave))
	if got > exploreScheduleAllocs {
		t.Errorf("%.2f allocs/schedule, want at most %.2f", got, exploreScheduleAllocs)
	}
}
