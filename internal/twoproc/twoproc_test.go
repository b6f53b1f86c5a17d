package twoproc

import (
	"testing"

	"fetchphi/internal/memsim"
)

// buildPair returns a machine with two processes that each enter the
// critical section `entries` times through one Mutex instance.
func buildPair(model memsim.Model, entries int) func() *memsim.Machine {
	return func() *memsim.Machine {
		m := memsim.NewMachine(model, 2)
		mu := New(m, memsim.NamePrefix(nil, "L"))
		for side := 0; side < 2; side++ {
			side := side
			m.AddProc("p", func(p *memsim.Proc) {
				for i := 0; i < entries; i++ {
					mu.Acquire(p, side)
					p.EnterCS()
					p.ExitCS()
					mu.Release(p, side)
				}
			})
		}
		return m
	}
}

// TestExhaustiveTwoProcs model-checks the algorithm with up to three
// forced preemptions: mutual exclusion, deadlock freedom, and
// termination all hold on every explored schedule.
func TestExhaustiveTwoProcs(t *testing.T) {
	entries := 2
	preemptions := 3
	maxRuns := 2_000_000
	if testing.Short() {
		preemptions = 2
		maxRuns = 100_000
	}
	for _, model := range []memsim.Model{memsim.CC, memsim.DSM} {
		e := &memsim.Explorer{
			Build:          buildPair(model, entries),
			MaxPreemptions: preemptions,
			MaxSteps:       20_000,
			MaxRuns:        maxRuns,
		}
		res := e.Run()
		if res.Err != nil {
			t.Fatalf("%v: %v (schedule %v, run %d)", model, res.Err, res.FailingSchedule, res.Runs)
		}
		if !res.Exhausted {
			t.Errorf("%v: schedule space not exhausted in %d runs", model, res.Runs)
		}
		t.Logf("%v: %d schedules explored", model, res.Runs)
	}
}

// TestExhaustiveSideReuse verifies that a side may be handed from one
// process to another (the usage pattern of the paper's algorithms,
// where queue heads change over time): p1 uses side 1, posts a flag,
// and p2 takes over side 1.
func TestExhaustiveSideReuse(t *testing.T) {
	build := func() *memsim.Machine {
		m := memsim.NewMachine(memsim.CC, 3)
		mu := New(m, memsim.NamePrefix(nil, "L"))
		handoff := m.NewVar("handoff", memsim.HomeGlobal, 0)
		m.AddProc("p0", func(p *memsim.Proc) {
			for i := 0; i < 2; i++ {
				mu.Acquire(p, 0)
				p.EnterCS()
				p.ExitCS()
				mu.Release(p, 0)
			}
		})
		m.AddProc("p1", func(p *memsim.Proc) {
			mu.Acquire(p, 1)
			p.EnterCS()
			p.ExitCS()
			mu.Release(p, 1)
			p.Write(handoff, 1)
		})
		m.AddProc("p2", func(p *memsim.Proc) {
			p.AwaitTrue(handoff)
			mu.Acquire(p, 1)
			p.EnterCS()
			p.ExitCS()
			mu.Release(p, 1)
		})
		return m
	}
	e := &memsim.Explorer{Build: build, MaxPreemptions: 2, MaxSteps: 20_000, MaxRuns: 2_000_000}
	res := e.Run()
	if res.Err != nil {
		t.Fatalf("%v (schedule %v)", res.Err, res.FailingSchedule)
	}
	if !res.Exhausted {
		t.Errorf("not exhausted in %d runs", res.Runs)
	}
}

// TestRandomStress runs longer workloads under many random schedules.
func TestRandomStress(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 30
	}
	for _, model := range []memsim.Model{memsim.CC, memsim.DSM} {
		for seed := 0; seed < seeds; seed++ {
			m := buildPair(model, 10)()
			res := m.Run(memsim.RunConfig{Sched: memsim.NewRandom(int64(seed))})
			if err := res.Err(); err != nil {
				t.Fatalf("%v seed %d: %v", model, seed, err)
			}
			if res.CSEntries != 20 {
				t.Fatalf("%v seed %d: %d CS entries, want 20", model, seed, res.CSEntries)
			}
		}
	}
}

// TestDSMSpinsAreLocal asserts the local-spin property on DSM: no
// busy-wait re-check ever reads a variable homed elsewhere.
func TestDSMSpinsAreLocal(t *testing.T) {
	for seed := 0; seed < 50; seed++ {
		m := buildPair(memsim.DSM, 8)()
		res := m.Run(memsim.RunConfig{Sched: memsim.NewRandom(int64(seed))})
		if err := res.Err(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if n := res.NonLocalSpinReads(); n != 0 {
			t.Fatalf("seed %d: %d non-local spin reads", seed, n)
		}
	}
}

// TestDSMConstantRMR checks the O(1) claim: the worst per-entry RMR
// cost must not grow with the number of entries.
func TestDSMConstantRMR(t *testing.T) {
	worst := func(entries int) int64 {
		m := memsim.NewMachine(memsim.DSM, 2)
		mu := New(m, memsim.NamePrefix(nil, "L"))
		for side := 0; side < 2; side++ {
			side := side
			m.AddProc("p", func(p *memsim.Proc) {
				for i := 0; i < entries; i++ {
					p.BeginEntrySection()
					mu.Acquire(p, side)
					p.EnterCS()
					p.ExitCS()
					mu.Release(p, side)
					p.EndExitSection()
				}
			})
		}
		res := m.Run(memsim.RunConfig{Sched: memsim.NewRandom(7)})
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
		return res.MaxRMRPerEntry()
	}
	w10, w100 := worst(10), worst(100)
	if w100 > w10+2 {
		t.Errorf("per-entry RMRs grew with entries: %d → %d", w10, w100)
	}
	if w100 > 20 {
		t.Errorf("per-entry RMRs implausibly high for O(1) algorithm: %d", w100)
	}
}

// TestUncontendedFastPath checks that a solo process acquires with a
// handful of operations and never blocks.
func TestUncontendedFastPath(t *testing.T) {
	m := memsim.NewMachine(memsim.DSM, 1)
	mu := New(m, memsim.NamePrefix(nil, "L"))
	m.AddProc("p", func(p *memsim.Proc) {
		mu.Acquire(p, 0)
		p.EnterCS()
		p.ExitCS()
		mu.Release(p, 0)
	})
	res := m.Run(memsim.RunConfig{Sched: memsim.RoundRobin{}})
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	if res.Procs[0].RMRs > 8 {
		t.Errorf("uncontended acquire cost %d RMRs", res.Procs[0].RMRs)
	}
}

func TestInvalidSidePanics(t *testing.T) {
	m := memsim.NewMachine(memsim.CC, 1)
	mu := New(m, memsim.NamePrefix(nil, "L"))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for invalid side")
		}
	}()
	mu.Acquire(nil, 2)
}

// TestAdversarialStarvation: even with a scheduler that starves one
// side whenever the other can run, both sides complete — the mutex's
// starvation freedom, sharpened.
func TestAdversarialStarvation(t *testing.T) {
	for victim := 0; victim < 2; victim++ {
		m := buildPair(memsim.CC, 10)()
		res := m.Run(memsim.RunConfig{Sched: memsim.NewAdversary(3, victim)})
		if err := res.Err(); err != nil {
			t.Fatalf("victim %d: %v", victim, err)
		}
		if res.CSEntries != 20 {
			t.Fatalf("victim %d: %d CS entries", victim, res.CSEntries)
		}
	}
}

// TestPCTStress complements the exhaustive checks with depth-directed
// random schedules.
func TestPCTStress(t *testing.T) {
	for depth := 2; depth <= 4; depth++ {
		for seed := int64(0); seed < 40; seed++ {
			m := buildPair(memsim.DSM, 6)()
			res := m.Run(memsim.RunConfig{Sched: memsim.NewPCT(seed, depth, 800)})
			if err := res.Err(); err != nil {
				t.Fatalf("depth %d seed %d: %v", depth, seed, err)
			}
		}
	}
}
