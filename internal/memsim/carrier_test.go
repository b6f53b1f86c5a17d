package memsim

import (
	"maps"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// goid returns the calling goroutine's id, from the "goroutine N ["
// header of its stack trace. Ids are never reused within a process.
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	id, err := strconv.ParseUint(strings.Fields(string(buf[:n]))[1], 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// goroutineLog wraps a Build so that every process body records the
// goroutine it runs on.
type goroutineLog struct {
	mu  sync.Mutex
	ids map[uint64]bool
}

func (g *goroutineLog) build(build func() *Machine) func() *Machine {
	return func() *Machine {
		m := build()
		for _, p := range m.procs {
			body := p.body
			p.body = func(p *Proc) {
				g.mu.Lock()
				g.ids[goid()] = true
				g.mu.Unlock()
				body(p)
			}
		}
		return m
	}
}

func (g *goroutineLog) reset() {
	g.mu.Lock()
	g.ids = make(map[uint64]bool)
	g.mu.Unlock()
}

// TestCarriersAreReused: the processes of a wave's schedules run on
// their worker's carriers, so a wave of S schedules at N processes
// runs on at most Workers × N goroutines, not S × N.
func TestCarriersAreReused(t *testing.T) {
	const n = 3
	var log goroutineLog
	log.reset()
	build := log.build(tasLockMachineN(n, 1))
	wave := rangeWaves(t, &Explorer{Build: build, MaxPreemptions: 2}, 1)[1]
	for _, workers := range []int{1, 4} {
		if wave.Len <= workers {
			t.Fatalf("a wave of %d schedules cannot show reuse at %d workers", wave.Len, workers)
		}
		log.reset()
		rangeOutcomes(t, &Explorer{Build: build, MaxPreemptions: 2, Workers: workers}, wave)
		if got := len(log.ids); got > workers*n {
			t.Errorf("RunScheduleRange of %d schedules at %d workers ran processes on %d goroutines, want at most %d",
				wave.Len, workers, got, workers*n)
		}

		// Run calls runWave once per wave.
		log.reset()
		res := (&Explorer{Build: build, MaxPreemptions: 2, Workers: workers}).Run()
		if res.Err != nil || !res.Exhausted {
			t.Fatalf("Run: %+v", res)
		}
		if got, max := len(log.ids), len(res.DepthRuns)*workers*n; got > max {
			t.Errorf("Run of %d schedules in %d waves at %d workers ran processes on %d goroutines, want at most %d",
				res.Runs, len(res.DepthRuns), workers, got, max)
		}
	}
}

// panickyMachine is contendedMachine with a fourth process, whose body
// panics with a plain value after its second RMW while the others are
// mid-run or not yet started. It is process 1, so the next
// contendedMachine on the same set runs a process on its carrier.
func panickyMachine() *Machine {
	m := NewMachine(CC, 4)
	v := m.NewVar("v", HomeGlobal, 0)
	inc := func(w Word) Word { return w + 1 }
	for j := 0; j < 4; j++ {
		if j == 1 {
			m.AddProc("bug", func(p *Proc) {
				p.RMW(v, inc)
				p.RMW(v, inc)
				panic("plain boom")
			})
			continue
		}
		m.AddProc("p", func(p *Proc) {
			for k := 0; k < 4; k++ {
				p.RMW(v, inc)
			}
		})
	}
	return m
}

// TestBodyPanicReachesCaller: a process body that panics with a value
// the engine does not handle makes RunOn re-raise it in its caller,
// with the other processes unwound; the carrier that died is replaced,
// so the next machine on the same set runs to the correct result.
func TestBodyPanicReachesCaller(t *testing.T) {
	want := contendedMachine().Run(RunConfig{Sched: RoundRobin{}})
	var cs Carriers
	defer cs.Close()
	for _, sched := range []Scheduler{RoundRobin{}, &Sticky{Quantum: 3}, NewRandom(5)} {
		m := panickyMachine()
		got := recoverPanic(func() { m.RunOn(&cs, RunConfig{Sched: sched}) })
		if got != "plain boom" {
			t.Fatalf("%T: RunOn panicked with %v, want %q", sched, got, "plain boom")
		}
		for _, p := range m.procs {
			if p.status != statusDone {
				t.Errorf("%T: process %d left in status %d after the panic", sched, p.id, p.status)
			}
		}

		m = contendedMachine()
		res := m.RunOn(&cs, RunConfig{Sched: RoundRobin{}})
		if err := res.Err(); err != nil || !reflect.DeepEqual(res, want) || m.Value(Var{idx: 1}) != 12 {
			t.Fatalf("%T: run after the panic: %+v with v = %d, want %+v with v = 12",
				sched, res, m.Value(Var{idx: 1}), want)
		}
	}
	// A one-shot set re-raises it as well.
	if got := runRecover(panickyMachine(), RunConfig{}); got != "plain boom" {
		t.Errorf("Run panicked with %v, want %q", got, "plain boom")
	}
}

// TestWarmCarriersCreateNoCoroutine: a set that has run a machine of N
// processes runs the next one of the same size on the same carriers,
// and so on the same coroutines, creating none.
func TestWarmCarriersCreateNoCoroutine(t *testing.T) {
	var log goroutineLog
	build := log.build(contendedMachine)
	var cs Carriers
	defer cs.Close()

	log.reset()
	if err := build().RunOn(&cs, RunConfig{Sched: RoundRobin{}}).Err(); err != nil {
		t.Fatal(err)
	}
	first := slices.Clone(cs.carriers)
	firstIDs := maps.Clone(log.ids)

	log.reset()
	if err := build().RunOn(&cs, RunConfig{Sched: RoundRobin{}}).Err(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(cs.carriers, first) {
		t.Errorf("second run replaced carriers: %p, first %p", cs.carriers, first)
	}
	for id := range log.ids {
		if !firstIDs[id] {
			t.Errorf("second run ran a process on goroutine %d, which the first did not use", id)
		}
	}
}
