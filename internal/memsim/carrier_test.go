package memsim

import (
	"runtime"
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
	wave := (&Explorer{Build: build}).RunScheduleRange(RootWave())[0].Children
	for _, workers := range []int{1, 4} {
		if len(wave) <= workers {
			t.Fatalf("a wave of %d schedules cannot show reuse at %d workers", len(wave), workers)
		}
		log.reset()
		for _, o := range (&Explorer{Build: build, Workers: workers}).RunScheduleRange(wave) {
			if o.Err != nil {
				t.Fatal(o.Err)
			}
		}
		if got := len(log.ids); got > workers*n {
			t.Errorf("RunScheduleRange of %d schedules at %d workers ran processes on %d goroutines, want at most %d",
				len(wave), workers, got, workers*n)
		}

		// Run calls runWave once per wave.
		log.reset()
		res := (&Explorer{Build: build, Workers: workers}).Run()
		if res.Err != nil || !res.Exhausted {
			t.Fatalf("Run: %+v", res)
		}
		if got, max := len(log.ids), len(res.DepthRuns)*workers*n; got > max {
			t.Errorf("Run of %d schedules in %d waves at %d workers ran processes on %d goroutines, want at most %d",
				res.Runs, len(res.DepthRuns), workers, got, max)
		}
	}
}
