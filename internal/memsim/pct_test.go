package memsim

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestPCTFindsBrokenLock checks PCT's reason for existing: the
// non-atomic test-then-set race needs two ordering constraints (switch
// away from p0 after its test, and back before p1 leaves its critical
// section), i.e. bug depth 3; some seed's change points land on it.
func TestPCTFindsBrokenLock(t *testing.T) {
	found := false
	for seed := int64(0); seed < 2000; seed++ {
		m := brokenLockMachine()
		res := m.Run(RunConfig{Sched: NewPCT(seed, 3, 40), MaxSteps: 1000})
		if res.Violation != nil {
			found = true
			t.Logf("violation at seed %d after %d steps", seed, res.Steps)
			break
		}
	}
	if !found {
		t.Fatal("PCT failed to find the broken-lock race in 200 seeds")
	}
}

// TestPCTPassesCorrectLock: no false positives on the correct lock.
func TestPCTPassesCorrectLock(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		m := tasLockMachine()
		res := m.Run(RunConfig{Sched: NewPCT(seed, 3, 200), MaxSteps: 5000})
		if err := res.Err(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestPCTIsDeterministicPerSeed: same seed, same schedule.
func TestPCTIsDeterministicPerSeed(t *testing.T) {
	run := func() (int64, int64) {
		m := tasLockMachine()
		res := m.Run(RunConfig{Sched: NewPCT(7, 2, 200)})
		return res.Steps, res.TotalRMRs()
	}
	s1, r1 := run()
	s2, r2 := run()
	if s1 != s2 || r1 != r2 {
		t.Fatalf("PCT replay diverged: (%d,%d) vs (%d,%d)", s1, r1, s2, r2)
	}
}

// TestPCTPriorityScheduling: with depth 1 (no change points), the
// highest-priority process runs to completion before the other starts
// doing operations.
func TestPCTPriorityScheduling(t *testing.T) {
	var picks []int
	m := NewMachine(CC, 2)
	v := m.NewVar("v", HomeGlobal, 0)
	for i := 0; i < 2; i++ {
		m.AddProc("p", func(p *Proc) {
			for j := 0; j < 5; j++ {
				p.Write(v, 1)
			}
		})
	}
	res := m.Run(RunConfig{Sched: Observed{
		Scheduler: NewPCT(3, 1, 100),
		See:       func(_ int64, _ []int, chosen int) { picks = append(picks, chosen) },
	}})
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	// All picks of the first-chosen process must precede all picks of
	// the other.
	first := picks[0]
	switched := false
	for _, p := range picks {
		if p != first {
			switched = true
		} else if switched {
			t.Fatalf("priority scheduling interleaved: %v", picks)
		}
	}
}

func TestTraceRecordsOperations(t *testing.T) {
	m := NewMachine(CC, 2)
	v := m.NewVar("x", HomeGlobal, 0)
	flag := m.NewVar("flag", HomeGlobal, 0)
	m.AddProc("writer", func(p *Proc) {
		p.Write(v, 7)
		p.RMW(v, func(w Word) Word { return w + 1 })
		p.Write(flag, 1)
	})
	m.AddProc("waiter", func(p *Proc) {
		p.AwaitTrue(flag)
		p.Read(v)
	})
	sink := &collectSink{}
	m.AttachSink(sink)
	if err := m.Run(RunConfig{Sched: RoundRobin{}}).Err(); err != nil {
		t.Fatal(err)
	}
	events := sink.events
	if len(events) == 0 {
		t.Fatal("no events recorded")
	}
	var kinds []TraceKind
	for _, e := range events {
		kinds = append(kinds, e.Kind)
	}
	want := map[TraceKind]bool{TraceWrite: false, TraceRMW: false, TraceRead: false, TraceSpinRead: false}
	for _, k := range kinds {
		want[k] = true
	}
	for k, seen := range want {
		if !seen {
			t.Errorf("no %v event recorded (kinds: %v)", k, kinds)
		}
	}
	var lines []string
	for _, e := range events {
		lines = append(lines, e.Format(m.Label(e.Var)))
	}
	out := strings.Join(lines, "\n")
	for _, substr := range []string{"rmw", "x: 7 -> 8", "write"} {
		if !strings.Contains(out, substr) {
			t.Errorf("trace missing %q:\n%s", substr, out)
		}
	}
}

func TestTraceRingWrapsOldestFirst(t *testing.T) {
	m := NewMachine(CC, 1)
	v := m.NewVar("v", HomeGlobal, 0)
	m.AddProc("p", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Write(v, Word(i))
		}
	})
	last := &lastEvents{keep: 4}
	m.AttachSink(last)
	if err := m.Run(RunConfig{Sched: RoundRobin{}}).Err(); err != nil {
		t.Fatal(err)
	}
	events := last.events
	if len(events) != 4 {
		t.Fatalf("kept %d events, want 4", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].Step <= events[i-1].Step {
			t.Fatalf("events out of order: %v", events)
		}
	}
	if events[len(events)-1].After != 9 {
		t.Fatalf("last event should be the final write: %v", events[len(events)-1])
	}
}

// TestTraceDisabledReturnsNil: tracing is observation only. A run
// with sinks attached and the same run with none report the same
// Result: steps, RMRs and every process's statistics.
func TestTraceDisabledReturnsNil(t *testing.T) {
	run := func(sinks ...EventSink) Result {
		m := NewMachine(DSM, 3)
		v := m.NewVar("v", HomeGlobal, 0)
		for i := 0; i < 3; i++ {
			m.AddProc("p", func(p *Proc) {
				for k := 0; k < 3; k++ {
					p.BeginEntrySection()
					p.RMW(v, func(w Word) Word { return w + 1 })
					p.Read(v)
					p.EndExitSection()
				}
			})
		}
		for _, s := range sinks {
			m.AttachSink(s)
		}
		res := m.Run(RunConfig{Sched: NewRandom(4)})
		res.Procs = slices.Clone(res.Procs)
		m.Release()
		return res
	}
	quiet := run()
	traced := run(&phaseCollectSink{}, &endLog{}, &lastEvents{keep: 2})
	if !reflect.DeepEqual(quiet, traced) {
		t.Fatalf("untraced run %+v, traced run %+v", quiet, traced)
	}
}
