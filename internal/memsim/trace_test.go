package memsim

import (
	"reflect"
	"testing"
)

// noTrace asks traceMachine to skip EnableTrace entirely.
const noTrace = -999

// traceMachine runs nproc processes that each write their id into a
// shared variable `writes` times, under a deterministic scheduler.
func traceMachine(t *testing.T, capacity, nproc, writes int) *Machine {
	t.Helper()
	m := NewMachine(CC, nproc)
	if capacity != noTrace {
		m.EnableTrace(capacity)
	}
	v := m.NewVar("x", HomeGlobal, 0)
	for i := 0; i < nproc; i++ {
		i := i
		m.AddProc("p", func(p *Proc) {
			for k := 0; k < writes; k++ {
				p.Write(v, Word(i))
			}
		})
	}
	res := m.Run(RunConfig{Sched: NewRandom(7)})
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTraceBeforeFill(t *testing.T) {
	// 2 procs × 3 writes = 6 events, under-filling a capacity-16 ring.
	m := traceMachine(t, 16, 2, 3)
	events := m.Trace()
	if len(events) != 6 {
		t.Fatalf("got %d events, want 6", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].Step <= events[i-1].Step {
			t.Fatalf("events out of order: step %d after %d", events[i].Step, events[i-1].Step)
		}
	}
}

func TestTraceWraparoundOrdering(t *testing.T) {
	// 4 procs × 8 writes = 32 events through a capacity-5 ring: Trace
	// must return exactly the 5 most recent, oldest first.
	m := traceMachine(t, 5, 4, 8)
	events := m.Trace()
	if len(events) != 5 {
		t.Fatalf("got %d events, want 5 (ring capacity)", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].Step <= events[i-1].Step {
			t.Fatalf("wrapped trace out of order: step %d after %d", events[i].Step, events[i-1].Step)
		}
	}
	// The retained suffix must match the tail of an identical run
	// traced with a ring big enough to hold everything (same seed ⇒
	// bit-identical schedule).
	full := traceMachine(t, 1<<10, 4, 8).Trace()
	if !reflect.DeepEqual(events, full[len(full)-5:]) {
		t.Fatalf("wrapped ring retained\n%v\nwant tail of full trace\n%v", events, full[len(full)-5:])
	}
}

func TestTraceCapacityClamp(t *testing.T) {
	// Non-positive capacities clamp to 1: the ring keeps exactly the
	// most recent event instead of panicking on a zero-length buffer.
	for _, capacity := range []int{0, -3} {
		m := traceMachine(t, capacity, 2, 2)
		events := m.Trace()
		if len(events) != 1 {
			t.Fatalf("EnableTrace(%d): got %d events, want 1", capacity, len(events))
		}
	}
}

func TestTraceNilWithoutEnable(t *testing.T) {
	m := traceMachine(t, noTrace, 1, 1)
	if m.Trace() != nil {
		t.Fatal("Trace() without EnableTrace should be nil")
	}
}

func TestEnableTraceTwiceReplacesRing(t *testing.T) {
	m := NewMachine(CC, 1)
	m.EnableTrace(4)
	m.EnableTrace(2)
	v := m.NewVar("x", HomeGlobal, 0)
	m.AddProc("p", func(p *Proc) {
		for k := 0; k < 5; k++ {
			p.Write(v, Word(k))
		}
	})
	if err := m.Run(RunConfig{}).Err(); err != nil {
		t.Fatal(err)
	}
	if got := len(m.Trace()); got != 2 {
		t.Fatalf("got %d events, want 2 (second EnableTrace must replace, not stack)", got)
	}
}

// collectSink is a test EventSink retaining every event.
type collectSink struct{ events []TraceEvent }

func (c *collectSink) Record(ev TraceEvent) { c.events = append(c.events, ev) }

func TestAttachSinkSeesPhasedEvents(t *testing.T) {
	m := NewMachine(DSM, 2)
	sink := &collectSink{}
	m.AttachSink(sink)
	lock := m.NewVar("lock", HomeGlobal, 0)
	for i := 0; i < 2; i++ {
		m.AddProc("p", func(p *Proc) {
			p.BeginEntrySection()
			p.AwaitEq(lock, 0)
			p.RMW(lock, func(Word) Word { return 1 })
			p.EnterCS()
			p.Read(lock) // CS-phase access
			p.ExitCS()
			p.Write(lock, 0)
			p.EndExitSection()
		})
	}
	// Round-robin keeps both processes interleaving; the "lock" here is
	// not a real mutex under every schedule, so only check phases on a
	// schedule where it is.
	res := m.Run(RunConfig{Sched: NewRandom(3)})
	if res.Violation != nil {
		t.Skipf("schedule broke the toy lock: %v", res.Violation)
	}
	var sawEntry, sawCS, sawExit bool
	for _, ev := range sink.events {
		switch ev.Phase {
		case PhaseEntry:
			sawEntry = true
		case PhaseCS:
			sawCS = true
		case PhaseExit:
			sawExit = true
		}
	}
	if !sawEntry || !sawCS || !sawExit {
		t.Fatalf("missing phases: entry=%v cs=%v exit=%v", sawEntry, sawCS, sawExit)
	}
	// Per-phase RMR attribution must sum to the total.
	for _, p := range m.procs {
		var sum int64
		for _, v := range p.stats.PhaseRMRs {
			sum += v
		}
		if sum != p.stats.RMRs {
			t.Fatalf("p%d: phase RMRs %v sum to %d, total %d", p.id, p.stats.PhaseRMRs, sum, p.stats.RMRs)
		}
	}
}

// phaseCollectSink additionally retains phase transitions.
type phaseCollectSink struct {
	collectSink
	phases []PhaseEvent
}

func (c *phaseCollectSink) RecordPhase(ev PhaseEvent) { c.phases = append(c.phases, ev) }

// TestPhaseSinkSeesTransitions: a PhaseSink receives the four
// transitions of every entry, in order, with matching From/To chains
// per process.
func TestPhaseSinkSeesTransitions(t *testing.T) {
	m := NewMachine(DSM, 2)
	sink := &phaseCollectSink{}
	m.AttachSink(sink)
	lock := m.NewVar("lock", 0, 0)
	const entries = 3
	for i := 0; i < 2; i++ {
		m.AddProc("p", func(p *Proc) {
			for e := 0; e < entries; e++ {
				p.BeginEntrySection()
				p.AwaitEq(lock, 0)
				p.Write(lock, 1)
				p.EnterCS()
				p.ExitCS()
				p.Write(lock, 0)
				p.EndExitSection()
			}
		})
	}
	res := m.Run(RunConfig{Sched: NewRandom(5)})
	if res.Violation != nil {
		t.Skipf("schedule broke the toy lock: %v", res.Violation)
	}
	// Each process: entries × (ncs→entry→cs→exit→ncs).
	perProc := map[int][]PhaseEvent{}
	for _, ev := range sink.phases {
		perProc[ev.Proc] = append(perProc[ev.Proc], ev)
	}
	for proc, evs := range perProc {
		if len(evs) != 4*entries {
			t.Fatalf("p%d saw %d phase events, want %d", proc, len(evs), 4*entries)
		}
		wantTo := [4]Phase{PhaseEntry, PhaseCS, PhaseExit, PhaseNCS}
		prev := PhaseNCS
		for i, ev := range evs {
			if ev.From != prev || ev.To != wantTo[i%4] {
				t.Fatalf("p%d transition %d = %v→%v, want %v→%v", proc, i, ev.From, ev.To, prev, wantTo[i%4])
			}
			prev = ev.To
		}
	}
	// A plain EventSink must not be required to implement PhaseSink.
	m2 := NewMachine(DSM, 1)
	m2.AttachSink(&collectSink{})
	m2.AddProc("p", func(p *Proc) { p.BeginEntrySection(); p.EndExitSection() })
	if err := m2.Run(RunConfig{}).Err(); err != nil {
		t.Fatal(err)
	}
}

// TestEventRemoteMatchesRMRAccounting: summing Remote-marked events
// per process must reproduce the engine's RMR counters exactly, on
// every model.
func TestEventRemoteMatchesRMRAccounting(t *testing.T) {
	for _, model := range []Model{CC, DSM, CCUpdate} {
		m := NewMachine(model, 3)
		sink := &collectSink{}
		m.AttachSink(sink)
		v := m.NewVar("x", HomeGlobal, 0)
		local := m.NewVar("loc", 0, 0)
		for i := 0; i < 3; i++ {
			m.AddProc("p", func(p *Proc) {
				for k := 0; k < 5; k++ {
					p.RMW(v, func(w Word) Word { return w + 1 })
					p.Read(v)
					p.Write(local, Word(k))
				}
			})
		}
		res := m.Run(RunConfig{Sched: NewRandom(2)})
		if err := res.Err(); err != nil {
			t.Fatal(err)
		}
		remote := make([]int64, 3)
		for _, ev := range sink.events {
			if ev.Remote {
				remote[ev.Proc]++
			}
		}
		for i, ps := range res.Procs {
			if remote[i] != ps.RMRs {
				t.Fatalf("%v: p%d remote events %d != charged RMRs %d", model, i, remote[i], ps.RMRs)
			}
		}
	}
}

// TestMultiSinkFanout: every attached sink sees the identical event
// stream — fanout must not split, reorder, or duplicate.
func TestMultiSinkFanout(t *testing.T) {
	m := NewMachine(CC, 2)
	a, b := &collectSink{}, &phaseCollectSink{}
	m.AttachSink(a)
	m.AttachSink(b)
	m.EnableTrace(1 << 8)
	v := m.NewVar("x", HomeGlobal, 0)
	for i := 0; i < 2; i++ {
		m.AddProc("p", func(p *Proc) {
			p.BeginEntrySection()
			p.RMW(v, func(w Word) Word { return w + 1 })
			p.EndExitSection()
		})
	}
	if err := m.Run(RunConfig{Sched: NewRandom(9)}).Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.events, b.collectSink.events) {
		t.Fatal("two attached sinks saw different event streams")
	}
	if !reflect.DeepEqual(a.events, m.Trace()) {
		t.Fatal("sinks and trace ring diverged")
	}
	if len(b.phases) != 4 {
		t.Fatalf("phase sink saw %d transitions, want 4", len(b.phases))
	}
}

func TestSinkAndRingSeeSameEvents(t *testing.T) {
	m := NewMachine(CC, 2)
	sink := &collectSink{}
	m.AttachSink(sink)
	m.EnableTrace(1 << 10)
	v := m.NewVar("x", HomeGlobal, 0)
	for i := 0; i < 2; i++ {
		m.AddProc("p", func(p *Proc) {
			for k := 0; k < 4; k++ {
				p.RMW(v, func(w Word) Word { return w + 1 })
			}
		})
	}
	if err := m.Run(RunConfig{Sched: NewRandom(1)}).Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sink.events, m.Trace()) {
		t.Fatal("attached sink and trace ring diverged")
	}
}

// endLog is an EndSink that counts events and EndRun calls, and keeps
// the label of every variable its events touched.
type endLog struct {
	events, ends, late int
	vars               []Var
	labels             []string
}

func (l *endLog) Record(ev TraceEvent) {
	l.events++
	if l.ends > 0 {
		l.late++
	}
	l.vars = append(l.vars, ev.Var)
}

func (l *endLog) EndRun(labels Labeler) {
	l.ends++
	l.labels = l.labels[:0]
	for _, v := range l.vars {
		l.labels = append(l.labels, labels.Label(v))
	}
}

// TestEndRunOncePerRun: however a run ends (completed, deadlocked,
// timed out, a violation, or a panic in a process body), an attached
// EndSink is told once, after the last event, and can resolve the
// labels of the handles its events carried.
func TestEndRunOncePerRun(t *testing.T) {
	for _, tc := range []struct {
		name  string
		body  func(p *Proc, x, never Var)
		cfg   RunConfig
		ended func(Result) bool
	}{
		{"completed", func(p *Proc, x, _ Var) { p.Write(x, 1) }, RunConfig{},
			func(r Result) bool { return r.Completed }},
		{"deadlocked", func(p *Proc, x, never Var) { p.Write(x, 1); p.AwaitEq(never, 1) }, RunConfig{},
			func(r Result) bool { return r.Deadlocked }},
		{"timed out", func(p *Proc, x, _ Var) {
			for {
				p.Write(x, 1)
			}
		}, RunConfig{MaxSteps: 20}, func(r Result) bool { return r.TimedOut }},
		{"violation", func(p *Proc, x, _ Var) { p.Write(x, 1); p.EnterCS(); p.Read(x); p.ExitCS() }, RunConfig{Sched: RoundRobin{}},
			func(r Result) bool { return r.Violation != nil }},
		{"body panic", func(p *Proc, x, _ Var) { p.Write(x, 1); panic("boom") }, RunConfig{}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMachine(CC, 2)
			log := &endLog{}
			m.AttachSink(log)
			x := m.NewArray("x", 1, HomeGlobal, 0)[0]
			never := m.NewVar("never", HomeGlobal, 0)
			for i := 0; i < 2; i++ {
				m.AddProc("p", func(p *Proc) { tc.body(p, x, never) })
			}
			func() {
				defer func() {
					if r := recover(); (r != nil) != (tc.ended == nil) {
						t.Fatalf("run recovered %v", r)
					}
				}()
				if res := m.Run(tc.cfg); !tc.ended(res) {
					t.Fatalf("run ended %+v", res)
				}
			}()
			if log.ends != 1 || log.late != 0 || log.events == 0 {
				t.Fatalf("%d events, EndRun called %d times, %d events after it; want events and one call before none", log.events, log.ends, log.late)
			}
			for i, v := range log.vars {
				if want := map[Var]string{x: "x[0]", never: "never"}[v]; log.labels[i] != want {
					t.Fatalf("event %d labelled %q, want %q", i, log.labels[i], want)
				}
			}
			m.Release()
		})
	}
}
