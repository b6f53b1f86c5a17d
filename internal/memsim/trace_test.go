package memsim

import (
	"reflect"
	"testing"
)

// lastEvents is a test EventSink keeping the most recent keep events,
// oldest first: what a failure dump attaches to see how a run ended.
type lastEvents struct {
	keep   int
	events []TraceEvent
}

func (l *lastEvents) Record(ev TraceEvent) {
	if len(l.events) == l.keep {
		l.events = append(l.events[:0], l.events[1:]...)
	}
	l.events = append(l.events, ev)
}

// traceMachine runs nproc processes that each write their id into a
// shared variable `writes` times, under a deterministic scheduler, and
// returns the last keep events.
func traceMachine(t *testing.T, keep, nproc, writes int) []TraceEvent {
	t.Helper()
	m := NewMachine(CC, nproc)
	last := &lastEvents{keep: keep}
	m.AttachSink(last)
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
	m.Release()
	return last.events
}

// TestTraceBeforeFill: a sink sees every operation, in step order.
func TestTraceBeforeFill(t *testing.T) {
	// 2 procs × 3 writes = 6 events, fewer than the 16 kept.
	events := traceMachine(t, 16, 2, 3)
	if len(events) != 6 {
		t.Fatalf("got %d events, want 6", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].Step <= events[i-1].Step {
			t.Fatalf("events out of order: step %d after %d", events[i].Step, events[i-1].Step)
		}
	}
}

// TestTraceWraparoundOrdering: the event stream is a function of the
// schedule, so the last events of a run are the tail of an identical
// run's whole stream.
func TestTraceWraparoundOrdering(t *testing.T) {
	// 4 procs × 8 writes = 32 events, of which the last 5 are kept.
	events := traceMachine(t, 5, 4, 8)
	if len(events) != 5 {
		t.Fatalf("got %d events, want 5", len(events))
	}
	for i := 1; i < len(events); i++ {
		if events[i].Step <= events[i-1].Step {
			t.Fatalf("kept events out of order: step %d after %d", events[i].Step, events[i-1].Step)
		}
	}
	// Same seed ⇒ bit-identical schedule.
	full := traceMachine(t, 1<<10, 4, 8)
	if !reflect.DeepEqual(events, full[len(full)-5:]) {
		t.Fatalf("kept\n%v\nwant tail of full trace\n%v", events, full[len(full)-5:])
	}
}

// TestTraceNilWithoutEnable: a machine traces nothing to a sink that
// is not attached to it. A recycled machine whose previous build had a
// sink, an EndSink and a PhaseSink, delivers no operation, transition
// or end of its next run to it.
func TestTraceNilWithoutEnable(t *testing.T) {
	build := func() *Machine {
		m := NewMachine(CC, 2)
		v := m.NewVar("x", HomeGlobal, 0)
		for i := 0; i < 2; i++ {
			m.AddProc("p", func(p *Proc) {
				p.BeginEntrySection()
				p.Write(v, 1)
				p.EndExitSection()
			})
		}
		return m
	}
	DropReleasedMachines()
	m := build()
	sink := &phaseCollectSink{}
	ends := &endLog{}
	m.AttachSink(sink)
	m.AttachSink(ends)
	if err := m.Run(RunConfig{Sched: NewRandom(1)}).Err(); err != nil {
		t.Fatal(err)
	}
	events, phases := len(sink.events), len(sink.phases)
	if events == 0 || phases == 0 || ends.ends != 1 {
		t.Fatalf("attached sinks saw %d events, %d transitions, %d ends", events, phases, ends.ends)
	}
	m.Release()
	again := build()
	if again != m {
		t.Fatal("the next build did not recycle the released machine")
	}
	if err := again.Run(RunConfig{Sched: NewRandom(1)}).Err(); err != nil {
		t.Fatal(err)
	}
	again.Release()
	if len(sink.events) != events || len(sink.phases) != phases || ends.ends != 1 {
		t.Fatalf("the recycled machine's run reached the previous build's sinks: %d events, %d transitions, %d ends",
			len(sink.events)-events, len(sink.phases)-phases, ends.ends-1)
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
	last := &lastEvents{keep: 1 << 8}
	m.AttachSink(a)
	m.AttachSink(b)
	m.AttachSink(last)
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
	if !reflect.DeepEqual(a.events, last.events) {
		t.Fatal("a plain sink and a phase sink saw different event streams")
	}
	if len(b.phases) != 4 {
		t.Fatalf("phase sink saw %d transitions, want 4", len(b.phases))
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
