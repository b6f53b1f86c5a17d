package memsim

import "fmt"

// TraceKind labels one recorded event.
type TraceKind int

// The recorded event kinds.
const (
	// TraceRead is an ordinary read.
	TraceRead TraceKind = iota
	// TraceWrite is an ordinary write.
	TraceWrite
	// TraceRMW is an atomic read-modify-write.
	TraceRMW
	// TraceSpinRead is a busy-wait re-check read.
	TraceSpinRead
)

// String implements fmt.Stringer.
func (k TraceKind) String() string {
	switch k {
	case TraceRead:
		return "read"
	case TraceWrite:
		return "write"
	case TraceRMW:
		return "rmw"
	case TraceSpinRead:
		return "spin-read"
	default:
		return "?"
	}
}

// TraceEvent is one shared-memory operation, as delivered to the
// machine's event sinks.
type TraceEvent struct {
	// Step is the global scheduling step at which the operation ran.
	Step int64
	// Proc is the acting process id.
	Proc int
	// Kind is the operation type.
	Kind TraceKind
	// Phase is the algorithm phase the acting process was in
	// (entry/cs/exit, or ncs when the process tracks no phases).
	Phase Phase
	// Var is the accessed variable. It is a handle, valid only while
	// the machine is: a sink that keeps it past the run resolves its
	// label in EndRun (see EndSink), and Machine.Label resolves it
	// before Release.
	Var Var
	// Before and After are the variable's values around the
	// operation (equal for reads).
	Before, After Word
	// Remote reports whether the operation was charged a remote
	// memory reference under the machine's model — the per-event form
	// of the RMR accounting, letting sinks attribute costs without
	// re-deriving locality.
	Remote bool
}

// EventSink observes every shared-memory operation of a run. Sinks are
// invoked synchronously from the simulated process's scheduling window,
// so they see a totally ordered event stream and need no locking; they
// must not call back into the machine. Recording costs no simulated
// steps or RMRs.
//
// Events name variables by handle, and the engine formats no label
// while the run is on. A sink that reports names resolves them once,
// when the run ends, by also implementing EndSink. A sink that wraps
// another must forward EndRun (and RecordPhase) to it, or the inner
// sink never learns its labels.
type EventSink interface {
	// Record is called once per shared-memory operation.
	Record(ev TraceEvent)
}

// Labeler resolves a machine's variable handles to their labels.
// Machine is one.
type Labeler interface {
	// Label returns v's allocation name (see Machine.Label).
	Label(v Var) string
}

// EndSink is an EventSink that is also told when its run ends.
type EndSink interface {
	EventSink
	// EndRun is called once per run, after the last event and phase
	// transition and before the machine can be released, however the
	// run ended: completed, deadlocked, timed out, with a violation or
	// with a panic. labels resolves the run's handles during the call
	// only: the sink keeps the strings it needs, not labels.
	EndRun(labels Labeler)
}

// PhaseEvent is one algorithm-phase transition of a process, as
// delivered to sinks that also implement PhaseSink. Transitions are
// driven by BeginEntrySection / EnterCS / ExitCS / EndExitSection.
type PhaseEvent struct {
	// Step is the global scheduling step at the transition.
	Step int64
	// Proc is the transitioning process id.
	Proc int
	// From and To are the phases around the transition.
	From, To Phase
}

// PhaseSink is an EventSink that additionally observes phase
// transitions, with the same delivery contract as Record: synchronous,
// totally ordered, no simulated cost. Sinks attached via AttachSink
// that implement PhaseSink receive both streams.
type PhaseSink interface {
	EventSink
	// RecordPhase is called once per phase transition.
	RecordPhase(ev PhaseEvent)
}

// AttachSink subscribes a sink to the machine's event stream. Call
// before Run. Multiple sinks may be attached; each receives every
// event, in order. Sinks that also implement PhaseSink additionally
// receive phase-transition events, and sinks that implement EndSink
// the end of the run.
func (m *Machine) AttachSink(s EventSink) {
	if s == nil {
		panic("memsim: AttachSink(nil)")
	}
	m.sinks = append(m.sinks, s)
	if ps, ok := s.(PhaseSink); ok {
		m.phaseSinks = append(m.phaseSinks, ps)
	}
	if es, ok := s.(EndSink); ok {
		m.endSinks = append(m.endSinks, es)
	}
}

// endRun tells every EndSink that the run is over.
func (m *Machine) endRun() {
	for _, s := range m.endSinks {
		s.EndRun(m)
	}
}

// Format renders the event as one log line, naming its variable label.
func (e TraceEvent) Format(label string) string {
	if e.Before == e.After {
		return fmt.Sprintf("[%06d] p%d %-9s %s = %d", e.Step, e.Proc, e.Kind, label, e.Before)
	}
	return fmt.Sprintf("[%06d] p%d %-9s %s: %d -> %d", e.Step, e.Proc, e.Kind, label, e.Before, e.After)
}

// record delivers one event to every attached sink.
func (m *Machine) record(p *Proc, kind TraceKind, v Var, before, after Word, remote bool) {
	ev := TraceEvent{
		Step:   m.steps,
		Proc:   p.id,
		Kind:   kind,
		Phase:  p.phase,
		Var:    v,
		Before: before,
		After:  after,
		Remote: remote,
	}
	for _, s := range m.sinks {
		s.Record(ev)
	}
}

// recordPhase delivers one phase transition to every phase-aware sink.
func (m *Machine) recordPhase(p *Proc, from, to Phase) {
	if len(m.phaseSinks) == 0 {
		return
	}
	ev := PhaseEvent{Step: m.steps, Proc: p.id, From: from, To: to}
	for _, s := range m.phaseSinks {
		s.RecordPhase(ev)
	}
}
