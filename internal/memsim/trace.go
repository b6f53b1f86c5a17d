package memsim

import (
	"fmt"
	"strings"
)

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
// machine's event sinks (and recorded by the built-in trace ring).
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
	// Var is the accessed variable's name.
	Var string
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
type EventSink interface {
	// Record is called once per shared-memory operation.
	Record(ev TraceEvent)
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
// receive phase-transition events.
func (m *Machine) AttachSink(s EventSink) {
	if s == nil {
		panic("memsim: AttachSink(nil)")
	}
	m.sinks = append(m.sinks, s)
	if ps, ok := s.(PhaseSink); ok {
		m.phaseSinks = append(m.phaseSinks, ps)
	}
}

// String renders the event as one log line.
func (e TraceEvent) String() string {
	if e.Before == e.After {
		return fmt.Sprintf("[%06d] p%d %-9s %s = %d", e.Step, e.Proc, e.Kind, e.Var, e.Before)
	}
	return fmt.Sprintf("[%06d] p%d %-9s %s: %d -> %d", e.Step, e.Proc, e.Kind, e.Var, e.Before, e.After)
}

// traceRing is a fixed-capacity ring buffer of the most recent events —
// the built-in EventSink behind EnableTrace.
type traceRing struct {
	events []TraceEvent
	next   int
	filled bool
}

// Record implements EventSink.
func (r *traceRing) Record(ev TraceEvent) {
	r.events[r.next] = ev
	r.next++
	if r.next == len(r.events) {
		r.next = 0
		r.filled = true
	}
}

// EnableTrace starts recording the machine's last `capacity`
// shared-memory operations. Call before Run; retrieve with Trace after
// the run (typically when diagnosing a violation or deadlock). Tracing
// costs no simulated steps or RMRs. Calling EnableTrace again replaces
// the previous ring; sinks attached with AttachSink are unaffected.
func (m *Machine) EnableTrace(capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	ring := &traceRing{events: make([]TraceEvent, capacity)}
	if m.trace != nil {
		for i, s := range m.sinks {
			if s == EventSink(m.trace) {
				m.sinks[i] = ring
			}
		}
	} else {
		m.sinks = append(m.sinks, ring)
	}
	m.trace = ring
}

// Trace returns the recorded events, oldest first. It returns nil if
// EnableTrace was not called.
func (m *Machine) Trace() []TraceEvent {
	if m.trace == nil {
		return nil
	}
	r := m.trace
	if !r.filled {
		out := make([]TraceEvent, r.next)
		copy(out, r.events[:r.next])
		return out
	}
	out := make([]TraceEvent, 0, len(r.events))
	out = append(out, r.events[r.next:]...)
	out = append(out, r.events[:r.next]...)
	return out
}

// FormatTrace renders the recorded events as a multi-line string.
func (m *Machine) FormatTrace() string {
	events := m.Trace()
	if len(events) == 0 {
		return "(no trace recorded)"
	}
	var b strings.Builder
	for _, e := range events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// record delivers one event to every attached sink.
func (m *Machine) record(p *Proc, kind TraceKind, vv *variable, before, after Word, remote bool) {
	ev := TraceEvent{
		Step:   m.steps,
		Proc:   p.id,
		Kind:   kind,
		Phase:  p.phase,
		Var:    vv.label(),
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
