package memsim

import (
	"fmt"
	"sort"
	"strings"
)

// This file is the abort-schedule half of the adversary: deterministic
// delivery of abort-the-request signals to processes competing in an
// abortable mutual exclusion algorithm (Jayanti & Jayanti's
// constant-amortized-RMR deterministic abortable mutex is the model
// workload). An abort schedule is data, like a preemption schedule:
// it fires as a pure function of the interleaving, so the explorer can
// enumerate abort schedules exactly the way it enumerates preemption
// placements and every (abort schedule × preemption schedule) product
// point is replayable bit for bit.
//
// Delivery is synchronous with the target's own execution: a point
// (proc, passage, event) fires when the process resumes from its
// event-th scheduling point inside the entry section of its passage-th
// passage (event 0 fires in BeginEntrySection itself, before the first
// operation). A blocked process accrues no events, so a request never
// materializes "inside" a suspended await — the interleavings where an
// establishment races the abort are instead covered by the explorer's
// preemption placements around the fire point, which keeps the whole
// mechanism free of cross-process wake machinery and therefore
// trivially deterministic.

// AbortPoint requests one abort delivery: process Proc receives an
// abort request at entry-section event Event of its Passage-th passage
// (both 0-based; passages are counted by BeginEntrySection). A point
// whose passage is skipped or whose event count is never reached
// simply does not fire — the run is then identical to one scheduled
// without it.
type AbortPoint struct {
	// Proc is the target process id.
	Proc int
	// Passage selects which of the process's passages to abort
	// (0-based BeginEntrySection count). Aborting a re-request is
	// Passage = 1 of the same entry.
	Passage int
	// Event is the entry-section scheduling-point index at which the
	// request fires: 0 fires before the passage's first operation, k
	// fires as the process resumes from its k-th operation.
	Event int
}

// String renders the point in the compact p/passage/event form used in
// conformance-failure messages.
func (a AbortPoint) String() string {
	return fmt.Sprintf("p%d@%d.%d", a.Proc, a.Passage, a.Event)
}

// ScheduleAborts adds abort points to the machine's schedule; call any
// time before Run. Points are delivered per process in (Passage,
// Event) order regardless of the order given here.
func (m *Machine) ScheduleAborts(points ...AbortPoint) {
	for _, pt := range points {
		if pt.Proc < 0 || pt.Proc >= m.nproc {
			panic(fmt.Sprintf("memsim: abort point %v targets an invalid process (nproc=%d)", pt, m.nproc))
		}
		if pt.Passage < 0 || pt.Event < 0 {
			panic(fmt.Sprintf("memsim: abort point %v has a negative coordinate", pt))
		}
	}
	m.abortPoints = append(m.abortPoints, points...)
}

// distributeAbortPoints hands each process its slice of the schedule,
// sorted into firing order. Run calls it once, before processes start.
func (m *Machine) distributeAbortPoints() {
	if len(m.abortPoints) == 0 {
		return
	}
	pts := append([]AbortPoint(nil), m.abortPoints...)
	sort.SliceStable(pts, func(i, j int) bool {
		if pts[i].Proc != pts[j].Proc {
			return pts[i].Proc < pts[j].Proc
		}
		if pts[i].Passage != pts[j].Passage {
			return pts[i].Passage < pts[j].Passage
		}
		return pts[i].Event < pts[j].Event
	})
	for _, pt := range pts {
		p := m.procs[pt.Proc]
		p.abortPoints = append(p.abortPoints, pt)
	}
}

// fireAbortPoints delivers every due abort point for the process's
// current (passage, event) position. Points for passages already over
// are skipped; at most one request is pending at a time, so points
// firing while one is pending collapse into it.
func (p *Proc) fireAbortPoints() {
	for p.abortNext < len(p.abortPoints) {
		pt := p.abortPoints[p.abortNext]
		if pt.Passage > p.passage {
			return
		}
		if pt.Passage == p.passage && pt.Event > p.entryEvents {
			return
		}
		p.abortNext++
		if pt.Passage == p.passage && !p.abortPending {
			p.abortPending = true
			p.abortFireSteps = p.stats.Steps
		}
	}
}

// AbortRequested reports whether an abort request is pending for the
// process. It is instrumentation (no simulated cost, not a scheduling
// point): abortable entry sections poll it at their decision points
// and unwind via AbortPassage when it is set.
func (p *Proc) AbortRequested() bool { return p.abortPending }

// resolveAbort closes a pending request, folding its steps-to-
// resolution into the wait-free-abort statistic. Reached from
// AbortPassage (withdrawal) and EnterCS (acquisition outran the
// request).
func (p *Proc) resolveAbort() {
	if !p.abortPending {
		return
	}
	p.abortPending = false
	if d := p.stats.Steps - p.abortFireSteps; d > p.stats.MaxAbortResolveSteps {
		p.stats.MaxAbortResolveSteps = d
	}
}

// EnumerateAbortSchedules returns the canonical abort-schedule family
// for nproc processes over entry events 0..maxEvent: first the empty
// schedule, then every single-point schedule on passage 0 in (proc,
// event) order, then — when retry is true — the double-abort schedules
// hitting a process's first passage and its re-request at the same
// event, then the same-event cross-process pairs. The order is the
// enumeration's identity: conformance artifacts and failure reports
// index into it, so it must never be reordered, only extended.
func EnumerateAbortSchedules(nproc, maxEvent int, retry bool) [][]AbortPoint {
	scheds := [][]AbortPoint{nil}
	for proc := 0; proc < nproc; proc++ {
		for ev := 0; ev <= maxEvent; ev++ {
			scheds = append(scheds, []AbortPoint{{Proc: proc, Passage: 0, Event: ev}})
		}
	}
	if retry {
		for proc := 0; proc < nproc; proc++ {
			for ev := 0; ev <= maxEvent; ev++ {
				scheds = append(scheds, []AbortPoint{
					{Proc: proc, Passage: 0, Event: ev},
					{Proc: proc, Passage: 1, Event: ev},
				})
			}
		}
	}
	for a := 0; a < nproc; a++ {
		for b := a + 1; b < nproc; b++ {
			for ev := 0; ev <= maxEvent; ev++ {
				scheds = append(scheds, []AbortPoint{
					{Proc: a, Passage: 0, Event: ev},
					{Proc: b, Passage: 0, Event: ev},
				})
			}
		}
	}
	return scheds
}

// FormatAbortSchedule renders a schedule for failure messages: the
// empty schedule prints as "-" so reports stay grep-able.
func FormatAbortSchedule(sched []AbortPoint) string {
	if len(sched) == 0 {
		return "-"
	}
	var b strings.Builder
	for i, pt := range sched {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(pt.String())
	}
	return b.String()
}
