package memsim

import (
	"fmt"

	"fetchphi/internal/phi"
)

// procStatus is the engine-side scheduling state of a process.
type procStatus int

const (
	// statusReady: the process is blocked at a scheduling point,
	// ready to perform its next operation when resumed.
	statusReady procStatus = iota
	// statusWaiting: the process is inside an Await whose condition
	// was false; it must not be resumed until a watched variable is
	// written.
	statusWaiting
	// statusRecheck: a watched variable was written; the process is
	// eligible to be resumed for a condition re-check.
	statusRecheck
	// statusDone: the process body returned (or was killed).
	statusDone
)

// killed is the panic sentinel used to unwind a process body when the
// engine tears a run down.
type killed struct{}

// violation is the panic sentinel carrying an assertion failure out of
// a process body; the run ends with it recorded as Result.Violation.
// "Abort" in this package's API always means abort-the-request
// (AbortPoint, AwaitAbortable, AbortPassage), never a detected
// violation.
type violation struct{ err error }

// ProcStats accumulates the per-process metrics the experiments report.
type ProcStats struct {
	// RMRs is the number of remote memory references, under the
	// machine's model.
	RMRs int64
	// Steps is the number of scheduling points executed.
	Steps int64
	// CSEntries is the number of critical-section entries.
	CSEntries int64
	// NonLocalSpinReads counts busy-wait re-check reads of variables
	// not homed at the spinner (DSM model only). A local-spin
	// algorithm must keep this at zero.
	NonLocalSpinReads int64
	// MaxRMRGap is the largest number of RMRs spent on a single
	// entry/exit pair (set by the CS monitor).
	MaxRMRGap int64
	// AwaitBlocks counts how many times the process actually blocked
	// in an Await (condition false on first evaluation) — a latency
	// indicator the RMR measure does not capture.
	AwaitBlocks int64
	// PhaseRMRs breaks RMRs down by the algorithm phase that incurred
	// them, indexed by Phase. Phase transitions are driven by
	// BeginEntrySection/EnterCS/ExitCS/EndExitSection; processes that
	// never call those charge everything to PhaseNCS.
	PhaseRMRs [NumPhases]int64
	// Aborts counts passages the process withdrew from after an abort
	// request (AbortPassage calls). A passage that reached the critical
	// section despite a pending request is a CS entry, not an abort.
	Aborts int64
	// MaxAbortResolveSteps is the largest number of the process's OWN
	// scheduling points between an abort request firing and its
	// resolution (withdrawal via AbortPassage, or CS entry when the
	// acquisition won the race). Wait-free aborts keep this bounded by
	// a constant independent of the schedule; the abort-conformance
	// tests assert a bound over every explored schedule.
	MaxAbortResolveSteps int64
}

// Proc is one simulated process. All its methods must be called from
// the process's own body function; they are the process's interface to
// the simulated shared memory.
type Proc struct {
	m    *Machine
	id   int
	name string
	body func(*Proc)

	// carrier is the coroutine the process runs on, bound when the run
	// starts.
	carrier *carrier

	status     procStatus
	watch      []Var
	watchEpoch uint64
	spinRead   func(Var) Word // the read an await condition gets; made on first use

	stats        ProcStats
	phase        Phase
	rmrAtAcquire int64 // RMR count when the current entry section began

	// Abort-schedule state (see abort.go). passage counts
	// BeginEntrySection calls (-1 before the first); entryEvents counts
	// the process's scheduling points inside the current entry section.
	// abortPoints is this process's slice of the machine's schedule, in
	// firing order; abortPending is the delivered-but-unresolved
	// request.
	passage        int
	entryEvents    int
	abortPoints    []AbortPoint
	abortNext      int
	abortPending   bool
	abortFireSteps int64 // stats.Steps when the pending request fired
}

// ID returns the process id (0..N-1).
func (p *Proc) ID() int { return p.id }

// Machine returns the machine this process runs on.
func (p *Proc) Machine() *Machine { return p.m }

// Model is shorthand for p.Machine().Model().
func (p *Proc) Model() Model { return p.m.model }

// Stats returns the statistics accumulated so far. Call after the run
// completes.
func (p *Proc) Stats() ProcStats { return p.stats }

// AddProc registers a simulated process. Processes must be added before
// Run; ids are assigned in registration order and must stay below the
// nproc the machine was sized for.
func (m *Machine) AddProc(name string, body func(*Proc)) *Proc {
	if len(m.procs) >= m.nproc {
		panic(fmt.Sprintf("memsim: more than %d processes added", m.nproc))
	}
	id := len(m.procs)
	m.procs = grow(m.procs) // a released Proc of this machine, if any
	p := m.procs[id]
	p.m, p.id, p.name, p.body, p.passage = m, id, name, body, -1
	return p
}

// yield ends the process's current step at a scheduling point, leaving
// it in status st (statusReady, or statusWaiting after a false await
// condition), and runs the engine step that picks the next process. If
// that is this process it simply continues; otherwise it leaves the
// pick in m.next, yields to the run loop and parks until resumed. It
// panics with the kill sentinel when resumed to be torn down.
//
// Every resumption inside an entry section is one abort-schedule
// "event" (see AbortPoint.Event): pending abort points fire here,
// synchronously within the process's own execution, which is what
// keeps abort delivery a pure function of the schedule.
func (p *Proc) yield(st procStatus) {
	p.status = st
	if st == statusWaiting {
		p.m.ready.remove(p.id)
		p.m.readyDirty = true
	}
	if next := p.m.schedule(); next != p {
		p.m.next = next
		if !p.carrier.yield(struct{}{}) || p.m.killed {
			panic(killed{})
		}
	}
	p.stats.Steps++
	if p.phase == PhaseEntry {
		p.entryEvents++
		p.fireAbortPoints()
	}
}

// Read performs an atomic read of v. One scheduling point.
func (p *Proc) Read(v Var) Word {
	p.yield(statusReady)
	return p.m.doRead(p, v, false)
}

// Write performs an atomic write of x to v. One scheduling point.
func (p *Proc) Write(v Var, x Word) {
	p.yield(statusReady)
	p.m.doWrite(p, v, x)
}

// RMW atomically replaces v's value with f(v) and returns the old
// value. One scheduling point. f must be pure.
func (p *Proc) RMW(v Var, f func(Word) Word) Word {
	p.yield(statusReady)
	return p.m.doRMW(p, v, f)
}

// FetchPhi invokes a fetch-and-φ primitive on v with the given input,
// returning the variable's old value (the paper's convention).
func (p *Proc) FetchPhi(v Var, prim phi.Primitive, input Word) Word {
	return p.RMW(v, func(old Word) Word { return prim.Apply(old, input) })
}

// Await blocks until cond holds. cond is re-evaluated (atomically) each
// time one of the watched variables is written; reads it performs are
// charged RMRs like ordinary reads, with spin accounting. Every
// variable cond reads must be in watch, or wake-ups can be missed.
func (p *Proc) Await(cond func(read func(Var) Word) bool, watch ...Var) {
	if len(watch) == 0 {
		panic("memsim: Await with empty watch set")
	}
	p.watch = watch
	p.yield(statusReady)
	for {
		if p.evalCond(cond) {
			p.watch = nil
			p.watchEpoch++
			return
		}
		p.stats.AwaitBlocks++
		p.m.registerWatch(p)
		p.yield(statusWaiting)
	}
}

// AwaitAbortable is Await for abortable entry sections: it returns
// true, without blocking further, as soon as an abort request is
// pending for this process — whether the request fired before the call
// or at one of its re-check points. It returns false when cond holds
// (checked after the abort flag, so a request that races the
// condition's establishment reports as an abort; callers that must
// distinguish re-inspect shared state under their own locks). The
// watch contract is Await's.
func (p *Proc) AwaitAbortable(cond func(read func(Var) Word) bool, watch ...Var) (aborted bool) {
	if len(watch) == 0 {
		panic("memsim: AwaitAbortable with empty watch set")
	}
	p.watch = watch
	p.yield(statusReady)
	for {
		if p.abortPending {
			p.watch = nil
			p.watchEpoch++
			return true
		}
		if p.evalCond(cond) {
			p.watch = nil
			p.watchEpoch++
			return false
		}
		p.stats.AwaitBlocks++
		p.m.registerWatch(p)
		p.yield(statusWaiting)
	}
}

// evalCond runs one atomic re-check, charging spin-read RMRs.
func (p *Proc) evalCond(cond func(read func(Var) Word) bool) bool {
	if p.spinRead == nil {
		p.spinRead = func(v Var) Word { return p.m.doRead(p, v, true) }
	}
	return cond(p.spinRead)
}

// AwaitEq blocks until v's value equals want.
func (p *Proc) AwaitEq(v Var, want Word) {
	p.Await(func(read func(Var) Word) bool { return read(v) == want }, v)
}

// AwaitTrue blocks until v is nonzero (boolean true).
func (p *Proc) AwaitTrue(v Var) {
	p.Await(func(read func(Var) Word) bool { return read(v) != 0 }, v)
}

// AwaitNonBottom blocks until v differs from ⊥.
func (p *Proc) AwaitNonBottom(v Var) {
	p.Await(func(read func(Var) Word) bool { return read(v) != phi.Bottom }, v)
}

// EnterCS marks entry to the critical section and asserts mutual
// exclusion. One scheduling point, so overlapping critical sections of
// two processes are observable by the engine.
func (p *Proc) EnterCS() {
	p.yield(statusReady)
	if occ := p.m.csOccupant; occ != -1 {
		p.failf("mutual exclusion violated: process %d entered the critical section while process %d held it", p.id, occ)
	}
	p.m.csOccupant = p.id
	p.m.csEntries++
	p.stats.CSEntries++
	// An abort request the acquisition outran lapses here: the passage
	// completes normally, and the steps-to-resolution still count
	// against the wait-free-abort bound.
	p.resolveAbort()
	from := p.phase
	p.phase = PhaseCS
	p.m.recordPhase(p, from, PhaseCS)
}

// ExitCS marks exit from the critical section. One scheduling point.
func (p *Proc) ExitCS() {
	p.yield(statusReady)
	if p.m.csOccupant != p.id {
		p.failf("critical-section exit by process %d, but occupant is %d", p.id, p.m.csOccupant)
	}
	p.m.csOccupant = -1
	from := p.phase
	p.phase = PhaseExit
	p.m.recordPhase(p, from, PhaseExit)
}

// BeginEntrySection records the RMR count at the start of an entry
// section so EndExitSection can attribute a per-entry RMR cost, and
// switches the process's phase to PhaseEntry. It also starts a new
// passage for the abort schedule: the passage index advances, the
// entry-event counter resets, and any abort point targeting event 0 of
// the new passage fires immediately.
func (p *Proc) BeginEntrySection() {
	p.rmrAtAcquire = p.stats.RMRs
	p.passage++
	p.entryEvents = 0
	p.fireAbortPoints()
	from := p.phase
	p.phase = PhaseEntry
	p.m.recordPhase(p, from, PhaseEntry)
}

// EndExitSection closes the RMR window opened by BeginEntrySection and
// returns this entry's RMR cost (entry + CS + exit sections), so
// callers can histogram the per-entry distribution rather than keep
// only the maximum.
func (p *Proc) EndExitSection() int64 {
	gap := p.stats.RMRs - p.rmrAtAcquire
	if gap > p.stats.MaxRMRGap {
		p.stats.MaxRMRGap = gap
	}
	from := p.phase
	p.phase = PhaseNCS
	p.m.recordPhase(p, from, PhaseNCS)
	return gap
}

// AbortPassage ends a passage the process withdrew from: the entry
// section observed the pending abort request and unwound. It resolves
// the request (recording steps-to-resolution), counts the abort,
// closes the RMR window opened by BeginEntrySection, and returns the
// aborted passage's RMR cost. The process's phase returns to PhaseNCS;
// a re-request is simply the next BeginEntrySection.
//
// Calling it with no pending request is a harness bug and fails the
// run: withdrawal must only happen in response to a delivered abort.
func (p *Proc) AbortPassage() int64 {
	if !p.abortPending {
		p.failf("process %d aborted a passage with no abort request pending", p.id)
	}
	p.resolveAbort()
	p.stats.Aborts++
	gap := p.stats.RMRs - p.rmrAtAcquire
	from := p.phase
	p.phase = PhaseNCS
	p.m.recordPhase(p, from, PhaseNCS)
	return gap
}

// failf aborts the run with a violation and unwinds this process.
func (p *Proc) failf(format string, args ...any) {
	panic(violation{err: fmt.Errorf("memsim: "+format, args...)})
}

// Fail aborts the run, recording a violation detected by algorithm- or
// harness-level assertion code running inside this process (e.g. the
// side-contract checks of the two-process mutex). The run's Result
// reports it like any built-in violation.
func (p *Proc) Fail(format string, args ...any) {
	panic(violation{err: fmt.Errorf(format, args...)})
}
