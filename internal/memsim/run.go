package memsim

import (
	"fmt"
	"strings"
)

// DefaultMaxSteps bounds a run when RunConfig.MaxSteps is zero.
const DefaultMaxSteps = 20_000_000

// RunConfig configures one run of a machine.
type RunConfig struct {
	// Sched decides the interleaving. Defaults to NewRandom(1).
	Sched Scheduler
	// MaxSteps aborts runs that exceed this many scheduling points
	// (livelock/starvation guard). Defaults to DefaultMaxSteps.
	MaxSteps int64
	// Observer, if non-nil, is invoked at every scheduling decision
	// with the runnable set (ascending ids) and the chosen process.
	// runnable is the slice Pick saw, with Pick's ownership rules: do
	// not modify it, and copy it to keep it past the call.
	Observer func(step int64, runnable []int, chosen int)
}

// Result summarizes one completed run.
type Result struct {
	// Completed is true iff every process body ran to completion
	// with no violation.
	Completed bool
	// Deadlocked is true if some processes were still waiting when
	// no process could be scheduled.
	Deadlocked bool
	// TimedOut is true if the MaxSteps bound was hit.
	TimedOut bool
	// Violation holds the first assertion failure (mutual exclusion,
	// CS protocol), if any.
	Violation error
	// Steps is the total number of scheduling points executed.
	Steps int64
	// CSEntries is the total number of critical-section entries.
	CSEntries int64
	// Procs holds per-process statistics, indexed by process id.
	Procs []ProcStats
	// WaitingProcs lists the ids of processes blocked in an Await
	// when the run ended without completing.
	WaitingProcs []int
	// WaitingDetail describes, for each entry of WaitingProcs, the
	// variables its await watches — the first thing to look at when
	// diagnosing a deadlock.
	WaitingDetail []string
}

// Err converts a non-successful result into an error, nil otherwise.
func (r Result) Err() error {
	switch {
	case r.Violation != nil:
		return r.Violation
	case r.Deadlocked:
		return fmt.Errorf("memsim: deadlock after %d steps; %s", r.Steps, strings.Join(r.WaitingDetail, "; "))
	case r.TimedOut:
		return fmt.Errorf("memsim: run exceeded %d steps (livelock or starvation)", r.Steps)
	case !r.Completed:
		return fmt.Errorf("memsim: run did not complete")
	default:
		return nil
	}
}

// TotalRMRs sums RMRs over all processes.
func (r Result) TotalRMRs() int64 {
	var total int64
	for i := range r.Procs {
		total += r.Procs[i].RMRs
	}
	return total
}

// MaxRMRPerEntry returns the worst per-entry RMR cost observed by any
// process (requires the processes to use BeginEntrySection /
// EndExitSection, which the harness workload does).
func (r Result) MaxRMRPerEntry() int64 {
	var worst int64
	for i := range r.Procs {
		if g := r.Procs[i].MaxRMRGap; g > worst {
			worst = g
		}
	}
	return worst
}

// MeanRMRPerEntry returns total RMRs divided by total CS entries.
func (r Result) MeanRMRPerEntry() float64 {
	if r.CSEntries == 0 {
		return 0
	}
	return float64(r.TotalRMRs()) / float64(r.CSEntries)
}

// NonLocalSpinReads sums spin re-check reads of remotely homed
// variables across processes (DSM model).
func (r Result) NonLocalSpinReads() int64 {
	var total int64
	for i := range r.Procs {
		total += r.Procs[i].NonLocalSpinReads
	}
	return total
}

// TotalAborts sums withdrawn passages across processes.
func (r Result) TotalAborts() int64 {
	var total int64
	for i := range r.Procs {
		total += r.Procs[i].Aborts
	}
	return total
}

// Passages is the abortable workload's denominator: passages that
// either completed (a CS entry) or were withdrawn (an abort).
func (r Result) Passages() int64 { return r.CSEntries + r.TotalAborts() }

// AmortizedRMRPerPassage is total RMRs divided by completed-or-aborted
// passages — the honest cost measure for abortable mutual exclusion,
// where withdrawn passages do real (bounded) work too.
func (r Result) AmortizedRMRPerPassage() float64 {
	if p := r.Passages(); p != 0 {
		return float64(r.TotalRMRs()) / float64(p)
	}
	return 0
}

// MaxAbortResolveSteps is the worst steps-to-resolution of any abort
// request in the run (see ProcStats.MaxAbortResolveSteps).
func (r Result) MaxAbortResolveSteps() int64 {
	var worst int64
	for i := range r.Procs {
		if s := r.Procs[i].MaxAbortResolveSteps; s > worst {
			worst = s
		}
	}
	return worst
}

// Run executes the machine to completion (or violation, deadlock, or
// step bound) and returns the result. A machine can be run only once.
func (m *Machine) Run(cfg RunConfig) Result {
	if cfg.Sched == nil {
		cfg.Sched = NewRandom(1)
	}
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = DefaultMaxSteps
	}
	if len(m.procs) == 0 {
		return Result{Completed: true}
	}
	m.distributeAbortPoints()
	m.cfg = cfg
	m.last = -1
	m.ready = newBitset(len(m.procs))
	for _, p := range m.procs {
		m.ready.add(p.id)
	}
	m.readyDirty = true
	m.runnable = make([]int, 0, len(m.procs))
	m.over = make(chan struct{})

	for _, p := range m.procs {
		go p.run()
	}
	// Hand the baton to the first process; from here on each scheduling
	// point is decided by the process that reaches it, and the one that
	// finds the run over signals m.over.
	if first := m.schedule(); first != nil {
		first.resume <- false
		<-m.over
	}

	res := Result{
		Violation: m.violation,
		TimedOut:  m.timedOut,
		Steps:     m.steps,
		CSEntries: m.csEntries,
	}
	// Tear down: unwind every process goroutine still alive.
	for _, p := range m.procs {
		if p.status != statusDone {
			if p.status == statusWaiting && res.Violation == nil && !m.timedOut {
				res.WaitingProcs = append(res.WaitingProcs, p.id)
				names := make([]string, len(p.watch))
				for i, v := range p.watch {
					names[i] = m.varAt(v).label()
				}
				res.WaitingDetail = append(res.WaitingDetail,
					fmt.Sprintf("p%d awaits %v", p.id, names))
			}
			p.resume <- true
			<-m.over
			p.status = statusDone
		}
	}
	if m.schedPanic != nil {
		panic(m.schedPanic)
	}
	res.Deadlocked = len(res.WaitingProcs) > 0
	res.Completed = res.Violation == nil && !res.Deadlocked && !m.timedOut
	res.Procs = make([]ProcStats, len(m.procs))
	for i, p := range m.procs {
		res.Procs[i] = p.stats
	}
	return res
}

// schedule is one engine step, run by whichever goroutine holds the
// baton: the process at its scheduling point, a process whose body just
// ended, or Run for the very first step. It rebuilds the runnable slice
// from the maintained ready set if that changed since the last step
// (most steps it did not: spinners are parked and stay parked),
// enforces MaxSteps, and asks the scheduler for the next process. It
// returns nil when the run is over: a violation, no runnable process
// (completion or deadlock), the step bound, or a panic in the Scheduler
// or Observer, which is kept for Run to re-raise after teardown so it
// never unwinds a process body.
func (m *Machine) schedule() (next *Proc) {
	if m.violation != nil {
		return nil
	}
	if m.readyDirty {
		m.runnable = m.ready.appendTo(m.runnable[:0])
		m.readyDirty = false
	}
	runnable := m.runnable
	if len(runnable) == 0 {
		return nil
	}
	if m.steps >= m.cfg.MaxSteps {
		m.timedOut = true
		return nil
	}
	defer func() {
		if r := recover(); r != nil {
			m.schedPanic = r
			next = nil
		}
	}()
	id := m.cfg.Sched.Pick(m.steps, runnable, m.last)
	if m.cfg.Observer != nil {
		m.cfg.Observer(m.steps, runnable, id)
	}
	m.steps++
	m.last = id
	return m.procs[id]
}

// handoff passes the baton to next, or tells Run the run is over when
// next is nil. The caller must not touch machine state afterwards
// until it is resumed.
func (m *Machine) handoff(next *Proc) {
	if next == nil {
		m.over <- struct{}{}
		return
	}
	next.resume <- false
}

// run is the process goroutine wrapper: it executes the body and
// translates returns, kills, and violations into the end of the
// process's last step.
//
// The goroutine parks before calling the body until it is first
// scheduled, so that ALL body code — including any preamble before the
// first memory operation, which may lazily allocate variables —
// executes inside the process's exclusive scheduling windows. Without
// it, preambles of different processes would run concurrently.
func (p *Proc) run() {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case killed:
			// Teardown: acknowledge to Run, which holds the baton.
			p.m.over <- struct{}{}
			return
		case violation:
			p.m.fail(r.err)
		default:
			panic(r)
		}
		p.status = statusDone
		p.m.ready.remove(p.id)
		p.m.readyDirty = true
		p.m.handoff(p.m.schedule())
	}()
	if <-p.resume {
		panic(killed{})
	}
	p.body(p)
}
