package memsim

import (
	"fmt"
	"runtime"
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
	// Procs holds per-process statistics, indexed by process id. It
	// is machine storage: copy it to keep it past the machine's
	// Release.
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

// procStats is the storage of Result.Procs.
var procStats = NewSlab[ProcStats]()

// Run executes the machine to completion (or violation, deadlock, or
// step bound) and returns the result. A machine can be run only once.
// Its processes run on a one-shot carrier set, retired when Run
// returns.
func (m *Machine) Run(cfg RunConfig) Result {
	var cs Carriers
	defer cs.Close()
	return m.RunOn(&cs, cfg)
}

// RunOn is Run with the processes started on cs, which the caller may
// go on to start later machines on: a warm set runs the next machine of
// the same size without creating a coroutine. Every process is over,
// and every carrier idle again, when it returns or panics. A panic in a
// process body that is not an engine violation (a bug in the body)
// comes back out of RunOn after the other processes are unwound. Either
// way the attached EndSinks are told the run ended.
func (m *Machine) RunOn(cs *Carriers, cfg RunConfig) Result {
	defer m.endRun()
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
	m.ready.resize(len(m.procs))
	for _, p := range m.procs {
		m.ready.add(p.id)
	}
	m.readyDirty = true

	cs.bind(m.procs)
	m.drive()
	// Coroutine switches never enter the Go scheduler, so give it a turn
	// once per run: the collector's mark workers and the caller's other
	// goroutines would otherwise wait for preemption.
	runtime.Gosched()

	res := Result{
		Violation: m.violation,
		TimedOut:  m.timedOut,
		Steps:     m.steps,
		CSEntries: m.csEntries,
	}
	for _, p := range m.procs {
		if p.status == statusWaiting && res.Violation == nil && !m.timedOut {
			res.WaitingProcs = append(res.WaitingProcs, p.id)
			names := make([]string, len(p.watch))
			for i, v := range p.watch {
				names[i] = m.varAt(v).label()
			}
			res.WaitingDetail = append(res.WaitingDetail,
				fmt.Sprintf("p%d awaits %v", p.id, names))
		}
	}
	m.kill()
	if m.schedPanic != nil {
		panic(m.schedPanic)
	}
	res.Deadlocked = len(res.WaitingProcs) > 0
	res.Completed = res.Violation == nil && !res.Deadlocked && !m.timedOut
	res.Procs = procStats.Make(m, len(m.procs))
	for i, p := range m.procs {
		res.Procs[i] = p.stats
	}
	return res
}

// drive is the run loop: it resumes the process each engine step
// picks until one finds the run over. The first pick is its own; after
// that the process that reaches a scheduling point, or whose body ends,
// runs the step itself and leaves its pick in m.next (or continues, if
// it picked itself). If a process body panics, drive unwinds the other
// processes before the panic leaves it.
func (m *Machine) drive() {
	over := false
	defer func() {
		if !over {
			m.kill()
		}
	}()
	for p := m.schedule(); p != nil; p = m.next {
		p.carrier.next()
	}
	over = true
}

// kill tears the run down: every process still alive is resumed once
// with the machine's kill flag set and unwinds (see Proc.yield), so its
// carrier is idle again.
func (m *Machine) kill() {
	m.killed = true
	for _, p := range m.procs {
		if p.status != statusDone {
			p.carrier.next()
			p.status = statusDone
		}
	}
}

// schedule is one engine step, run by the process at its scheduling
// point, by a process whose body just ended, or by the run loop for
// the very first step. It rebuilds the runnable slice from the
// maintained ready set if that changed since the last step (most steps
// it did not: spinners are parked and stay parked), enforces MaxSteps,
// and asks the scheduler for the next process. It
// returns nil when the run is over: a violation, no runnable process
// (completion or deadlock), the step bound, or a panic in the
// Scheduler, which is kept for RunOn to re-raise after teardown so it
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
	m.steps++
	m.last = id
	return m.procs[id]
}

// run is the process wrapper its carrier calls when the process is
// first resumed: it executes the body (or returns at once, if the run
// was torn down before the process was ever scheduled) and translates
// returns, kills and violations into the end of the process's last
// step, leaving the next pick in m.next for the run loop. Any other
// panic ends the carrier's coroutine and reaches the run loop through
// iter.Pull.
//
// The carrier starts the body only once the process is first
// scheduled, so that ALL body code — including any preamble before the
// first memory operation, which may lazily allocate variables —
// executes inside the process's exclusive scheduling windows.
func (p *Proc) run() {
	if p.m.killed {
		return
	}
	defer func() {
		switch r := recover().(type) {
		case nil:
		case killed:
			return
		case violation:
			p.m.fail(r.err)
		default:
			panic(r)
		}
		p.status = statusDone
		p.m.ready.remove(p.id)
		p.m.readyDirty = true
		p.m.next = p.m.schedule()
	}()
	p.body(p)
}
