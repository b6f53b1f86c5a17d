package memsim

import (
	"fmt"
	"math"
	"slices"
)

// This file implements preemption-bounded systematic exploration in the
// style of CHESS (Musuvathi & Qadeer): the scheduler runs
// non-preemptively (a process keeps the processor until it blocks or
// finishes) except for at most K explicitly chosen preemption points.
// Exploring all placements of up to K preemptions covers a
// polynomially-sized but empirically very effective slice of the
// interleaving space, and suffices to *prove* properties of small
// configurations relative to the bound.
//
// The schedule space is a tree: the root is the empty (purely
// non-preemptive) schedule, and the children of a schedule extend it
// with one preemption placed strictly after its last one, at a step
// where an alternative process was runnable. Because Build is
// deterministic, that tree is a fixed function of the machine — it
// does not depend on the order it is walked in. The explorer walks it
// wave by wave (all schedules with d preemptions before any with d+1),
// which makes every wave an embarrassingly parallel batch: the waves
// can be sharded across workers (see explore_shard.go) and merged by
// canonical index, so the result is bit-identical to a sequential walk
// regardless of worker timing.

// Preemption forces a context switch to Proc just before the operation
// at the given step index.
type Preemption struct {
	Step int64
	Proc int
}

// Explorer systematically explores the interleavings of a machine
// built by Build, up to MaxPreemptions forced context switches per run.
type Explorer struct {
	// Build constructs a machine with NewMachine: build the algorithm
	// (its variables and its object, both machine storage), add
	// processes. Called once per explored schedule; it must be
	// deterministic, and when Workers > 1 it is called from several
	// goroutines at once, so it must not close over shared mutable
	// state. The explorer owns the machine Build returns: once the run
	// and Check are done it calls the machine's Release, and the next
	// Build on any worker may get the same Machine, Procs, Dicts and
	// slab storage back, reset. So nothing Build returns or captures
	// may use the machine, the algorithm object built on it, or a Var,
	// Proc or Dict of it, after that, and Build must not hand the
	// machine to anyone else.
	Build func() *Machine
	// MaxPreemptions is the preemption bound K, taken literally: at
	// most K forced context switches per run, so 0 (or less) explores
	// the single non-preemptive schedule alone.
	MaxPreemptions int
	// MaxSteps bounds each individual run (default DefaultMaxSteps).
	MaxSteps int64
	// MaxRuns caps the total number of schedules explored; 0 or
	// less means no cap. If hit, the result reports Exhausted=false.
	MaxRuns int
	// Check, if non-nil, is invoked after every successful run; a
	// non-nil error fails the exploration with that run's schedule.
	// Use it to verify properties beyond the built-in safety checks
	// (e.g. FIFO ordering). When Workers > 1 it is called
	// concurrently from the wave workers and must be safe for that.
	Check func(Result) error
	// Workers shards each wave of schedules across this many
	// goroutines, each owning a disjoint slice of the frontier and
	// stealing from the others as it drains (see explore_shard.go).
	// Values <= 1 select the sequential reference path. The merge is
	// canonical, so Runs, Exhausted, DepthRuns, and FailingSchedule
	// are bit-identical across worker counts.
	Workers int
	// Progress, if non-nil, observes the exploration: it fires as
	// each wave starts and, when ProgressEvery > 0, every
	// ProgressEvery completed runs within a wave. Observation-only —
	// it cannot influence the result — and called concurrently from
	// wave workers, so implementations synchronize their own output.
	Progress func(ExploreProgress)
	// ProgressEvery is the intra-wave Progress cadence in runs
	// (0 disables intra-wave events; wave starts always fire).
	ProgressEvery int
}

// ExploreProgress is one exploration-progress notification.
type ExploreProgress struct {
	// Depth is the preemption depth (wave index) being explored.
	Depth int
	// Frontier is the number of schedules in the current wave.
	Frontier int
	// Runs is the number of schedules executed so far, including
	// completed prior waves. For intra-wave events the count is a
	// point-in-time atomic snapshot, so its timing (not its final
	// value) varies across worker schedules.
	Runs int
}

// ExploreResult reports the outcome of an exploration.
type ExploreResult struct {
	// Runs is the number of schedules executed.
	Runs int
	// Err is the first failure found (violation, deadlock, or step
	// bound), nil if every explored schedule passed.
	Err error
	// FailingSchedule reproduces the failure via ReplaySchedule. It is
	// the canonically smallest failing schedule in the explored space:
	// fewest preemptions first, then lexicographically smallest by
	// (Step, Proc) — identical whatever Workers was.
	FailingSchedule []Preemption
	// Exhausted is true iff the entire preemption-bounded schedule
	// space was covered within MaxRuns.
	Exhausted bool
	// DepthRuns is the number of schedules executed at each preemption
	// depth: DepthRuns[d] is the size of wave d (truncated when
	// MaxRuns was hit mid-wave). Its sum equals Runs.
	DepthRuns []int
}

// chooser is the Scheduler that realizes one preemption schedule over
// the non-preemptive default policy (keep running the current process;
// on a forced switch, take the lowest runnable id). An explorer worker
// keeps one for all its schedules (see reset), so the choice records
// reuse their storage.
type chooser struct {
	preemptions []Preemption
	next        int
	// trace records, for each step at or after the last preemption,
	// the runnable set and the default choice (for child generation).
	traceFrom int64
	choices   []choicePoint
	// ids holds the runnable sets of choices, one after another.
	ids []int
}

// choicePoint is one recorded step: its runnable set is ids[lo:hi] of
// the chooser that recorded it.
type choicePoint struct {
	step   int64
	lo, hi int
	chosen int
}

// reset readies c to realize sched, recording the choices from step
// traceFrom on, and drops the previous schedule's records.
func (c *chooser) reset(sched []Preemption, traceFrom int64) {
	c.preemptions, c.next, c.traceFrom = sched, 0, traceFrom
	c.choices, c.ids = c.choices[:0], c.ids[:0]
}

func defaultPick(runnable []int, last int) int {
	for _, id := range runnable {
		if id == last {
			return id
		}
	}
	return runnable[0]
}

// Pick implements Scheduler.
func (c *chooser) Pick(step int64, runnable []int, last int) int {
	var pick int
	if c.next < len(c.preemptions) && c.preemptions[c.next].Step == step {
		pick = c.preemptions[c.next].Proc
		if !slices.Contains(runnable, pick) {
			panic(replayDivergence(fmt.Sprintf("memsim: schedule replay diverged at step %d: process %d not runnable in %v (nondeterministic build?)", step, pick, runnable)))
		}
		c.next++
	} else {
		pick = defaultPick(runnable, last)
	}
	if step >= c.traceFrom {
		lo := len(c.ids)
		c.ids = append(c.ids, runnable...)
		c.choices = append(c.choices, choicePoint{step: step, lo: lo, hi: len(c.ids), chosen: pick})
	}
	return pick
}

// replayDivergence is what chooser.Pick panics with when a schedule
// forces a switch to a process that is not runnable: a build that is
// not deterministic, or a schedule the machine never offered.
// RunScheduleRange returns it as an error; Explorer.Run panics with it.
type replayDivergence string

func (d replayDivergence) Error() string { return string(d) }

// RangeOutcome is the outcome of the wave's schedules from index Lo on,
// as three flat arrays: Children, how many next-wave children each
// schedule spawns (none for a failing one or one at the preemption
// bound); Appended, the one preemption each child appends to its
// parent, schedule Lo's children first, each schedule's in (step,
// proc) order; and Failures, by increasing index. A fleet report (see
// internal/fleet) carries exactly these arrays.
type RangeOutcome struct {
	Lo       int
	Children []int
	Appended []Preemption
	Failures []Failure
}

// Failure is a failing schedule of a RangeOutcome: its index relative to
// Lo, and its violation, deadlock, step bound or Check error.
type Failure struct {
	Index int
	Err   error
}

// Check rejects a range whose arrays do not fit each other: a negative
// count, counts that do not sum to the appended preemptions, or a
// failure without an error, outside the range or not after the one
// before.
func (r RangeOutcome) Check() error {
	sum := 0
	for _, c := range r.Children {
		if c < 0 {
			return fmt.Errorf("memsim: a schedule counts %d children", c)
		}
		sum += c
	}
	if sum != len(r.Appended) {
		return fmt.Errorf("memsim: %d children counted, %d preemptions appended", sum, len(r.Appended))
	}
	for j, f := range r.Failures {
		if f.Err == nil || f.Index < 0 || f.Index >= len(r.Children) || j > 0 && f.Index <= r.Failures[j-1].Index {
			return fmt.Errorf("memsim: failure %d names schedule %d of %d, out of order or without an error", j, f.Index, len(r.Children))
		}
	}
	return nil
}

// Wave is one wave of the schedule tree, stored flat: Len schedules of
// Depth preemptions each, schedule i being Slab[i*Depth:(i+1)*Depth].
// Every schedule of the root wave (Depth 0) is nil, as RootWave's
// single schedule is.
type Wave struct {
	Depth int
	Len   int
	Slab  []Preemption
}

// Schedule returns schedule i of the wave, capped at its own length so
// that appending to it cannot write into its neighbour.
func (w Wave) Schedule(i int) []Preemption {
	if w.Depth == 0 {
		return nil
	}
	lo, hi := i*w.Depth, (i+1)*w.Depth
	return w.Slab[lo:hi:hi]
}

// Range returns schedules [lo, hi) of the wave as a wave of its own,
// sharing w's slab.
func (w Wave) Range(lo, hi int) Wave {
	return Wave{Depth: w.Depth, Len: hi - lo, Slab: w.Slab[lo*w.Depth : hi*w.Depth]}
}

// exploreWorker is what one explorer worker keeps from schedule to
// schedule of a wave: the carrier set its processes run on, its
// chooser, and the ranges of the wave it has run, the last one still
// growing.
type exploreWorker struct {
	cs     Carriers
	ch     chooser
	ranges []RangeOutcome
}

// runOne builds a machine, executes one schedule on it, with its
// processes on the worker's carriers, and releases it. It records the
// schedule's outcome at the end of the worker's current range and
// returns how many children it spawns. Unless the schedule fails or
// already sits at the preemption bound, it derives them: one new
// preemption strictly after the current last one, to every alternative
// runnable process, in (step, proc) order. That ordering — together
// with waves listing children in parent order — is what makes a wave's
// index order the canonical (shortest, then lexicographic) order on
// schedules.
func (e *Explorer) runOne(w *exploreWorker, sched []Preemption) int {
	expand := len(sched) < e.MaxPreemptions
	traceFrom := int64(0)
	switch {
	case !expand:
		// The deepest wave is the bulk of the space and generates no
		// children; skip choice recording entirely there.
		traceFrom = math.MaxInt64
	case len(sched) > 0:
		traceFrom = sched[len(sched)-1].Step + 1
	}
	ch := &w.ch
	ch.reset(sched, traceFrom)
	m := e.Build()
	r := m.RunOn(&w.cs, RunConfig{Sched: ch, MaxSteps: e.MaxSteps})
	err := r.Err()
	if err == nil && e.Check != nil {
		err = e.Check(r)
	}
	// The run, its error and its checks are done with the machine, and
	// Build hands it to no one else: its storage can serve the next one.
	m.Release()
	out := &w.ranges[len(w.ranges)-1]
	n := 0
	if err != nil {
		out.Failures = append(out.Failures, Failure{Index: len(out.Children), Err: err})
	} else if expand {
		// Every choice point offers each runnable process but the
		// chosen one, so the children can be counted, and room made
		// for them, before any is appended.
		for _, cp := range ch.choices {
			n += cp.hi - cp.lo - 1
		}
		if cap(out.Appended)-len(out.Appended) < n {
			// Make room as if each schedule the range still expects
			// (its counts' spare capacity) spawned as many: growing
			// from empty by append's own steps, a quarter at a time
			// past 256, would allocate the array several times over.
			out.Appended = slices.Grow(out.Appended, n*max(1, cap(out.Children)-len(out.Children)))
		}
		for _, cp := range ch.choices {
			for _, alt := range ch.ids[cp.lo:cp.hi] {
				if alt != cp.chosen {
					out.Appended = append(out.Appended, Preemption{Step: cp.step, Proc: alt})
				}
			}
		}
	}
	out.Children = append(out.Children, n)
	return n
}

// Run explores the preemption-bounded schedule space wave by wave,
// stopping after the first wave that contains a failure. The reported
// failure is the canonically smallest failing schedule; Runs,
// Exhausted, and DepthRuns are bit-identical for every Workers value
// because each wave is either executed in full or truncated to a
// canonical prefix when MaxRuns lands inside it (see ExploreWaves).
func (e *Explorer) Run() ExploreResult {
	maxRuns := e.MaxRuns
	if maxRuns <= 0 {
		maxRuns = math.MaxInt
	}
	res, err := ExploreWaves(Frontier{Wave: RootWave()}, maxRuns, func(f Frontier) []RangeOutcome {
		if e.Progress != nil {
			e.Progress(ExploreProgress{Depth: f.Wave.Depth, Frontier: f.Wave.Len, Runs: f.Runs})
		}
		out, err := e.runWave(f.Wave, f.Runs)
		if err != nil {
			panic(err) // a replay divergence: a nondeterministic Build
		}
		return out
	}, nil)
	if err != nil {
		// runWave's ranges tile the wave, so only a bug in the
		// explorer itself can break the executor contract.
		panic(err)
	}
	return res
}

// Frontier is an exploration between two waves: the wave pending at
// preemption depth Wave.Depth, in canonical order, and the coverage
// the completed waves achieved (Runs schedules, DepthRuns[d] of them
// at depth d). The root frontier is Frontier{Wave: RootWave()}.
type Frontier struct {
	Wave      Wave
	Runs      int
	DepthRuns []int
}

// ExploreWaves is the explorer's wave loop, shared by Explorer.Run and
// the fleet coordinator's campaign in internal/fleet.
// Starting from a frontier it hands each wave to exec, which must
// return outcome ranges that tile f.Wave in index order, and merges
// them canonically: the first failing index is the canonically
// smallest failing schedule (any failure in a deeper wave is larger),
// and the next wave is every schedule's children in index order (see
// nextWave). Before each wave it checks the cap: at maxRuns completed
// runs the exploration ends unexhausted, and a wave that would
// overshoot is truncated to its canonical prefix and ends the
// exploration after it, so the set of schedules run under the cap is
// deterministic too.
//
// next, if non-nil, observes the frontier after every wave that
// neither failed nor was truncated — including one that leaves an
// empty frontier — and a non-nil error from it stops the loop on that
// wave boundary and is returned. Resuming ExploreWaves from such a
// frontier yields the result the uninterrupted loop would have. The
// only other error is an exec whose ranges do not tile the wave: each
// must start where the one before ended, from 0 to the wave's end, and
// pass Check.
func ExploreWaves(from Frontier, maxRuns int, exec func(Frontier) []RangeOutcome, next func(Frontier) error) (ExploreResult, error) {
	f := from
	// Appends must not write into the caller's DepthRuns array: a
	// frontier handed out by next may be resumed from more than once.
	f.DepthRuns = f.DepthRuns[:len(f.DepthRuns):len(f.DepthRuns)]
	for f.Wave.Len > 0 {
		if f.Runs >= maxRuns {
			return ExploreResult{Runs: f.Runs, DepthRuns: f.DepthRuns}, nil // cap hit with work left
		}
		truncated := false
		if remaining := maxRuns - f.Runs; f.Wave.Len > remaining {
			f.Wave = f.Wave.Range(0, remaining)
			truncated = true
		}
		out := exec(f)
		end := 0
		for _, r := range out {
			if r.Lo != end {
				return ExploreResult{}, fmt.Errorf("memsim: an outcome range starts at schedule %d, not %d", r.Lo, end)
			}
			if err := r.Check(); err != nil {
				return ExploreResult{}, err
			}
			end += len(r.Children)
		}
		if end != f.Wave.Len {
			return ExploreResult{}, fmt.Errorf("memsim: outcome ranges cover %d schedules of a %d-schedule wave", end, f.Wave.Len)
		}
		f.Runs += f.Wave.Len
		f.DepthRuns = append(f.DepthRuns, f.Wave.Len)
		for _, r := range out {
			if len(r.Failures) > 0 {
				// A copy, so the result does not keep the wave's slab.
				failing := slices.Clone(f.Wave.Schedule(r.Lo + r.Failures[0].Index))
				return ExploreResult{Runs: f.Runs, Err: r.Failures[0].Err, FailingSchedule: failing, DepthRuns: f.DepthRuns}, nil
			}
		}
		if truncated {
			return ExploreResult{Runs: f.Runs, DepthRuns: f.DepthRuns}, nil
		}
		f.Wave = nextWave(f.Wave, out)
		if next != nil {
			if err := next(f); err != nil {
				return ExploreResult{}, err
			}
		}
	}
	return ExploreResult{Runs: f.Runs, Exhausted: true, DepthRuns: f.DepthRuns}, nil
}

// nextWave builds the wave after w from its outcome ranges, in one
// allocation: each child is its parent plus the preemption it appends,
// and children follow their parents' order.
func nextWave(w Wave, out []RangeOutcome) Wave {
	n := 0
	for _, r := range out {
		n += len(r.Appended)
	}
	next := Wave{Depth: w.Depth + 1, Len: n}
	if n == 0 {
		return next
	}
	d := next.Depth
	next.Slab = make([]Preemption, d*n)
	k := 0
	for _, r := range out {
		appended := r.Appended
		for i, c := range r.Children {
			parent := w.Schedule(r.Lo + i)
			for _, p := range appended[:c] {
				child := next.Slab[k : k+d]
				copy(child, parent)
				child[d-1] = p
				k += d
			}
			appended = appended[c:]
		}
	}
	return next
}

// ReplaySchedule runs one specific preemption schedule against a
// machine from Build, releases the machine and returns the run result
// — used to reproduce a FailingSchedule under a debugger or with extra
// assertions. A replay derives no children, so its chooser records no
// choices.
func (e *Explorer) ReplaySchedule(sched []Preemption) Result {
	m := e.Build()
	r := m.Run(RunConfig{Sched: &chooser{preemptions: sched, traceFrom: math.MaxInt64}, MaxSteps: e.MaxSteps})
	r.Procs = slices.Clone(r.Procs) // the machine's storage, until Release
	m.Release()
	return r
}
