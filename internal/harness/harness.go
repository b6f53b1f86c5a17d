// Package harness runs mutual exclusion algorithms on simulated CC and
// DSM machines, checks their safety and liveness properties, and
// collects the RMR statistics the experiments report.
package harness

import (
	"fmt"
	"slices"

	"fetchphi/internal/memsim"
	"fetchphi/internal/obs"
)

// Algorithm is an N-process mutual exclusion algorithm instantiated on
// one machine. Acquire and Release implement the entry and exit
// sections for the calling simulated process.
type Algorithm interface {
	// Name identifies the algorithm (and its primitive, where
	// relevant) in reports.
	Name() string
	// Acquire performs the entry section for p.
	Acquire(p *memsim.Proc)
	// Release performs the exit section for p.
	Release(p *memsim.Proc)
}

// AbortableAlgorithm is an Algorithm whose entry section can withdraw
// in response to a delivered abort request (core.AbortableLock
// satisfies it). AcquireAbortable returning false means the passage
// was withdrawn and must be closed with memsim.Proc.AbortPassage; true
// means the process holds the lock (a pending request, if any, lapses
// at EnterCS). The harness calls it instead of Acquire whenever a
// workload or check schedules aborts.
type AbortableAlgorithm interface {
	Algorithm
	AcquireAbortable(p *memsim.Proc) bool
}

// Builder constructs a fresh algorithm instance on a machine. It is
// called once per run, after the machine exists and before processes
// start, and must be deterministic. The runner that created the
// machine (Run, a sweep cell) owns it and calls its Release once the
// run's metrics, hotspots and checks have been read.
// The algorithm object is machine storage too: the constructors build
// it, its mutexes, sites and arrays from the machine's slabs (see
// memsim.Slab). A released machine, with its Procs, Dicts and that
// storage, is reset and serves a later NewMachine, possibly another
// run's, so nothing a Builder returns or captures may be used after
// the run: not the algorithm, nor the machine or any Var, Proc or Dict
// of it.
type Builder func(m *memsim.Machine) Algorithm

// Workload describes one simulated experiment run.
type Workload struct {
	// Model is the simulated architecture.
	Model memsim.Model
	// N is the number of processes.
	N int
	// Entries is the number of critical-section entries per process.
	Entries int
	// CSOps is the number of shared-memory operations each process
	// performs inside the critical section (simulated CS work).
	CSOps int
	// NCSOps is the number of private operations between entries
	// (simulated non-critical work; stretches contention patterns).
	NCSOps int
	// Participants, if nonzero, limits contention to the first
	// Participants processes; the rest stay idle. Algorithms must
	// behave when only a subset of the N processes they were sized
	// for ever compete.
	Participants int
	// Sched overrides the scheduler (default NewRandom(Seed)).
	Sched memsim.Scheduler
	// Seed selects the default random scheduler's seed.
	Seed int64
	// MaxSteps bounds the run (default memsim.DefaultMaxSteps).
	MaxSteps int64
	// Sink, if non-nil, observes every shared-memory operation of the
	// run — the trace-recorder hook. Observation-only: it never changes
	// the run's schedule or metrics. A run on the default scheduler is
	// reproduced by its Workload value, so a Sink that is a ReplaySink
	// is not attached: it is handed a replay of the run instead, which
	// it runs only if it is read. Every other sink is attached to the
	// machine before the run (memsim.Machine.AttachSink) and used from
	// the worker executing this workload, so per-cell sinks in a
	// parallel sweep need no locking of their own.
	Sink memsim.EventSink
	// Aborts is the adversary's abort schedule, delivered via
	// memsim.Machine.ScheduleAborts. A non-empty schedule makes the run
	// abortable: entry sections go through AcquireAbortable, and the
	// builder's algorithm must be an AbortableAlgorithm.
	Aborts []memsim.AbortPoint
	// Retries is how many times a process re-requests after a
	// withdrawal before giving the entry up (each re-request is a new
	// passage; 0 means aborted entries are simply lost).
	Retries int
	// RetryDelay is the number of private operations a process
	// performs between a withdrawal and its re-request — the "re-
	// request after d steps" knob of the abort adversary.
	RetryDelay int
}

// Metrics aggregates what one run measured.
type Metrics struct {
	// Result is the raw run outcome.
	Result memsim.Result
	// MeanRMR is total RMRs divided by total CS entries.
	MeanRMR float64
	// WorstRMR is the largest RMR cost of a single entry/exit pair
	// observed by any process.
	WorstRMR int64
	// NonLocalSpins is the total number of busy-wait re-check reads
	// of remotely homed variables (should be 0 for every local-spin
	// algorithm on DSM).
	NonLocalSpins int64
	// MaxBypass is the fairness metric: the maximum, over all
	// processes and entries, of the number of critical sections
	// completed by other processes while the process was in its
	// entry section. Starvation-free algorithms keep this bounded
	// (independent of Entries). Like the await-block and bypass
	// histograms in Obs, it is measured only in abort-free runs.
	MaxBypass int64
	// Aborts is the number of withdrawn passages (zero unless the
	// workload schedules aborts).
	Aborts int64
	// Passages is the number of completed-or-withdrawn passages — the
	// denominator of the amortized metric. For abort-free runs it
	// equals the CS entry count.
	Passages int64
	// AmortizedRMR is total RMRs divided by Passages, the honest cost
	// metric for abortable mutual exclusion.
	AmortizedRMR float64
	// MaxAbortResolve is the worst number of a process's own
	// scheduling points an abort request stayed pending — the
	// wait-free-withdrawal figure.
	MaxAbortResolve int64
	// Obs holds the distributional metrics behind the scalars above:
	// per-entry histograms of RMR cost, await blocks, and bypass, and
	// the per-phase RMR breakdown.
	Obs obs.RunMetrics
	// Hotspots are the run's top-HotspotTopK shared variables by
	// attracted RMRs (the `tracectl hotspots` attribution, recorded
	// into benchmark artifacts).
	Hotspots []obs.HotVar
}

// ReplaySink is an EventSink that can be filled after its run. A run
// whose Workload reproduces it (Sched nil, so the scheduler is
// memsim.NewRandom(Seed)) does not feed such a sink: the harness calls
// Defer instead, once, with a replay that re-runs the workload on a
// fresh machine with the sink attached. The replay calls no sweep
// hook, fails the way the run did, and is safe to call from any one
// goroutine after the run; a sink runs it when first read, so a sink
// nobody reads costs nothing. trace.Recorder is one.
type ReplaySink interface {
	memsim.EventSink
	Defer(replay func())
}

// HotspotTopK is how many hot variables a run records into its cell.
const HotspotTopK = 5

// Run executes one workload and returns its metrics. The run fails
// (non-nil error) on a mutual exclusion violation, deadlock, livelock
// (step bound), or lost critical-section updates; an abort-free run
// also fails if any process finished fewer entries than asked. With
// aborts scheduled, withdrawn entries whose retry budget ran out are
// legitimately lost, so every passage must be accounted for instead,
// and an algorithm that is not an AbortableAlgorithm is an error
// before the run starts.
func Run(b Builder, w Workload) (Metrics, error) {
	var sw sweepWorker
	defer sw.cs.Close()
	return runTimed(b, w, &sw, nil)
}

// sweepWorker is what one SweepWith worker keeps from cell to cell: the
// carrier set its processes run on, and the scheduler it reseeds for
// each cell that brings none (one math/rand source is 5 kB).
type sweepWorker struct {
	cs  memsim.Carriers
	rnd memsim.Random
}

// runTimed is Run on sw, which SweepWith workers keep for all their
// cells, with a hook at the simulation/accounting boundary: afterSim (when non-nil) fires the
// moment machine execution finishes, before RMR attribution, histogram
// fills, and validation. SweepWith uses it to time the accounting
// overhead separately from simulation. The hook is observation-only —
// it sees the boundary but receives nothing and returns nothing, so it
// cannot perturb metrics. A ReplaySink of a reproducible run is handed
// its replay rather than attached.
func runTimed(b Builder, w Workload, sw *sweepWorker, afterSim func()) (Metrics, error) {
	if rs, ok := w.Sink.(ReplaySink); ok && w.Sched == nil {
		live := w
		rs.Defer(func() {
			var sw sweepWorker
			defer sw.cs.Close()
			runLive(b, live, &sw, nil)
		})
		w.Sink = nil
	}
	return runLive(b, w, sw, afterSim)
}

// runLive is runTimed with w.Sink, if any, attached for the whole run.
func runLive(b Builder, w Workload, sw *sweepWorker, afterSim func()) (Metrics, error) {
	if w.N <= 0 || w.Entries <= 0 {
		return Metrics{}, fmt.Errorf("harness: invalid workload N=%d Entries=%d", w.N, w.Entries)
	}
	sched := w.Sched
	if sched == nil {
		sw.rnd.Reseed(w.Seed)
		sched = &sw.rnd
	}

	participants := w.Participants
	if participants <= 0 || participants > w.N {
		participants = w.N
	}
	m := memsim.NewMachine(w.Model, w.N)
	// Everything below reads the machine before returning; after that
	// its storage serves later runs (see Builder).
	defer m.Release()
	if w.Sink != nil {
		m.AttachSink(w.Sink)
	}
	m.ScheduleAborts(w.Aborts...)
	alg := b(m)
	rec := &recorder{
		m:       m,
		scratch: m.NewVar("cs-scratch", memsim.HomeGlobal, 0),
		samples: make([][]passageSample, participants),
	}
	if w.NCSOps > 0 || w.RetryDelay > 0 {
		// Only private work writes them.
		rec.locals = m.NewPerProcArray("ncs-local", 0)
	}
	body, err := passageLoop(m, alg, &w, rec)
	if err != nil {
		return Metrics{}, err
	}
	for i := 0; i < w.N; i++ {
		if i >= participants {
			m.AddProc(fmt.Sprintf("idle%d", i), func(*memsim.Proc) {})
			continue
		}
		rec.samples[i] = make([]passageSample, 0, w.Entries)
		m.AddProc(fmt.Sprintf("p%d", i), body)
	}

	res := m.RunOn(&sw.cs, memsim.RunConfig{Sched: sched, MaxSteps: w.MaxSteps})
	if afterSim != nil {
		afterSim()
	}
	aborts := len(w.Aborts) > 0
	res.Procs = slices.Clone(res.Procs) // the machine's storage, until Release
	met := Metrics{
		Result:          res,
		MeanRMR:         res.MeanRMRPerEntry(),
		WorstRMR:        res.MaxRMRPerEntry(),
		NonLocalSpins:   res.NonLocalSpinReads(),
		Aborts:          res.TotalAborts(),
		Passages:        res.Passages(),
		AmortizedRMR:    res.AmortizedRMRPerPassage(),
		MaxAbortResolve: res.MaxAbortResolveSteps(),
	}
	for _, v := range m.HotVars(HotspotTopK) {
		met.Hotspots = append(met.Hotspots, obs.HotVar{Name: v.Name, RMRs: v.RMRs})
	}
	met.Obs = obs.RunMetrics{
		Entries:   res.CSEntries,
		TotalRMRs: res.TotalRMRs(),
	}
	for ph := memsim.Phase(0); ph < memsim.NumPhases; ph++ {
		var total int64
		for i := range res.Procs {
			total += res.Procs[i].PhaseRMRs[ph]
		}
		if total != 0 {
			if met.Obs.PhaseRMRs == nil {
				met.Obs.PhaseRMRs = make(map[string]int64, int(memsim.NumPhases))
			}
			met.Obs.PhaseRMRs[ph.String()] = total
		}
	}
	var sampled int64
	for _, ss := range rec.samples {
		sampled += int64(len(ss))
		for _, s := range ss {
			met.Obs.RMRPerEntry.Observe(s.rmrs)
			// Await-block and bypass figures are per CS entry, so only
			// abort-free runs record them.
			if aborts {
				continue
			}
			met.Obs.WaitsPerEntry.Observe(s.waits)
			met.Obs.BypassPerEntry.Observe(s.bypass)
			if s.bypass > met.MaxBypass {
				met.MaxBypass = s.bypass
			}
		}
	}
	if err := res.Err(); err != nil {
		where := fmt.Sprintf("%s on %v with N=%d", alg.Name(), w.Model, w.N)
		if aborts {
			where += fmt.Sprintf(" (aborts %s)", memsim.FormatAbortSchedule(w.Aborts))
		}
		return met, fmt.Errorf("harness: %s: %w", where, err)
	}
	if want := int64(participants) * int64(w.Entries); !aborts && res.CSEntries != want {
		return met, fmt.Errorf("harness: %s completed %d CS entries, want %d", alg.Name(), res.CSEntries, want)
	}
	// Every passage must be accounted for: each sample is exactly one
	// completed or withdrawn passage.
	if sampled != res.Passages() {
		return met, fmt.Errorf("harness: %s recorded %d passage samples, but the run counted %d passages",
			alg.Name(), sampled, res.Passages())
	}
	// The CS work is a shared counter: its final value double-checks
	// that no increments were lost to an exclusion failure.
	if want := memsim.Word(res.CSEntries) * memsim.Word(w.CSOps); m.Value(rec.scratch) != want {
		return met, fmt.Errorf("harness: %s lost critical-section updates: scratch=%d, want %d", alg.Name(), m.Value(rec.scratch), want)
	}
	return met, nil
}

// passages is the passage loop every harness job shares: each process
// of Run, of a sweep cell and of a model check runs drive. A passage is
// one entry section that ends in the critical section, or, when the
// workload schedules aborts, in a withdrawal; a withdrawn entry is
// re-requested up to w.Retries times before it is given up.
type passages struct {
	alg   Algorithm
	abort AbortableAlgorithm // non-nil when w schedules aborts
	w     *Workload
	// rec is nil in model checks, whose workloads have no critical-
	// section or private work.
	rec *recorder
}

// recorder is Run's side of the passage loop: the targets of the
// workload's critical-section and private work, and one sample per
// passage, indexed by process.
type recorder struct {
	m       *memsim.Machine
	scratch memsim.Var
	locals  []memsim.Var // ncs-local[i], homed at i; nil without private work
	samples [][]passageSample
}

// passageSample is one passage's cost. waits and bypass are measured
// only for passages that reach the critical section.
type passageSample struct{ rmrs, waits, bypass int64 }

// passageStates is the storage of the passage loop's state, one per
// machine.
var passageStates = memsim.NewSlab[passages]()

// passageLoop stores the passage loop's state in m and returns the
// process body all of m's processes share. Scheduling aborts for an
// algorithm that cannot withdraw is an error.
func passageLoop(m *memsim.Machine, alg Algorithm, w *Workload, rec *recorder) (func(*memsim.Proc), error) {
	d := passages{alg: alg, w: w, rec: rec}
	if len(w.Aborts) > 0 {
		a, ok := alg.(AbortableAlgorithm)
		if !ok {
			return nil, fmt.Errorf("harness: %s is not an AbortableAlgorithm, but %d abort points are scheduled",
				alg.Name(), len(w.Aborts))
		}
		d.abort = a
	}
	*passageStates.Of(m) = d
	return runPassages, nil
}

// runPassages is the body passageLoop returns: a plain function, which
// finds its state in the process's machine, so a build allocates no
// closure for it.
func runPassages(p *memsim.Proc) { passageStates.Of(p.Machine()).drive(p) }

func (d *passages) drive(p *memsim.Proc) {
	w, rec, i := d.w, d.rec, p.ID()
	for e := 0; e < w.Entries; e++ {
		for attempt := 0; ; attempt++ {
			var before, waitsBefore int64
			if rec != nil {
				before, waitsBefore = rec.m.CSEntriesSoFar(), p.Stats().AwaitBlocks
			}
			p.BeginEntrySection()
			if d.acquire(p) {
				p.EnterCS()
				// −1: CSEntriesSoFar already includes this process's
				// own just-recorded entry.
				var bypass int64
				if rec != nil {
					bypass = rec.m.CSEntriesSoFar() - before - 1
				}
				for k := 0; k < w.CSOps; k++ {
					p.RMW(rec.scratch, func(x memsim.Word) memsim.Word { return x + 1 })
				}
				p.ExitCS()
				d.alg.Release(p)
				gap := p.EndExitSection()
				if rec != nil {
					rec.samples[i] = append(rec.samples[i], passageSample{
						rmrs:   gap,
						waits:  p.Stats().AwaitBlocks - waitsBefore,
						bypass: bypass,
					})
				}
				break
			}
			gap := p.AbortPassage()
			if rec != nil {
				rec.samples[i] = append(rec.samples[i], passageSample{rmrs: gap})
			}
			if attempt >= w.Retries {
				break
			}
			for k := 0; k < w.RetryDelay; k++ {
				p.Write(rec.locals[i], memsim.Word(k))
			}
		}
		for k := 0; k < w.NCSOps; k++ {
			p.Write(rec.locals[i], memsim.Word(k))
		}
	}
}

// acquire runs the entry section: AcquireAbortable when aborts are
// scheduled, Acquire otherwise. False means the passage was withdrawn.
func (d *passages) acquire(p *memsim.Proc) bool {
	if d.abort != nil {
		return d.abort.AcquireAbortable(p)
	}
	d.alg.Acquire(p)
	return true
}

// Verify stress-tests an algorithm: `seeds` random schedules of the
// given workload shape on both memory models, failing on the first
// violated run. It complements the exhaustive exploration done by
// CheckSharded.
func Verify(b Builder, n, entries, seeds int) error {
	for _, model := range []memsim.Model{memsim.CC, memsim.DSM} {
		for seed := 0; seed < seeds; seed++ {
			w := Workload{Model: model, N: n, Entries: entries, CSOps: 1, Seed: int64(seed)}
			if _, err := Run(b, w); err != nil {
				return fmt.Errorf("seed %d: %w", seed, err)
			}
		}
	}
	return nil
}

// VerifyPCT stress-tests an algorithm under Probabilistic Concurrency
// Testing schedulers across bug depths 2..4 — a directed complement to
// Verify's uniform random schedules.
func VerifyPCT(b Builder, n, entries, seeds int) error {
	est := int64(n*entries*150 + 100) // rough run length for change-point placement
	for _, model := range []memsim.Model{memsim.CC, memsim.DSM} {
		for depth := 2; depth <= 4; depth++ {
			for seed := 0; seed < seeds; seed++ {
				w := Workload{
					Model: model, N: n, Entries: entries, CSOps: 1,
					Sched: memsim.NewPCT(int64(seed), depth, est),
				}
				if _, err := Run(b, w); err != nil {
					return fmt.Errorf("pct depth %d seed %d: %w", depth, seed, err)
				}
			}
		}
	}
	return nil
}

// VerifyAdversarial checks starvation freedom directly: for each
// choice of victim, an adversary scheduler runs the victim only when
// nothing else is runnable. A starvation-free algorithm still
// completes every process's entries; an unfair one deadlocks or blows
// the step bound.
func VerifyAdversarial(b Builder, n, entries int) error {
	for _, model := range []memsim.Model{memsim.CC, memsim.DSM} {
		for victim := 0; victim < n; victim++ {
			w := Workload{
				Model: model, N: n, Entries: entries, CSOps: 1,
				Sched: memsim.NewAdversary(int64(victim)+1, victim),
			}
			if _, err := Run(b, w); err != nil {
				return fmt.Errorf("adversary vs p%d: %w", victim, err)
			}
		}
	}
	return nil
}
