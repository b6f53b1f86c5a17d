package harness

import (
	"fmt"
	"runtime"
	"sync"

	"fetchphi/internal/memsim"
)

// This file is the model-checking entry point of the harness: it wraps
// the memsim explorer around the standard acquire/CS/release workload
// and runs it over the memory models (CheckSharded, which explores the
// models concurrently and shards each model's schedule waves across a
// worker pool). The verdict is bit-identical for every worker count;
// workers only change wall-clock time, which is what makes routinely
// model-checking the whole algorithm registry affordable.

// Model-check bounds.
const (
	// DefaultCheckMaxRuns caps the schedules explored per model when
	// ExploreOptions.MaxRuns is zero.
	DefaultCheckMaxRuns = 500_000
	// DefaultCheckMaxSteps bounds each explored run.
	DefaultCheckMaxSteps = 1_000_000
)

// CheckModels returns the memory models every model check covers, in
// reporting order: CC, then DSM. When several fail, the first failing
// model in this order is the one reported, keeping the merged error
// deterministic.
func CheckModels() []memsim.Model {
	return []memsim.Model{memsim.CC, memsim.DSM}
}

// ExploreOptions configures a model check.
type ExploreOptions struct {
	// Preemptions is the preemption bound K, taken literally: 0 means
	// an exactly non-preemptive exploration (one schedule per model),
	// not "use a default" — the zero value is honest. A negative bound
	// reads as 0.
	Preemptions int
	// MaxRuns caps the schedules explored per model
	// (default DefaultCheckMaxRuns).
	MaxRuns int
	// Workers is the wave-shard worker count per model; 0 or negative
	// selects runtime.GOMAXPROCS(0). The verdict is identical for
	// every value — workers change wall-clock time only.
	Workers int
	// Progress, if non-nil, observes each model's exploration.
	// Observation-only; called concurrently from the models'
	// goroutines and their wave workers, so implementations
	// synchronize their own output.
	Progress func(memsim.Model, memsim.ExploreProgress)
	// ProgressEvery adds intra-wave progress events every this many
	// runs (0: wave boundaries only).
	ProgressEvery int
	// Aborts is the abort schedule every explored run delivers (see
	// Workload.Aborts). Non-empty, it makes the check abortable: each
	// withdrawn entry is re-requested once, so passage-1 abort points
	// are reachable, and the builder's algorithm must be an
	// AbortableAlgorithm.
	Aborts []memsim.AbortPoint
}

// ModelReport pairs one memory model with its exploration outcome.
type ModelReport struct {
	Model  memsim.Model
	Result memsim.ExploreResult
}

// AbortResolveBound is the wait-free-withdrawal bound every model
// check asserts: no abort request may stay pending for more than this
// many of the target's own scheduling points. The constant is
// deliberately generous — the property being pinned is boundedness
// (independent of N, entries, and schedule), not the exact constant.
const AbortResolveBound = 200

// CheckExplorer builds the explorer for one model: n processes, each
// performing `entries` acquire/CS/release passages of the algorithm
// under test through Run's passage loop, under opts.Aborts. Beyond the
// explorer's built-in safety checks, every explored run asserts
// wait-free withdrawal (AbortResolveBound), which holds vacuously
// without aborts. Scheduling aborts for an algorithm that is not an
// AbortableAlgorithm fails every explored run. It is exported because
// it is the single definition of the model-check workload: every
// execution backend — CheckSharded, CheckAbortable, and the
// distributed fleet workers in internal/fleet — must build machines
// through it, or their results would not be comparable, let alone
// bit-identical.
func CheckExplorer(b Builder, model memsim.Model, n, entries int, opts ExploreOptions) *memsim.Explorer {
	maxRuns := opts.MaxRuns
	if maxRuns <= 0 {
		maxRuns = DefaultCheckMaxRuns
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	w := &Workload{Entries: entries, Aborts: opts.Aborts, Retries: 1}
	names := make([]string, n) // made once: every build names its processes alike
	for i := range names {
		names[i] = fmt.Sprintf("p%d", i)
	}
	e := &memsim.Explorer{
		Build: func() *memsim.Machine {
			m := memsim.NewMachine(model, n)
			m.ScheduleAborts(w.Aborts...)
			// One body for all n processes: a closure per process
			// would show in the explorer's bytes per step.
			body, err := passageLoop(m, b(m), w, nil)
			if err != nil {
				body = func(p *memsim.Proc) { p.Fail("%v", err) }
			}
			for _, name := range names {
				m.AddProc(name, body)
			}
			return m
		},
		MaxPreemptions: max(opts.Preemptions, 0),
		MaxSteps:       DefaultCheckMaxSteps,
		MaxRuns:        maxRuns,
		Workers:        workers,
		ProgressEvery:  opts.ProgressEvery,
		Check:          checkWithdrawal,
	}
	if opts.Progress != nil {
		e.Progress = func(p memsim.ExploreProgress) { opts.Progress(model, p) }
	}
	return e
}

// checkWithdrawal is the explorer's per-run wait-free-withdrawal check.
func checkWithdrawal(r memsim.Result) error {
	if got := r.MaxAbortResolveSteps(); got > AbortResolveBound {
		return fmt.Errorf("withdrawal not wait-free: abort request pending for %d own steps (bound %d)", got, AbortResolveBound)
	}
	return nil
}

// CheckFailure converts one model's failing exploration into the
// error CheckSharded reports. Exported so fleet-backed check
// variants produce byte-identical error messages to the local paths.
func CheckFailure(model memsim.Model, res memsim.ExploreResult) error {
	return fmt.Errorf("harness: model %v, schedule %v (run %d): %w", model, res.FailingSchedule, res.Runs, res.Err)
}

// CheckSharded model-checks small configurations of the algorithm
// with preemption-bounded exhaustive exploration: every schedule of n
// processes × entries CS entries with up to opts.Preemptions forced
// context switches (0 requests an exactly non-preemptive check), on
// every model. The models explore concurrently, and within each model
// the schedule waves are sharded across opts.Workers workers with work
// stealing. The per-model results come
// back in CheckModels order with Runs, Exhausted, DepthRuns, and the
// canonical FailingSchedule bit-identical to a sequential exploration;
// when several models fail, the error reports the first failing model
// in that order. The reports are returned even on failure, so callers
// can record capacity artifacts for failed checks too.
func CheckSharded(b Builder, n, entries int, opts ExploreOptions) ([]ModelReport, error) {
	models := CheckModels()
	reports := make([]ModelReport, len(models))
	var wg sync.WaitGroup
	for i, model := range models {
		i, model := i, model
		wg.Add(1)
		go func() {
			defer wg.Done()
			reports[i] = ModelReport{Model: model, Result: CheckExplorer(b, model, n, entries, opts).Run()}
		}()
	}
	wg.Wait()
	for _, r := range reports {
		if r.Result.Err != nil {
			return reports, CheckFailure(r.Model, r.Result)
		}
	}
	return reports, nil
}

// CheckAbortable exhausts the preemption-bounded schedule space for
// every schedule in the canonical abort-schedule family (all single
// aborts over entry events 0..maxEvent, the same-process re-request
// doubles, and the cross-process pairs — see
// memsim.EnumerateAbortSchedules) on both memory models. It verifies
// that abort paths preserve mutual exclusion and deadlock freedom
// (the explorer's built-in checks), that withdrawal is wait-free
// (bounded own steps), and that non-aborting processes stay
// starvation-free (every explored run must complete within its step
// bound). The per-model, per-schedule verdicts are deterministic, so a
// failure report names both the abort schedule and the preemption
// schedule that produced it.
func CheckAbortable(b Builder, n, entries, preemptions, maxEvent, maxRuns int) error {
	scheds := memsim.EnumerateAbortSchedules(n, maxEvent, true)
	for _, model := range CheckModels() {
		for si, aborts := range scheds {
			opts := ExploreOptions{Preemptions: preemptions, MaxRuns: maxRuns, Workers: 1, Aborts: aborts}
			if res := CheckExplorer(b, model, n, entries, opts).Run(); res.Err != nil {
				return fmt.Errorf("harness: model %v, abort schedule %s (#%d of %d), schedule %v (run %d): %w",
					model, memsim.FormatAbortSchedule(aborts), si, len(scheds), res.FailingSchedule, res.Runs, res.Err)
			}
		}
	}
	return nil
}
