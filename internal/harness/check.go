package harness

import (
	"fmt"
	"runtime"
	"sync"

	"fetchphi/internal/memsim"
)

// This file is the model-checking entry point of the harness: it wraps
// the memsim explorer around the standard acquire/CS/release workload
// and runs it over the memory models — sequentially (Check, the
// reference path every algorithm package calls from its tests) or
// sharded (CheckSharded, which explores the models concurrently and
// shards each model's schedule waves across a worker pool). Both paths
// produce bit-identical verdicts; CheckSharded only changes wall-clock
// time, which is what makes routinely model-checking the whole
// algorithm registry affordable.

// Default model-check bounds.
const (
	// DefaultCheckMaxRuns caps the schedules explored per model when
	// ExploreOptions.MaxRuns is zero.
	DefaultCheckMaxRuns = 500_000
	// DefaultCheckMaxSteps bounds each explored run when
	// ExploreOptions.MaxSteps is zero.
	DefaultCheckMaxSteps = 1_000_000
)

// ExploreOptions configures a model check.
type ExploreOptions struct {
	// Preemptions is the preemption bound K, taken literally: 0 means
	// an exactly non-preemptive exploration (one schedule per model),
	// not "use a default" — the zero value is honest.
	Preemptions int
	// MaxRuns caps the schedules explored per model
	// (default DefaultCheckMaxRuns).
	MaxRuns int
	// MaxSteps bounds each explored run (default DefaultCheckMaxSteps).
	MaxSteps int64
	// Workers is the wave-shard worker count per model; 0 or negative
	// selects runtime.GOMAXPROCS(0). The verdict is identical for
	// every value — workers change wall-clock time only.
	Workers int
	// Models are the memory models to check, in reporting order
	// (default CC then DSM). When several models fail, the first
	// failing model in this order is the one reported, keeping the
	// merged error deterministic.
	Models []memsim.Model
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
// execution backend — Check, CheckSharded, CheckAbortable, and the
// distributed fleet workers in internal/fleet — must build machines
// through it, or their results would not be comparable, let alone
// bit-identical.
func CheckExplorer(b Builder, model memsim.Model, n, entries int, opts ExploreOptions) *memsim.Explorer {
	maxRuns := opts.MaxRuns
	if maxRuns <= 0 {
		maxRuns = DefaultCheckMaxRuns
	}
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = DefaultCheckMaxSteps
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
		MaxPreemptions: memsim.ExactPreemptions(opts.Preemptions),
		MaxSteps:       maxSteps,
		MaxRuns:        maxRuns,
		Workers:        opts.Workers,
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
// error Check has always reported. Exported so fleet-backed check
// variants produce byte-identical error messages to the local paths.
func CheckFailure(model memsim.Model, res memsim.ExploreResult) error {
	return fmt.Errorf("harness: model %v, schedule %v (run %d): %w", model, res.FailingSchedule, res.Runs, res.Err)
}

// Check model-checks small configurations of the algorithm with
// preemption-bounded exhaustive exploration: every schedule of n
// processes × entries CS entries with up to `preemptions` forced
// context switches, on both models, one model at a time with a single
// worker. preemptions is taken literally — 0 requests an exactly
// non-preemptive check (it is no longer silently promoted to the
// default bound). Use CheckSharded to spend more cores on the same
// verdict.
func Check(b Builder, n, entries, preemptions, maxRuns int) error {
	for _, model := range []memsim.Model{memsim.CC, memsim.DSM} {
		opts := ExploreOptions{Preemptions: preemptions, MaxRuns: maxRuns, Workers: 1}
		if res := CheckExplorer(b, model, n, entries, opts).Run(); res.Err != nil {
			return CheckFailure(model, res)
		}
	}
	return nil
}

// CheckSharded is the parallel Check: the models explore concurrently,
// and within each model the schedule waves are sharded across
// opts.Workers workers with work stealing. The per-model results come
// back in opts.Models order with Runs, Exhausted, DepthRuns, and the
// canonical FailingSchedule bit-identical to a sequential exploration;
// when several models fail, the error reports the first failing model
// in that order. The reports are returned even on failure, so callers
// can record capacity artifacts for failed checks too.
func CheckSharded(b Builder, n, entries int, opts ExploreOptions) ([]ModelReport, error) {
	models := opts.Models
	if len(models) == 0 {
		models = []memsim.Model{memsim.CC, memsim.DSM}
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
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
	for _, model := range []memsim.Model{memsim.CC, memsim.DSM} {
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
