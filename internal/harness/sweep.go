package harness

import (
	"runtime"
	"sync"
	"sync/atomic"

	"fetchphi/internal/memsim"
	"fetchphi/internal/obs"
	"fetchphi/internal/telemetry"
)

// Cell is one point of an experiment sweep: an algorithm builder plus
// the workload to run it under. The Workload's Seed (or explicit
// Sched) fully determines the run, so a sweep's cells are independent
// and can execute in any order — or in parallel — with bit-identical
// results.
type Cell struct {
	// Experiment is the owning experiment id (E1..E9), carried into
	// benchmark artifacts.
	Experiment string
	// Algorithm is the display/artifact name for the builder.
	Algorithm string
	// Build constructs the algorithm under test.
	Build Builder
	// Workload is the configuration to run.
	Workload Workload
}

// CellResult pairs a cell with what it measured.
type CellResult struct {
	// Cell is the input cell.
	Cell Cell
	// Metrics is the run's measurement (valid even when Err != nil,
	// as far as the run got).
	Metrics Metrics
	// Err is the run's failure, if any.
	Err error
}

// Record converts the result into its benchmark-artifact form. The
// abort-accounting fields are recorded only for cells that schedule
// aborts, so abort-free artifacts carry none.
func (r CellResult) Record() obs.Cell {
	w := r.Cell.Workload
	rec := obs.Cell{
		Experiment:    r.Cell.Experiment,
		Algorithm:     r.Cell.Algorithm,
		Model:         w.Model.String(),
		N:             w.N,
		Entries:       w.Entries,
		Seed:          w.Seed,
		MeanRMR:       r.Metrics.MeanRMR,
		WorstRMR:      r.Metrics.WorstRMR,
		NonLocalSpins: r.Metrics.NonLocalSpins,
		MaxBypass:     r.Metrics.MaxBypass,
		Steps:         r.Metrics.Result.Steps,
		Hotspots:      r.Metrics.Hotspots,
		Run:           r.Metrics.Obs,
	}
	if len(w.Aborts) > 0 {
		rec.AbortSchedule = memsim.FormatAbortSchedule(w.Aborts)
		rec.Aborts = r.Metrics.Aborts
		rec.Passages = r.Metrics.Passages
		rec.AmortizedRMR = r.Metrics.AmortizedRMR
		rec.MaxAbortResolve = r.Metrics.MaxAbortResolve
	}
	return rec
}

// ProgressEvent is one sweep-progress notification: which cell, and
// how far the sweep is. Start events fire as a cell begins (Done is
// the count completed so far); completion events fire as it finishes
// (Done includes it).
type ProgressEvent struct {
	// Cell is the cell starting or finishing.
	Cell Cell
	// Done is the number of completed cells at the time of the event.
	Done int
	// Total is the sweep's cell count.
	Total int
	// Start distinguishes cell-start from cell-completion events.
	Start bool
}

// Progress receives sweep-progress events. Workers call it
// concurrently; implementations synchronize their own output.
// Progress is observation-only: it sees the sweep happen but cannot
// influence any measured metric (the cells carry their own seeds and
// machines), which TestSweepProgressObservationOnly pins down.
type Progress func(ProgressEvent)

// Sweep telemetry metric names (internal/telemetry flat-name
// convention). cells/sec is Snapshot.PerSec(MetricSweepCells);
// MetricSweepAccountUS isolates the post-simulation RMR-accounting
// overhead (attribution, histogram fills, validation) from the cell
// total, so "how much of a sweep is bookkeeping" is a direct quantile
// read.
const (
	// MetricSweepCells counts completed cells.
	MetricSweepCells = "sweep.cells"
	// MetricSweepFailures counts cells that finished with an error.
	MetricSweepFailures = "sweep.failures"
	// MetricSweepCellUS is the histogram of whole-cell execution times
	// (µs: simulation + accounting).
	MetricSweepCellUS = "sweep.cell_us"
	// MetricSweepAccountUS is the histogram of per-cell RMR-accounting
	// times (µs: everything after machine execution finishes).
	MetricSweepAccountUS = "sweep.account_us"
)

// SweepOptions configure SweepWith; the zero value matches Sweep.
type SweepOptions struct {
	// Workers is the parallel cell width (0 or negative: GOMAXPROCS).
	Workers int
	// Progress, if non-nil, receives per-cell start/completion events.
	Progress Progress
	// Metrics, if non-nil, receives sweep telemetry (the Metric*
	// constants above). Observation-only, like Progress: workers
	// observe into it concurrently, and nothing measured by any cell
	// depends on it.
	Metrics *telemetry.Registry
}

// Sweep runs every cell and returns results in input order. Cells are
// sharded across `workers` goroutines (0 or negative means
// GOMAXPROCS); each cell builds its own machine and scheduler from the
// cell's seed, so the outcome is deterministic and identical to a
// serial run — parallelism changes only wall-clock time. Errors are
// reported per cell, not short-circuited: callers decide whether one
// failed cell poisons the sweep.
func Sweep(cells []Cell, workers int) []CellResult {
	return SweepWith(cells, SweepOptions{Workers: workers})
}

// SweepWith is the fully-optioned sweep: progress reporting plus
// telemetry.
func SweepWith(cells []Cell, opts SweepOptions) []CellResult {
	workers, progress := opts.Workers, opts.Progress
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	results := make([]CellResult, len(cells))
	if len(cells) == 0 {
		return results
	}
	var done atomic.Int64
	// Each worker runs all its cells on one sweepWorker, so a cell
	// creates no coroutines once its worker has run a cell of its size,
	// and no scheduler source after the worker's first cell.
	runCell := func(sw *sweepWorker, i int) {
		c := cells[i]
		if progress != nil {
			progress(ProgressEvent{Cell: c, Done: int(done.Load()), Total: len(cells), Start: true})
		}
		var met Metrics
		var err error
		if opts.Metrics == nil {
			met, err = runTimed(c.Build, c.Workload, sw, nil)
		} else {
			stopCell := opts.Metrics.Time(MetricSweepCellUS)
			var stopAccount func()
			met, err = runTimed(c.Build, c.Workload, sw, func() {
				stopAccount = opts.Metrics.Time(MetricSweepAccountUS)
			})
			if stopAccount != nil {
				stopAccount()
			}
			stopCell()
			opts.Metrics.Counter(MetricSweepCells).Inc()
			if err != nil {
				opts.Metrics.Counter(MetricSweepFailures).Inc()
			}
		}
		results[i] = CellResult{Cell: c, Metrics: met, Err: err}
		if progress != nil {
			progress(ProgressEvent{Cell: c, Done: int(done.Add(1)), Total: len(cells)})
		}
	}
	if workers <= 1 {
		var sw sweepWorker
		defer sw.cs.Close()
		for i := range cells {
			runCell(&sw, i)
		}
		return results
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sw sweepWorker
			defer sw.cs.Close()
			for i := range next {
				runCell(&sw, i)
			}
		}()
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()
	return results
}
