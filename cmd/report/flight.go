package main

import (
	"fmt"
	"path/filepath"
	"sync"

	"fetchphi/internal/harness"
	"fetchphi/internal/memsim"
	"fetchphi/internal/obs"
	"fetchphi/internal/trace"
)

// flightLog is the report run's flight-recorder registry: one bounded
// trace.Recorder per sweep cell, kept until the run (and the
// regression gate) has finished, so any failure — an invariant
// violation mid-sweep or a gate regression found at the very end — can
// be dumped as a fetchphi.trace/v1 artifact. A cell on the default
// scheduler is not recorded while it runs: its recorder holds a replay
// of the cell (harness.ReplaySink), which a dump runs. A green run
// thus records no cell, and a dump writes what a live recording would
// have held.
//
// Experiments run concurrently, so the registry is mutex-guarded; the
// recorders themselves are not (each is used by one sweep worker while
// its cell runs, per the harness.Workload.Sink contract, and by one
// dump after).
type flightLog struct {
	limit int    // per-process span bound (0 = flight recording off)
	dir   string // <out>/traces
	mu    sync.Mutex
	cells map[string]flightCell
}

type flightCell struct {
	rec  *trace.Recorder
	cell harness.Cell
}

func newFlightLog(limit int, outDir string) *flightLog {
	return &flightLog{
		limit: limit,
		dir:   filepath.Join(outDir, "traces"),
		cells: make(map[string]flightCell),
	}
}

// attach is the experiments.Opts.Sink hook: it registers a fresh
// bounded recorder for the cell and hands it to the sweep.
func (f *flightLog) attach(c harness.Cell) memsim.EventSink {
	rec := trace.NewRecorder(f.limit)
	f.mu.Lock()
	f.cells[c.Key()] = flightCell{rec: rec, cell: c}
	f.mu.Unlock()
	return rec
}

// dump writes the named cell's flight-recorder window as a trace
// artifact, replaying the cell first if it ran unrecorded, and returns
// its path ("" if the cell has no recorder — wall-clock cells, or a
// run with flight recording off).
func (f *flightLog) dump(key, reason string) (string, error) {
	f.mu.Lock()
	fc, ok := f.cells[key]
	f.mu.Unlock()
	if !ok {
		return "", nil
	}
	a := fc.rec.Artifact("flight-recorder")
	a.Reason = reason
	a.Cell = key
	a.Algorithm = fc.cell.Algorithm
	a.Model = fc.cell.Workload.Model.String()
	a.N = fc.cell.Workload.N
	a.CreatedBy = "cmd/report"
	path := filepath.Join(f.dir, obs.TraceArtifactName(key))
	if err := a.WriteFile(path); err != nil {
		return "", fmt.Errorf("flight recorder for %s: %w", key, err)
	}
	return path, nil
}

// dumpFailure is the experiments.Opts.OnFailure hook: a cell run
// failed (violation, deadlock, starvation timeout), so its recorder's
// window, replayed to the same failure, goes to disk before the sweep
// panic unwinds.
func (f *flightLog) dumpFailure(r harness.CellResult) (string, error) {
	return f.dump(r.Cell.Key(), r.Err.Error())
}
