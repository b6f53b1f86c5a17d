package main

// lockstress -watch: the live stress dashboard. A background goroutine
// renders one frame per interval; each frame snapshots every run's
// tracker (a goroutine-safe operation the harness supports mid-run)
// into plain watchRow values, and renderStressFrame turns rows into
// text. Rendering is a pure function of the rows, so the frame format
// is pinned by tests without running a sweep — the same split as the
// fleet status -watch dashboard.

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"fetchphi/internal/stress"
)

// Row lifecycle states.
const (
	stateWait = "wait" // queued, run not started
	stateRun  = "run"  // tracker attached, workers in flight
	stateDone = "done" // run finished, final numbers frozen
	stateFail = "FAIL" // mutual exclusion violated or run error
)

// watchRow is one dashboard line's render input: a plain snapshot with
// no live references, so renderStressFrame stays pure.
type watchRow struct {
	Lock      string
	Workers   int
	State     string
	Ops       int64
	Total     int64
	OpsPerSec float64
	P50NS     int64
	P99NS     int64
	Jain      float64
	Drift     float64
	Rates     []float64
}

// boardRow is the live state behind one watchRow.
type boardRow struct {
	lock    string
	workers int
	total   int64
	state   string
	tracker *stress.Tracker
	final   *stress.Progress
}

// liveBoard tracks every (lock, workers) point of the sweep.
type liveBoard struct {
	mu   sync.Mutex
	rows []*boardRow
}

func newLiveBoard() *liveBoard { return &liveBoard{} }

// addRow registers one sweep point, in presentation order.
func (b *liveBoard) addRow(lock string, workers int, total int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.rows = append(b.rows, &boardRow{lock: lock, workers: workers, total: total, state: stateWait})
}

// findLocked returns the row for one sweep point; b.mu must be held.
func (b *liveBoard) findLocked(lock string, workers int) *boardRow {
	for _, r := range b.rows {
		if r.lock == lock && r.workers == workers {
			return r
		}
	}
	return nil
}

// attach returns the stress.Config.OnTracker hook that wires a run's
// live tracker into its row.
func (b *liveBoard) attach(lock string, workers int) func(*stress.Tracker) {
	return func(tr *stress.Tracker) {
		b.mu.Lock()
		defer b.mu.Unlock()
		if r := b.findLocked(lock, workers); r != nil {
			r.tracker = tr
			r.state = stateRun
		}
	}
}

// done freezes a finished run's numbers into its row.
func (b *liveBoard) done(lock string, workers int, p stress.Progress) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if r := b.findLocked(lock, workers); r != nil {
		r.final = &p
		r.state = stateDone
	}
}

// fail marks a run that errored (lost updates).
func (b *liveBoard) fail(lock string, workers int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if r := b.findLocked(lock, workers); r != nil {
		r.state = stateFail
	}
}

// frame snapshots every row into render inputs.
func (b *liveBoard) frame() []watchRow {
	b.mu.Lock()
	defer b.mu.Unlock()
	rows := make([]watchRow, 0, len(b.rows))
	for _, r := range b.rows {
		row := watchRow{Lock: r.lock, Workers: r.workers, State: r.state, Total: r.total}
		var p *stress.Progress
		if r.final != nil {
			p = r.final
		} else if r.tracker != nil {
			snap := r.tracker.Snapshot()
			p = &snap
		}
		if p != nil {
			row.Ops = p.Ops
			row.OpsPerSec = p.OpsPerSec()
			row.P50NS = p.AcquireNS.Quantile(0.5)
			row.P99NS = p.AcquireNS.Quantile(0.99)
			row.Jain = p.JainIndex
			row.Drift = p.MinWindowJain
			row.Rates = p.WindowRates
		}
		rows = append(rows, row)
	}
	return rows
}

// render writes one screen-clearing frame.
func (b *liveBoard) render(w io.Writer) {
	fmt.Fprint(w, clearScreen)
	renderStressFrame(w, b.frame())
}

// start launches the render loop and returns its idempotent stop
// function, which draws one final frame and waits for the goroutine to
// exit before returning — no frame can race the summary table printed
// afterwards.
func (b *liveBoard) start(w io.Writer, interval time.Duration) (stop func()) {
	stopCh := make(chan struct{})
	doneCh := make(chan struct{})
	go func() {
		defer close(doneCh)
		for {
			b.render(w)
			select {
			case <-stopCh:
				return
			default:
			}
			//fetchphilint:ignore determinism watch-frame pacing; renders wall-clock load that is already nondeterministic
			time.Sleep(interval)
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(stopCh)
			<-doneCh
			b.render(w)
		})
	}
}

// renderStressFrame writes one dashboard frame: a progress headline,
// then one row per sweep point with throughput, latency quantiles,
// fairness, and the windowed-throughput sparkline.
func renderStressFrame(w io.Writer, rows []watchRow) {
	var ops, total int64
	doneRuns := 0
	for _, r := range rows {
		ops += r.Ops
		total += r.Total
		if r.State == stateDone {
			doneRuns++
		}
	}
	fmt.Fprintf(w, "lockstress: %d/%d runs done, %d/%d acquisitions\n", doneRuns, len(rows), ops, total)
	fmt.Fprintf(w, "%-14s %3s %-4s %12s %12s %9s %9s %6s %6s  %s\n",
		"lock", "w", "st", "ops", "ops/s", "p50", "p99", "jain", "drift", "throughput")
	for _, r := range rows {
		if r.State == stateWait {
			fmt.Fprintf(w, "%-14s %3d %-4s\n", r.Lock, r.Workers, r.State)
			continue
		}
		fmt.Fprintf(w, "%-14s %3d %-4s %12d %12.0f %9s %9s %6.3f %6.3f  %s\n",
			r.Lock, r.Workers, r.State, r.Ops, r.OpsPerSec,
			nsString(r.P50NS), nsString(r.P99NS), r.Jain, r.Drift, spark(r.Rates, sparkWidth))
	}
}

// clearScreen is the ANSI home+clear prefix between watch frames.
const clearScreen = "\033[H\033[2J"

// sparkWidth is the dashboard sparkline's column budget; longer
// timelines show their most recent windows.
const sparkWidth = 16

// sparkLevels are the eight block heights of the sparkline.
var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// spark renders values as a block sparkline scaled to the visible
// maximum, keeping the last `width` values.
func spark(xs []float64, width int) string {
	if len(xs) == 0 {
		return ""
	}
	if len(xs) > width {
		xs = xs[len(xs)-width:]
	}
	max := 0.0
	for _, x := range xs {
		if x > max {
			max = x
		}
	}
	var sb strings.Builder
	for _, x := range xs {
		lvl := 0
		if max > 0 && x > 0 {
			lvl = int(x/max*float64(len(sparkLevels)-1) + 0.5)
			if lvl >= len(sparkLevels) {
				lvl = len(sparkLevels) - 1
			}
		}
		sb.WriteRune(sparkLevels[lvl])
	}
	return sb.String()
}

// nsString formats a nanosecond quantity for the dashboard and table.
func nsString(ns int64) string {
	switch {
	case ns >= 1_000_000_000:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1_000_000:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	case ns >= 1_000:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
