package harness

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"fetchphi/internal/memsim"
	"fetchphi/internal/telemetry"
)

// sweepCells builds a small (model, N, seed) grid over the test lock —
// cheap, deterministic, and exercising awaits.
func sweepCells() []Cell {
	var cells []Cell
	for _, model := range []memsim.Model{memsim.CC, memsim.DSM} {
		for _, n := range []int{2, 4, 8} {
			for seed := int64(1); seed <= 3; seed++ {
				cells = append(cells, Cell{
					Experiment: "TEST",
					Algorithm:  "fake",
					Build:      newFakeLock,
					Workload:   Workload{Model: model, N: n, Entries: 3, CSOps: 1, Seed: seed},
				})
			}
		}
	}
	return cells
}

// TestSweepParallelMatchesSerial is the determinism gate: the parallel
// sweep must produce bit-identical metrics to the serial path for the
// same cells — including every histogram bucket, not just the scalar
// summaries.
func TestSweepParallelMatchesSerial(t *testing.T) {
	cells := sweepCells()
	serial := Sweep(cells, 1)
	parallel := Sweep(cells, 8)
	if len(serial) != len(parallel) {
		t.Fatalf("result lengths differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].Err != nil {
			t.Fatalf("cell %d failed: %v", i, serial[i].Err)
		}
		if parallel[i].Err != nil {
			t.Fatalf("parallel cell %d failed: %v", i, parallel[i].Err)
		}
		if !reflect.DeepEqual(serial[i].Metrics, parallel[i].Metrics) {
			t.Fatalf("cell %d metrics diverged between serial and parallel:\nserial   %+v\nparallel %+v",
				i, serial[i].Metrics, parallel[i].Metrics)
		}
	}
}

// TestSweepRepeatable: running the same sweep twice is bit-identical
// (no hidden global state).
func TestSweepRepeatable(t *testing.T) {
	cells := sweepCells()
	a := Sweep(cells, 4)
	b := Sweep(cells, 4)
	for i := range a {
		if !reflect.DeepEqual(a[i].Metrics, b[i].Metrics) {
			t.Fatalf("cell %d not repeatable", i)
		}
	}
}

func TestSweepReportsPerCellErrors(t *testing.T) {
	cells := []Cell{
		{Algorithm: "bad", Build: newFakeLock,
			Workload: Workload{Model: memsim.CC, N: 0, Entries: 1}}, // invalid N
		{Algorithm: "good", Build: newFakeLock,
			Workload: Workload{Model: memsim.CC, N: 2, Entries: 2, Seed: 1}},
	}
	rs := Sweep(cells, 2)
	if rs[0].Err == nil {
		t.Fatal("invalid workload must surface its error")
	}
	if rs[1].Err != nil {
		t.Fatalf("good cell poisoned by bad one: %v", rs[1].Err)
	}
}

func TestSweepEmptyAndOversizedWorkers(t *testing.T) {
	if got := Sweep(nil, 8); len(got) != 0 {
		t.Fatal("empty sweep must return empty results")
	}
	cells := sweepCells()[:2]
	rs := Sweep(cells, 64) // workers > cells
	for i, r := range rs {
		if r.Err != nil {
			t.Fatalf("cell %d: %v", i, r.Err)
		}
	}
}

// TestRecordCell checks the artifact conversion carries the cell key
// and the distributional metrics.
func TestRecordCell(t *testing.T) {
	cells := sweepCells()[:1]
	r := Sweep(cells, 1)[0]
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	c := r.Record()
	if c.Experiment != "TEST" || c.Algorithm != "fake" || c.Model != "CC" || c.N != 2 || c.Seed != 1 {
		t.Fatalf("bad cell key fields: %+v", c)
	}
	if c.Run.RMRPerEntry.Count != int64(c.N*c.Entries) {
		t.Fatalf("RMR histogram has %d samples, want %d", c.Run.RMRPerEntry.Count, c.N*c.Entries)
	}
	if c.Run.TotalRMRs == 0 || c.MeanRMR == 0 {
		t.Fatalf("empty metrics: %+v", c)
	}
}

// TestCellRecordsHotspots: every successful cell surfaces its top-k
// per-variable RMR attribution (the `tracectl hotspots` view) in the
// benchmark-artifact form, ranked descending.
func TestCellRecordsHotspots(t *testing.T) {
	for _, r := range Sweep(sweepCells(), 4) {
		if r.Err != nil {
			t.Fatalf("cell failed: %v", r.Err)
		}
		cell := r.Record()
		if len(cell.Hotspots) == 0 {
			t.Fatalf("cell %s recorded no hotspots", cell.Key())
		}
		if len(cell.Hotspots) > HotspotTopK {
			t.Fatalf("cell %s recorded %d hotspots, cap is %d", cell.Key(), len(cell.Hotspots), HotspotTopK)
		}
		var total int64
		for i, h := range cell.Hotspots {
			if h.Name == "" || h.RMRs <= 0 {
				t.Fatalf("cell %s hotspot %d malformed: %+v", cell.Key(), i, h)
			}
			if i > 0 && h.RMRs > cell.Hotspots[i-1].RMRs {
				t.Fatalf("cell %s hotspots not sorted: %+v", cell.Key(), cell.Hotspots)
			}
			total += h.RMRs
		}
		if total > cell.Run.TotalRMRs {
			t.Fatalf("cell %s hotspot RMRs (%d) exceed the run total (%d)", cell.Key(), total, cell.Run.TotalRMRs)
		}
	}
}

// cellSink is a per-cell EventSink retaining every event it sees.
type cellSink struct{ events []memsim.TraceEvent }

func (c *cellSink) Record(ev memsim.TraceEvent) { c.events = append(c.events, ev) }

// TestSweepPerCellSinksIsolated: when every cell of a parallel sweep
// carries its own sink, each sink sees exactly its own cell's event
// stream — no cross-cell bleed, no reordering — and it matches the
// stream a serial one-cell run produces. Run under `make race`, this
// also proves the fanout needs no locking.
func TestSweepPerCellSinksIsolated(t *testing.T) {
	cells := sweepCells()
	sinks := make([]*cellSink, len(cells))
	for i := range cells {
		sinks[i] = &cellSink{}
		cells[i].Workload.Sink = sinks[i]
	}
	for i, r := range Sweep(cells, 8) {
		if r.Err != nil {
			t.Fatalf("cell %d: %v", i, r.Err)
		}
	}
	for i, c := range cells {
		if len(sinks[i].events) == 0 {
			t.Fatalf("cell %d sink saw no events", i)
		}
		ref := &cellSink{}
		c.Workload.Sink = ref
		if _, err := Run(c.Build, c.Workload); err != nil {
			t.Fatalf("serial rerun of cell %d: %v", i, err)
		}
		if !reflect.DeepEqual(sinks[i].events, ref.events) {
			t.Fatalf("cell %d: parallel-sweep sink diverged from serial run (%d vs %d events)",
				i, len(sinks[i].events), len(ref.events))
		}
	}
}

// TestSweepProgressEvents: every cell produces exactly one start and
// one completion event; the completion counter covers 1..Total with no
// gaps, and the final event reports Total done.
func TestSweepProgressEvents(t *testing.T) {
	cells := sweepCells()
	var mu sync.Mutex
	starts, completes := 0, 0
	seen := make(map[int]bool)
	SweepWith(cells, SweepOptions{Workers: 8, Progress: func(ev ProgressEvent) {
		mu.Lock()
		defer mu.Unlock()
		if ev.Total != len(cells) {
			t.Errorf("event total %d, want %d", ev.Total, len(cells))
		}
		if ev.Cell.Experiment != "TEST" {
			t.Errorf("event cell lacks its identity: %+v", ev.Cell)
		}
		if ev.Start {
			starts++
			return
		}
		completes++
		if ev.Done < 1 || ev.Done > len(cells) {
			t.Errorf("completion count %d out of range", ev.Done)
		}
		if seen[ev.Done] {
			t.Errorf("completion count %d reported twice", ev.Done)
		}
		seen[ev.Done] = true
	}})
	if starts != len(cells) || completes != len(cells) {
		t.Fatalf("%d starts, %d completions, want %d each", starts, completes, len(cells))
	}
	for i := 1; i <= len(cells); i++ {
		if !seen[i] {
			t.Fatalf("no completion event reported %d done", i)
		}
	}
}

// TestSweepProgressObservationOnly: attaching a progress callback
// changes no measured metric — the -progress flag must be free when
// you look at the numbers (the sink-isolation discipline, applied to
// progress).
func TestSweepProgressObservationOnly(t *testing.T) {
	plain := Sweep(sweepCells(), 4)
	var mu sync.Mutex
	events := 0
	observed := SweepWith(sweepCells(), SweepOptions{Workers: 4, Progress: func(ProgressEvent) {
		mu.Lock()
		events++
		mu.Unlock()
	}})
	if events == 0 {
		t.Fatal("progress callback never fired")
	}
	for i := range plain {
		if !reflect.DeepEqual(plain[i].Metrics, observed[i].Metrics) {
			t.Fatalf("cell %d metrics changed when progress was attached:\nplain    %+v\nobserved %+v",
				i, plain[i].Metrics, observed[i].Metrics)
		}
	}
}

// TestSweepSinksObservationOnly: attaching sinks changes no measured
// metric — recording must be free when you look at the numbers.
func TestSweepSinksObservationOnly(t *testing.T) {
	plain := Sweep(sweepCells(), 4)
	cells := sweepCells()
	for i := range cells {
		cells[i].Workload.Sink = &cellSink{}
	}
	observed := Sweep(cells, 4)
	for i := range plain {
		if !reflect.DeepEqual(plain[i].Metrics, observed[i].Metrics) {
			t.Fatalf("cell %d metrics changed when a sink was attached:\nplain    %+v\nobserved %+v",
				i, plain[i].Metrics, observed[i].Metrics)
		}
	}
}

// TestSweepTelemetryObservationOnly extends the observation-only
// discipline to the metrics registry: attaching one changes no
// measured metric, and the registry ends up with a complete account of
// the sweep — one cell sample and one accounting sample per cell.
func TestSweepTelemetryObservationOnly(t *testing.T) {
	plain := Sweep(sweepCells(), 4)
	metrics := telemetry.New(nil)
	observed := SweepWith(sweepCells(), SweepOptions{Workers: 4, Metrics: metrics})
	for i := range plain {
		if !reflect.DeepEqual(plain[i].Metrics, observed[i].Metrics) {
			t.Fatalf("cell %d metrics changed when telemetry was attached:\nplain    %+v\nobserved %+v",
				i, plain[i].Metrics, observed[i].Metrics)
		}
	}
	snap := metrics.Snapshot()
	n := int64(len(sweepCells()))
	if got := snap.Counter(MetricSweepCells); got != n {
		t.Errorf("sweep.cells: %d, want %d", got, n)
	}
	if got := snap.Counter(MetricSweepFailures); got != 0 {
		t.Errorf("sweep.failures: %d, want 0", got)
	}
	if h := snap.Histogram(MetricSweepCellUS); h.Count != n {
		t.Errorf("sweep.cell_us samples: %d, want %d", h.Count, n)
	}
	if h := snap.Histogram(MetricSweepAccountUS); h.Count != n {
		t.Errorf("sweep.account_us samples: %d, want %d", h.Count, n)
	}
	if snap.PerSec(MetricSweepCells) <= 0 {
		t.Error("cells/sec rate should be positive on the wall clock")
	}
}

// TestSweepTelemetryCountsFailures: a cell that errors still counts as
// a completed cell and increments the failure counter; cells that never
// reach the simulation/accounting boundary contribute no accounting
// sample.
func TestSweepTelemetryCountsFailures(t *testing.T) {
	cells := []Cell{
		{Algorithm: "bad", Build: newFakeLock,
			Workload: Workload{Model: memsim.CC, N: 0, Entries: 1}}, // invalid N
		{Algorithm: "good", Build: newFakeLock,
			Workload: Workload{Model: memsim.CC, N: 2, Entries: 2, Seed: 1}},
	}
	metrics := telemetry.New(nil)
	rs := SweepWith(cells, SweepOptions{Workers: 2, Metrics: metrics})
	if rs[0].Err == nil || rs[1].Err != nil {
		t.Fatalf("unexpected errors: %v, %v", rs[0].Err, rs[1].Err)
	}
	snap := metrics.Snapshot()
	if got := snap.Counter(MetricSweepCells); got != 2 {
		t.Errorf("sweep.cells: %d, want 2", got)
	}
	if got := snap.Counter(MetricSweepFailures); got != 1 {
		t.Errorf("sweep.failures: %d, want 1", got)
	}
	if h := snap.Histogram(MetricSweepAccountUS); h.Count != 1 {
		t.Errorf("sweep.account_us samples: %d, want 1 (invalid workload never simulates)", h.Count)
	}
}

// TestSweepOverReleasedMachines runs a mixed sweep (both models, plain
// and abortable cells, machines of one to several storage chunks) again
// and again in one process. Every run builds its machines from storage
// that earlier runs released, so any state Release failed to zero would
// show up as records differing from the first run's.
func TestSweepOverReleasedMachines(t *testing.T) {
	var cells []Cell
	for _, model := range []memsim.Model{memsim.CC, memsim.DSM} {
		for _, n := range []int{2, 5, 40} {
			w := Workload{Model: model, N: n, Entries: 3, CSOps: 2, NCSOps: 1, Seed: int64(n)}
			aw := w
			aw.Aborts, aw.Retries = []memsim.AbortPoint{{Proc: 1, Passage: 0, Event: 1}}, 1
			cells = append(cells,
				Cell{Experiment: "TEST", Algorithm: "fake", Build: newFakeLock, Workload: w},
				Cell{Experiment: "TEST", Algorithm: "fake-abortable", Build: newFakeAbortable, Workload: aw})
		}
	}
	records := func(workers int) []any {
		var out []any
		for _, r := range SweepWith(cells, SweepOptions{Workers: workers}) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			out = append(out, r.Record())
		}
		return out
	}
	fresh := records(1)
	for _, workers := range []int{1, 4} {
		for run := 0; run < 2; run++ {
			if got := records(workers); !reflect.DeepEqual(got, fresh) {
				t.Fatalf("workers=%d run %d: records differ from the first run's", workers, run)
			}
		}
	}
}

// TestSweepRetiresCarriers: every SweepWith worker runs its cells on a
// carrier set of its own and retires it when the sweep returns, so no
// process coroutine outlives the sweep, at one worker or several.
func TestSweepRetiresCarriers(t *testing.T) {
	cells := sweepCells()
	runtime.GC()
	before := runtime.NumGoroutine()
	for _, workers := range []int{1, 4} {
		for _, r := range SweepWith(cells, SweepOptions{Workers: workers}) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
		n := runtime.NumGoroutine()
		for wait := 0; n > before && wait < 1000; wait++ {
			runtime.GC()
			time.Sleep(time.Millisecond)
			n = runtime.NumGoroutine()
		}
		if n > before {
			t.Fatalf("SweepWith at %d workers left %d goroutines running, want at most %d", workers, n, before)
		}
	}
}

// replaySink is a cellSink that takes a replay when it can.
type replaySink struct {
	cellSink
	replay func()
}

func (s *replaySink) Defer(replay func()) { s.replay = replay }

// TestFlightReplaySinkDeferred: a ReplaySink of a cell on the default
// scheduler sees nothing while the sweep runs and is handed a replay
// that feeds it the event stream a live sink saw, failing cells
// included; the same cell with an explicit scheduler attaches it live
// and hands it no replay. Either way the cell measures the same.
func TestFlightReplaySinkDeferred(t *testing.T) {
	cells := append(sweepCells(), Cell{
		Experiment: "TEST",
		Algorithm:  "broken",
		Build:      newBrokenLock,
		Workload:   Workload{Model: memsim.CC, N: 3, Entries: 4, CSOps: 1, Seed: 2},
	})
	liveCells := slices.Clone(cells)
	deferred := make([]*replaySink, len(cells))
	live := make([]*replaySink, len(cells))
	for i := range cells {
		deferred[i], live[i] = &replaySink{}, &replaySink{}
		cells[i].Workload.Sink = deferred[i]
		liveCells[i].Workload.Sink = live[i]
		liveCells[i].Workload.Sched = memsim.NewRandom(cells[i].Workload.Seed)
	}
	got, want := Sweep(cells, 4), Sweep(liveCells, 4)
	for i := range cells {
		// The broken lock fails at its first critical section, before
		// any shared-memory operation.
		if live[i].replay != nil || len(live[i].events) == 0 && cells[i].Algorithm != "broken" {
			t.Fatalf("cell %d with its own scheduler: replay handed %v, %d events; want it recorded live",
				i, live[i].replay != nil, len(live[i].events))
		}
		if deferred[i].replay == nil || len(deferred[i].events) != 0 {
			t.Fatalf("cell %d on the default scheduler: replay handed %v, %d events; want a replay and no events",
				i, deferred[i].replay != nil, len(deferred[i].events))
		}
		if fmt.Sprint(got[i].Err) != fmt.Sprint(want[i].Err) || !reflect.DeepEqual(got[i].Metrics, want[i].Metrics) {
			t.Fatalf("cell %d measured differently with a deferred sink: %v vs %v", i, got[i].Err, want[i].Err)
		}
		deferred[i].replay()
		if !reflect.DeepEqual(deferred[i].events, live[i].events) {
			t.Fatalf("cell %d: replay fed %d events, the live run %d", i, len(deferred[i].events), len(live[i].events))
		}
	}
	if got[len(cells)-1].Err == nil {
		t.Fatal("the broken lock passed")
	}
}
