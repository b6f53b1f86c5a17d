package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fetchphi/internal/fleet"
	"fetchphi/internal/harness"
	"fetchphi/internal/memsim"
)

// The traced run times calls into each layer's public functions from
// this package only: wrappers around the sweep's builders, schedulers
// and sinks, the explorer's Build, and the progress hooks the harness,
// explorer and fleet already expose. Every wrapper is observation-only
// (TestTracedDigestsMatch pins that): it forwards to the wrapped value
// unchanged and only reads the clock.

// sampleEvery is the sampling period of the per-event wrappers (sink
// Record, scheduler Pick): one call in sampleEvery is timed and the
// total extrapolated, so the traced pass stays close to untraced speed.
const sampleEvery = 64

// span is one recorded interval. Spans of one cell or schedule share a
// group id; parent is 0 for a pass.
type span struct {
	id, parent, group int64
	name, cat         string
	lane              int
	start, end        time.Duration // since the tracer's origin
}

// spanRef is an open span: its id (so children can name it as parent)
// and start time.
type spanRef struct {
	id    int64
	start time.Time
}

// spanInfo describes a span being closed.
type spanInfo struct {
	name, cat     string
	parent, group int64
	lane          int
}

// tracer collects the traced passes of one run: spans for the Chrome
// trace (of the first traced pass only, to bound the file), and the
// per-layer sums the layer metrics are computed from (over every traced
// pass).
type tracer struct {
	origin time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	keep  bool // record spans during this pass
	spans []span
	lanes map[int]bool // lane -> busy
	seg   map[string]time.Duration
	count map[string]int64
	tasks []time.Duration

	// Lock-free sums for the per-schedule wrappers.
	coreBuildNS   atomic.Int64
	memsimBuildNS atomic.Int64
}

func newTracer() *tracer {
	return &tracer{
		origin: time.Now(),
		lanes:  make(map[int]bool),
		seg:    make(map[string]time.Duration),
		count:  make(map[string]int64),
	}
}

func (t *tracer) open() spanRef {
	return spanRef{id: t.nextID.Add(1), start: time.Now()}
}

// close ends r now, recording it as a span, and returns its duration.
func (t *tracer) close(r spanRef, s spanInfo) time.Duration {
	return t.closeAt(r, time.Now(), s)
}

func (t *tracer) closeAt(r spanRef, end time.Time, s spanInfo) time.Duration {
	d := end.Sub(r.start)
	t.mu.Lock()
	if t.keep {
		if s.group == 0 {
			s.group = r.id
		}
		t.spans = append(t.spans, span{
			id: r.id, parent: s.parent, group: s.group, name: s.name, cat: s.cat, lane: s.lane,
			start: r.start.Sub(t.origin), end: end.Sub(t.origin),
		})
	}
	t.mu.Unlock()
	return d
}

// closeSeg closes r and adds its duration to the named layer sum.
func (t *tracer) closeSeg(r spanRef, seg string, s spanInfo) {
	t.addSeg(seg, t.close(r, s))
}

func (t *tracer) addSeg(name string, d time.Duration) {
	t.mu.Lock()
	t.seg[name] += d
	t.mu.Unlock()
}

func (t *tracer) addCount(name string, n int64) {
	t.mu.Lock()
	t.count[name] += n
	t.mu.Unlock()
}

// takeLane returns the lowest free lane at or above base. Lanes are the
// Chrome trace's threads: concurrent spans get distinct lanes, so each
// lane's spans nest properly.
func (t *tracer) takeLane(base int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := base
	for t.lanes[l] {
		l++
	}
	t.lanes[l] = true
	return l
}

func (t *tracer) freeLane(l int) {
	t.mu.Lock()
	delete(t.lanes, l)
	t.mu.Unlock()
}

// Lane bases: lane 0 carries the pass and its sequential phases, tasks
// (cells, model checks) take lanes from taskLanes, and the builds inside
// parallel waves take lanes from buildLanes.
const (
	taskLanes  = 1
	buildLanes = 100
)

func microseconds(us int64) time.Duration { return time.Duration(us) * time.Microsecond }

// addTask records a harness task: one sweep cell or one model's
// exhaustive check.
func (t *tracer) addTask(d time.Duration) {
	t.mu.Lock()
	t.tasks = append(t.tasks, d)
	t.mu.Unlock()
}

// cellTrace is the per-cell trace state carried by a cell's timed sink
// or timed scheduler, which the progress hook finds on the cell itself.
// It is written by the sweep worker at the cell's start and completion
// and by the simulated processes in between; the engine's handoffs order
// those accesses.
type cellTrace struct {
	ref   spanRef
	lane  int
	first time.Time // first sink event or scheduler pick: the machine is built
}

func (c *cellTrace) touch() {
	if c.first.IsZero() {
		c.first = time.Now()
	}
}

type tracedCell interface{ cellTrace() *cellTrace }

// cellProgress is the sweep Progress hook of a traced pass: it opens a
// task span at each cell's start and, at its completion, closes it with
// the build span and the cell's sink and scheduler sums.
func (t *tracer) cellProgress(parent int64) harness.Progress {
	return func(ev harness.ProgressEvent) {
		var tc tracedCell
		if s, ok := ev.Cell.Workload.Sink.(tracedCell); ok {
			tc = s
		} else if s, ok := ev.Cell.Workload.Sched.(tracedCell); ok {
			tc = s
		} else {
			return
		}
		c := tc.cellTrace()
		if ev.Start {
			c.lane = t.takeLane(taskLanes)
			c.ref = t.open()
			return
		}
		w := ev.Cell.Workload
		name := fmt.Sprintf("%s %s %v N=%d seed=%d", ev.Cell.Experiment, ev.Cell.Algorithm, w.Model, w.N, w.Seed)
		t.addTask(t.close(c.ref, spanInfo{name: name, cat: "harness", parent: parent, lane: c.lane}))
		if !c.first.IsZero() {
			b := t.nextID.Add(1)
			d := t.closeAt(spanRef{id: b, start: c.ref.start}, c.first,
				spanInfo{name: "build", cat: "memsim", parent: c.ref.id, group: c.ref.id, lane: c.lane})
			t.addSeg("memsim.build", d)
		}
		switch s := tc.(type) {
		case *timedSink:
			t.addSeg("trace.sink", s.estimate())
			t.addCount("trace.events", s.n)
		case *timedSched:
			t.addSeg("memsim.pick", s.estimate())
		}
		t.freeLane(c.lane)
	}
}

// timedSink wraps a cell's trace recorder: it counts every event and
// times one in sampleEvery.
type timedSink struct {
	inner   memsim.PhaseSink
	trace   cellTrace
	n       int64
	sampled time.Duration
}

func (s *timedSink) cellTrace() *cellTrace { return &s.trace }

func (s *timedSink) Record(ev memsim.TraceEvent) {
	s.trace.touch()
	s.n++
	if s.n%sampleEvery != 0 {
		s.inner.Record(ev)
		return
	}
	start := time.Now()
	s.inner.Record(ev)
	s.sampled += time.Since(start)
}

func (s *timedSink) RecordPhase(ev memsim.PhaseEvent) {
	s.trace.touch()
	s.n++
	if s.n%sampleEvery != 0 {
		s.inner.RecordPhase(ev)
		return
	}
	start := time.Now()
	s.inner.RecordPhase(ev)
	s.sampled += time.Since(start)
}

func (s *timedSink) estimate() time.Duration { return s.sampled * sampleEvery }

// timedSched wraps a cell's scheduler: it marks the first pick and
// times one pick in sampleEvery.
type timedSched struct {
	inner   memsim.Scheduler
	trace   cellTrace
	n       int64
	sampled time.Duration
}

func (s *timedSched) cellTrace() *cellTrace { return &s.trace }

func (s *timedSched) Pick(step int64, runnable []int, last int) int {
	s.trace.touch()
	s.n++
	if s.n%sampleEvery != 0 {
		return s.inner.Pick(step, runnable, last)
	}
	start := time.Now()
	id := s.inner.Pick(step, runnable, last)
	s.sampled += time.Since(start)
	return id
}

func (s *timedSched) estimate() time.Duration { return s.sampled * sampleEvery }

// timedBuilder times the algorithm constructor (the core and baseline
// packages) inside a machine build.
func (t *tracer) timedBuilder(b harness.Builder) harness.Builder {
	return func(m *memsim.Machine) harness.Algorithm {
		start := time.Now()
		alg := b(m)
		t.coreBuildNS.Add(int64(time.Since(start)))
		return alg
	}
}

// waveLog turns wave-start and wave-end observations of one model into
// wave spans, nested in the model's task span.
type waveLog struct {
	t      *tracer
	model  spanRef
	lane   int
	mu     sync.Mutex
	open   bool
	depth  int
	wave   spanRef
	waveID atomic.Int64 // id of the open wave, the parent of its builds
}

func (w *waveLog) start(depth int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.endLocked()
	w.open, w.depth, w.wave = true, depth, w.t.open()
	w.waveID.Store(w.wave.id)
}

func (w *waveLog) end() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.endLocked()
}

func (w *waveLog) endLocked() {
	if !w.open {
		return
	}
	w.open = false
	w.t.closeSeg(w.wave, fmt.Sprintf("explore.wave.d%d", w.depth),
		spanInfo{name: fmt.Sprintf("wave d%d", w.depth), cat: "explore", parent: w.model.id, lane: w.lane})
}

// timedBuild wraps an explorer's Build (memsim machine construction,
// including the algorithm constructor) and records each build as a span
// under the current wave.
func (t *tracer) timedBuild(build func() *memsim.Machine, waves *waveLog) func() *memsim.Machine {
	return func() *memsim.Machine {
		r := t.open()
		m := build()
		end := time.Now()
		t.memsimBuildNS.Add(int64(end.Sub(r.start)))
		t.mu.Lock()
		keep := t.keep
		t.mu.Unlock()
		if keep {
			lane := t.takeLane(buildLanes)
			t.closeAt(r, end, spanInfo{name: "build", cat: "memsim", parent: waves.waveID.Load(), lane: lane})
			t.freeLane(lane)
		}
		return m
	}
}

// shardedCheck is harness.CheckSharded with the explorer's Build and
// the algorithm builder wrapped: the models explore concurrently, each
// sharding its waves across the same worker count. It also counts
// simulated steps through Explorer.Check.
func (t *tracer) shardedCheck(b harness.Builder) ([]harness.ModelReport, int64, error) {
	pass := t.open()
	models := []memsim.Model{memsim.CC, memsim.DSM}
	reports := make([]harness.ModelReport, len(models))
	var steps atomic.Int64
	var wg sync.WaitGroup
	for i, model := range models {
		wg.Add(1)
		go func() {
			defer wg.Done()
			waves := &waveLog{t: t, lane: t.takeLane(taskLanes)}
			opts := exploreOptions()
			opts.Progress = func(_ memsim.Model, p memsim.ExploreProgress) { waves.start(p.Depth) }
			e := harness.CheckExplorer(t.timedBuilder(b), model, exploreN, exploreEntries, opts)
			e.Build = t.timedBuild(e.Build, waves)
			e.Check = func(r memsim.Result) error { steps.Add(r.Steps); return nil }
			waves.model = t.open()
			res := e.Run()
			waves.end()
			t.addTask(t.close(waves.model, spanInfo{name: "check " + model.String(), cat: "harness", parent: pass.id, lane: waves.lane}))
			t.freeLane(waves.lane)
			reports[i] = harness.ModelReport{Model: model, Result: res}
		}()
	}
	wg.Wait()
	t.close(pass, spanInfo{name: "pass", cat: "bench"})
	for _, r := range reports {
		if r.Result.Err != nil {
			return reports, steps.Load(), harness.CheckFailure(r.Model, r.Result)
		}
	}
	return reports, steps.Load(), nil
}

// fleetCheck is fleet.Check over a coordinator whose wave hooks feed
// the trace; the algorithm builder the workers call is wrapped. The
// coordinator runs the models one after another, so model spans share
// one lane.
func (t *tracer) fleetCheck(b harness.Builder) ([]harness.ModelReport, error) {
	pass := t.open()
	var (
		mu    sync.Mutex
		cur   *waveLog
		model memsim.Model
	)
	finishModel := func() {
		if cur == nil {
			return
		}
		cur.end()
		t.addTask(t.close(cur.model, spanInfo{name: "check " + model.String(), cat: "fleet", parent: pass.id, lane: cur.lane}))
		t.freeLane(cur.lane)
		cur = nil
	}
	coord := fleet.NewCoordinator(fleetConfig(), fleet.CoordinatorOptions{
		Progress: func(m memsim.Model, p memsim.ExploreProgress) {
			mu.Lock()
			defer mu.Unlock()
			if cur == nil || m != model {
				finishModel()
				cur = &waveLog{t: t, lane: t.takeLane(taskLanes), model: t.open()}
				model = m
			}
			cur.start(p.Depth)
		},
		AfterWave: func(memsim.Model, int) error {
			mu.Lock()
			defer mu.Unlock()
			if cur != nil {
				cur.end()
			}
			return nil
		},
	})
	// The workers build machines inside their own explorers, which this
	// package cannot wrap; only the algorithm constructor is timed there.
	reports, err := fleet.CheckWith(coord, t.timedBuilder(b), fleet.CheckOptions{Workers: workers, Shards: 1})
	mu.Lock()
	finishModel()
	mu.Unlock()
	t.close(pass, spanInfo{name: "pass", cat: "bench"})
	snap := coord.Metrics().Snapshot()
	for _, name := range []string{fleet.MetricLeases, fleet.MetricReLeases, fleet.MetricStaleReports} {
		t.addCount(name, snap.Counter(name))
	}
	return reports, err
}

// chromeEvent is one Chrome trace-event record ("X" span or "M"
// metadata), in integer microseconds as trace.ValidateChrome reads it.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeJSON renders the recorded spans as Chrome trace-event JSON,
// which loads in Perfetto: one thread per lane, one complete event per
// span, with its id, parent and group in args.
func (t *tracer) chromeJSON(workload string) ([]byte, error) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	events := []chromeEvent{{Name: "process_name", Ph: "M", Args: map[string]any{"name": "perf " + workload}}}
	lanes := map[int]bool{}
	for _, s := range spans {
		if !lanes[s.lane] {
			lanes[s.lane] = true
			events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Tid: s.lane,
				Args: map[string]any{"name": fmt.Sprintf("lane %d", s.lane)}})
		}
		events = append(events, chromeEvent{
			Name: s.name, Cat: s.cat, Ph: "X", Tid: s.lane,
			Ts: s.start.Microseconds(), Dur: (s.end - s.start).Microseconds(),
			Args: map[string]any{"id": s.id, "parent": s.parent, "group": s.group},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return nil, fmt.Errorf("chrome trace: %w", err)
	}
	return append(data, '\n'), nil
}

// checkSpans verifies the span tree: every parent exists, every child
// lies inside its parent, so no span's self time (its duration minus
// the union of its children) is negative. It returns each span's self
// time.
func checkSpans(spans []span) (map[int64]time.Duration, error) {
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		if s.end < s.start {
			return nil, fmt.Errorf("span %d %q ends before it starts", s.id, s.name)
		}
		byID[s.id] = s
	}
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.parent == 0 {
			continue
		}
		p, ok := byID[s.parent]
		if !ok {
			return nil, fmt.Errorf("span %d %q: parent %d does not exist", s.id, s.name, s.parent)
		}
		if s.start < p.start || s.end > p.end {
			return nil, fmt.Errorf("span %d %q [%v,%v] is outside its parent %q [%v,%v]",
				s.id, s.name, s.start, s.end, p.name, p.start, p.end)
		}
		children[s.parent] = append(children[s.parent], s)
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
		var covered, reach time.Duration
		reach = s.start
		for _, k := range kids {
			from := max(k.start, reach)
			if k.end > from {
				covered += k.end - from
				reach = k.end
			}
		}
		self[s.id] = (s.end - s.start) - covered
		if self[s.id] < 0 {
			return nil, fmt.Errorf("span %d %q has negative self time %v", s.id, s.name, self[s.id])
		}
	}
	return self, nil
}
