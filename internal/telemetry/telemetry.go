// Package telemetry is the live-metrics layer of the fleet: a
// stdlib-only registry of counters and exact-until-overflow
// histograms (reusing the obs log₂ histogram) that produces
// deterministic snapshots.
//
// The determinism rule mirrors the rest of the repo's artifact
// discipline (internal/lint enforces it): every wall-clock read goes
// through the registry's injectable clock, and a snapshot's rows come
// back sorted by name. A campaign that reads the clock only at
// deterministic points (construction, wave boundaries, snapshot time)
// therefore serializes to byte-identical artifacts under a fake clock,
// at any worker count — the property the fleet's capacity artifacts
// are tested for.
//
// The package deliberately has no label/dimension machinery: a metric
// is a flat name ("fleet.leases", "fleet.worker.w3.schedules"), and
// per-entity metrics embed the entity in the name. Snapshots sort, so
// naming alone keeps output stable.
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fetchphi/internal/obs"
)

// wallClock is the default registry clock — the package's single
// wall-clock site. Everything downstream (snapshots, rates, timers)
// reads time through the registry, so injecting a fake here makes the
// whole telemetry surface deterministic.
func wallClock() time.Time {
	//fetchphilint:ignore determinism telemetry's default clock; tests and the capacity-artifact determinism suite inject fakes
	return time.Now()
}

// Counter is a monotonically increasing metric. The zero value is
// ready; all methods are goroutine-safe.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative n is a caller bug; it is applied as-is so the
// bug is visible rather than masked).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram is a goroutine-safe wrapper around the obs log₂ histogram:
// exact quantiles until the sample reservoir overflows, bucket bounds
// beyond.
type Histogram struct {
	mu sync.Mutex
	h  obs.Histogram
}

// Observe adds one sample.
func (h *Histogram) Observe(v int64) {
	h.mu.Lock()
	h.h.Observe(v)
	h.mu.Unlock()
}

// Snapshot returns a deep copy of the underlying histogram.
func (h *Histogram) Snapshot() obs.Histogram {
	h.mu.Lock()
	defer h.mu.Unlock()
	c := h.h
	c.Buckets = append([]int64(nil), h.h.Buckets...)
	c.Samples = append([]int64(nil), h.h.Samples...)
	return c
}

// Registry holds a process's metrics and the clock they are measured
// against. Metrics are created on first use and live forever (the
// fleet's name space is small and bounded by worker count).
type Registry struct {
	now   func() time.Time
	start time.Time

	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// New creates a registry. now is the injectable clock; nil selects the
// wall clock. The registry reads the clock once at construction (its
// start instant) and then only inside Time and Snapshot — callers that
// need deterministic artifacts must confine those calls to
// deterministic points.
func New(now func() time.Time) *Registry {
	if now == nil {
		now = wallClock
	}
	return &Registry{
		now:      now,
		start:    now(),
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
	}
}

// Now reads the registry clock. Callers that need their own instants —
// per-acquisition latencies, window stamps — read here rather than the
// wall clock, so injecting a fake at construction governs every
// measurement of the run, not just snapshot timing.
func (r *Registry) Now() time.Time { return r.now() }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Time starts timing an operation and returns the stop function, which
// observes the elapsed microseconds into the named histogram. Both the
// start and the stop read the registry clock (two reads per timed
// operation — a fixed, countable cost, which is what keeps fake-clock
// artifacts deterministic).
func (r *Registry) Time(name string) func() {
	start := r.now()
	h := r.Histogram(name)
	return func() { h.Observe(r.now().Sub(start).Microseconds()) }
}

// CounterValue is one counter row of a snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistogramValue is one histogram row of a snapshot.
type HistogramValue struct {
	Name string        `json:"name"`
	Hist obs.Histogram `json:"hist"`
}

// Snapshot is a point-in-time copy of a registry: every metric, sorted
// by name, plus the elapsed time since the registry was created (read
// through the injectable clock). Two registries fed identical events
// under identical clocks marshal to identical bytes — the property the
// /v1/metrics endpoint and the capacity artifacts inherit.
type Snapshot struct {
	// ElapsedUS is microseconds since the registry was created, per the
	// registry clock.
	ElapsedUS  int64            `json:"elapsed_us"`
	Counters   []CounterValue   `json:"counters,omitempty"`
	Histograms []HistogramValue `json:"histograms,omitempty"`
}

// Snapshot captures the registry. It reads the clock exactly once.
func (r *Registry) Snapshot() Snapshot {
	elapsed := r.now().Sub(r.start).Microseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{ElapsedUS: elapsed}
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterValue{Name: name, Value: c.Value()})
	}
	for name, h := range r.hists {
		s.Histograms = append(s.Histograms, HistogramValue{Name: name, Hist: h.Snapshot()})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// Counter returns the snapshot value of the named counter (0 when the
// counter never existed).
func (s Snapshot) Counter(name string) int64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Histogram returns the snapshot of the named histogram (the zero
// histogram when absent).
func (s Snapshot) Histogram(name string) obs.Histogram {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h.Hist
		}
	}
	return obs.Histogram{}
}

// PerSec converts the named counter into a rate over the snapshot's
// elapsed time (0 when no time has elapsed).
func (s Snapshot) PerSec(name string) float64 {
	if s.ElapsedUS <= 0 {
		return 0
	}
	return float64(s.Counter(name)) * 1e6 / float64(s.ElapsedUS)
}
