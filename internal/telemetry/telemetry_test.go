package telemetry

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// stepClock advances a fixed amount per read: elapsed time becomes a
// pure function of the clock-read count, which is exactly the property
// the capacity-artifact determinism suite leans on.
type stepClock struct {
	mu   sync.Mutex
	now  time.Time
	step time.Duration
}

func newStepClock(step time.Duration) *stepClock {
	return &stepClock{now: time.Unix(0, 0), step: step}
}

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(c.step)
	return c.now
}

func TestCounterHistogram(t *testing.T) {
	r := New(newStepClock(time.Millisecond).Now)
	r.Counter("c").Inc()
	r.Counter("c").Add(4)
	if got := r.Counter("c").Value(); got != 5 {
		t.Fatalf("counter: %d, want 5", got)
	}
	for _, v := range []int64{1, 10, 100} {
		r.Histogram("h").Observe(v)
	}
	h := r.Histogram("h").Snapshot()
	if h.Count != 3 || h.Sum != 111 || h.Min != 1 || h.Max != 100 {
		t.Fatalf("histogram: %+v", h)
	}
}

// TestTimeObservesSteppedElapsed: Time reads the clock exactly twice,
// so under a step clock every timed operation observes exactly one
// step.
func TestTimeObservesSteppedElapsed(t *testing.T) {
	step := 250 * time.Microsecond
	r := New(newStepClock(step).Now)
	for i := 0; i < 4; i++ {
		stop := r.Time("op_us")
		stop()
	}
	h := r.Histogram("op_us").Snapshot()
	if h.Count != 4 {
		t.Fatalf("timed ops: %d, want 4", h.Count)
	}
	want := step.Microseconds()
	if h.Min != want || h.Max != want {
		t.Fatalf("observed [%d, %d]µs, want exactly %dµs per op", h.Min, h.Max, want)
	}
}

// TestSnapshotDeterministic: two registries fed the same events under
// the same clock marshal to identical bytes, with rows sorted by name
// regardless of creation order.
func TestSnapshotDeterministic(t *testing.T) {
	build := func(names []string) []byte {
		r := New(newStepClock(time.Millisecond).Now)
		for _, n := range names {
			r.Counter(n).Inc()
		}
		r.Histogram("a.hist").Observe(42)
		stop := r.Time("b.timer")
		stop()
		data, err := json.Marshal(r.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a := build([]string{"b", "a", "c"})
	b := build([]string{"c", "b", "a"})
	if string(a) != string(b) {
		t.Fatalf("snapshots diverged:\n%s\n%s", a, b)
	}
	var s Snapshot
	if err := json.Unmarshal(a, &s); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(s.Counters); i++ {
		if s.Counters[i-1].Name >= s.Counters[i].Name {
			t.Fatalf("counters not sorted: %v", s.Counters)
		}
	}
}

// TestSnapshotAccessors: lookups on present and absent names.
func TestSnapshotAccessors(t *testing.T) {
	r := New(newStepClock(time.Second).Now)
	r.Counter("n").Add(10)
	s := r.Snapshot() // one clock read: elapsed = 1s beyond construction... exactly one step
	if s.ElapsedUS != time.Second.Microseconds() {
		t.Fatalf("elapsed %dµs, want one step", s.ElapsedUS)
	}
	if s.Counter("n") != 10 || s.Counter("missing") != 0 {
		t.Fatalf("counter accessor: %+v", s.Counters)
	}
	if h := s.Histogram("missing"); h.Count != 0 {
		t.Fatal("absent histogram should be zero")
	}
	if got, want := s.PerSec("n"), 10.0; got != want {
		t.Fatalf("rate %.1f/s, want %.1f", got, want)
	}
}

// TestPerSecZeroElapsed: no elapsed time yields 0, not a division
// blow-up.
func TestPerSecZeroElapsed(t *testing.T) {
	s := Snapshot{Counters: []CounterValue{{Name: "n", Value: 5}}}
	if got := s.PerSec("n"); got != 0 {
		t.Fatalf("rate with zero elapsed: %f", got)
	}
}

// TestRegistryConcurrency: concurrent metric traffic on a shared
// registry is safe (run under make race).
func TestRegistryConcurrency(t *testing.T) {
	r := New(nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				r.Counter("shared").Inc()
				r.Histogram("h").Observe(int64(j))
				stop := r.Time("t")
				stop()
			}
		}()
	}
	for i := 0; i < 20; i++ {
		_ = r.Snapshot()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8*200 {
		t.Fatalf("shared counter: %d, want %d", got, 8*200)
	}
}

// TestHistogramSnapshotIsolated: mutating the live histogram after
// Snapshot must not leak into the copy.
func TestHistogramSnapshotIsolated(t *testing.T) {
	r := New(nil)
	r.Histogram("h").Observe(1)
	snap := r.Histogram("h").Snapshot()
	r.Histogram("h").Observe(1 << 20)
	if snap.Count != 1 || snap.Max != 1 {
		t.Fatalf("snapshot mutated by later observes: %+v", snap)
	}
}
