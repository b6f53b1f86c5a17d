package memsim_test

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"sync"
	"testing"

	"fetchphi/internal/core"
	"fetchphi/internal/experiments"
	"fetchphi/internal/harness"
	"fetchphi/internal/memsim"
	"fetchphi/internal/phi"
)

// recycleCase is one build of TestRecycledMachineMatchesFresh: G-DSM,
// or its abortable form under an abort schedule, on a model and size,
// observed through a sink, a trace ring, both or neither. A stuck case
// adds a passage that deadlocks, so the run ends with a process in its
// entry section and a WaitingDetail.
type recycleCase struct {
	model         memsim.Model
	n             int
	sink, trace   bool
	aborts, stuck bool
}

func (c recycleCase) String() string {
	return fmt.Sprintf("%v/N=%d/sink=%t/trace=%t/aborts=%t/stuck=%t", c.model, c.n, c.sink, c.trace, c.aborts, c.stuck)
}

// observed is everything a run shows of its machine.
type observed struct {
	res    memsim.Result
	hot    []memsim.VarRMR
	events []string // sink stream: operations and phase transitions
	trace  []memsim.TraceEvent
}

// eventLog is a PhaseSink that keeps both streams as text.
type eventLog struct{ lines []string }

func (l *eventLog) Record(ev memsim.TraceEvent) { l.lines = append(l.lines, ev.String()) }
func (l *eventLog) RecordPhase(ev memsim.PhaseEvent) {
	l.lines = append(l.lines, fmt.Sprintf("[%06d] p%d %v -> %v", ev.Step, ev.Proc, ev.From, ev.To))
}

// run builds the case's machine, runs it with the given seed, and
// returns what it showed along with the machine, which the caller
// releases or not.
func (c recycleCase) run(t *testing.T, seed int64) (observed, *memsim.Machine) {
	m := memsim.NewMachine(c.model, c.n)
	prim := phi.FetchAndIncrement{}
	var acquire func(p *memsim.Proc) bool
	var release func(p *memsim.Proc)
	if c.aborts {
		alg := core.NewGDSMAbortable(m, prim)
		acquire, release = alg.AcquireAbortable, alg.Release
		m.ScheduleAborts(memsim.AbortPoint{Proc: 0, Passage: 0, Event: 1}, memsim.AbortPoint{Proc: 1, Passage: 1, Event: 3})
	} else {
		alg := core.NewGDSM(m, prim)
		acquire = func(p *memsim.Proc) bool { alg.Acquire(p); return true }
		release = alg.Release
	}
	stuck := m.NewDict("stuck", memsim.HomeGlobal, 0)
	for i := 0; i < c.n; i++ {
		m.AddProc(fmt.Sprintf("p%d", i), func(p *memsim.Proc) {
			for e := 0; e < 2; e++ {
				p.BeginEntrySection()
				if !acquire(p) {
					p.AbortPassage()
					continue
				}
				p.EnterCS()
				p.ExitCS()
				release(p)
				p.EndExitSection()
			}
			if c.stuck && p.ID() == c.n-1 {
				p.BeginEntrySection()
				p.AwaitTrue(stuck.At(3))
			}
		})
	}
	log := &eventLog{}
	if c.sink {
		m.AttachSink(log)
	}
	if c.trace {
		m.EnableTrace(16)
	}
	res := m.Run(memsim.RunConfig{Sched: memsim.NewRandom(seed)})
	if err := res.Err(); err != nil && !c.stuck {
		t.Fatalf("%v: %v", c, err)
	}
	if c.stuck && !res.Deadlocked {
		t.Fatalf("%v: the stuck passage did not deadlock", c)
	}
	return observed{res: res, hot: m.HotVars(5), events: log.lines, trace: m.Trace()}, m
}

// TestRecycledMachineMatchesFresh runs a mixed sequence of builds
// (three models, N=2, 5, 70 and 130, the last two past the inline
// bitset word, whose sharer words Release keeps; with and without sinks, trace rings, abort points and a deadlocked
// passage) through build, run and Release, sequentially and on four
// goroutines, and checks that every run shows exactly what the same
// build shows on a never-recycled machine: its Result (statistics,
// WaitingDetail), HotVars, sink stream and trace.
func TestRecycledMachineMatchesFresh(t *testing.T) {
	var cases []recycleCase
	for _, n := range []int{70, 2, 130, 5} {
		for _, model := range []memsim.Model{memsim.CC, memsim.DSM, memsim.CCUpdate} {
			for v := 0; v < 4; v++ {
				cases = append(cases, recycleCase{
					model: model, n: n,
					sink:   v != 0,
					trace:  v == 2,
					aborts: v == 3,
					stuck:  v == 1 || (v == 3 && n != 2),
				})
			}
		}
	}
	// The references run on machines built while the free list is
	// empty and never released, so none of them is recycled.
	memsim.DropReleasedMachines()
	want := make([]observed, len(cases))
	for i, c := range cases {
		want[i], _ = c.run(t, int64(i))
	}
	// Run the list forward and back, so machines grown at N=70 serve
	// N=2 and N=130 builds and the other way round.
	order := make([]int, 0, 2*len(cases))
	for i := range cases {
		order = append(order, i)
	}
	for i := len(cases) - 1; i >= 0; i-- {
		order = append(order, i)
	}
	for _, workers := range []int{1, 4} {
		next := make(chan int)
		var wg sync.WaitGroup
		var mu sync.Mutex
		var diffs []string
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					got, m := cases[i].run(t, int64(i))
					d := diff(got, want[i]) // before Release: Result.Procs is machine storage
					m.Release()
					if d != "" {
						mu.Lock()
						diffs = append(diffs, fmt.Sprintf("workers=%d %v: %s", workers, cases[i], d))
						mu.Unlock()
					}
				}
			}()
		}
		for _, i := range order {
			next <- i
		}
		close(next)
		wg.Wait()
		for _, d := range diffs {
			t.Error(d)
		}
		if n := memsim.ReleasedMachines(); n < 1 || n > workers {
			t.Errorf("workers=%d: %d machines on the free list, want 1..%d", workers, n, workers)
		}
	}
}

// diff names the first part of got that differs from want.
func diff(got, want observed) string {
	switch {
	case !reflect.DeepEqual(got.res, want.res):
		g, w := reflect.ValueOf(got.res), reflect.ValueOf(want.res)
		for i := range g.NumField() {
			if !reflect.DeepEqual(g.Field(i).Interface(), w.Field(i).Interface()) {
				return fmt.Sprintf("Result.%s %v, want %v", g.Type().Field(i).Name, g.Field(i), w.Field(i))
			}
		}
	case !reflect.DeepEqual(got.hot, want.hot):
		return fmt.Sprintf("HotVars %v, want %v", got.hot, want.hot)
	case !reflect.DeepEqual(got.events, want.events):
		return fmt.Sprintf("sink stream of %d events differs from the fresh machine's %d", len(got.events), len(want.events))
	case !reflect.DeepEqual(got.trace, want.trace):
		return fmt.Sprintf("trace %v, want %v", got.trace, want.trace)
	}
	return ""
}

// registryCase is one run of TestRecycledRegistryMatchesFresh: a
// registered algorithm on a model and size, and for an abortable one
// an abort schedule.
type registryCase struct {
	name   string
	build  harness.Builder
	model  memsim.Model
	n      int
	aborts []memsim.AbortPoint
}

func (c registryCase) String() string {
	return fmt.Sprintf("%s/%v/N=%d/aborts=%d", c.name, c.model, c.n, len(c.aborts))
}

// registryRun is what a registry case shows: the harness metrics
// (Result, hot variables, histograms) and its sink stream, every
// operation and phase transition with its variable's label, hashed.
type registryRun struct {
	met    harness.Metrics
	events int
	digest uint64
}

func (c registryCase) run(t *testing.T) registryRun {
	t.Helper()
	var log eventLog
	met, err := harness.Run(c.build, harness.Workload{
		Model: c.model, N: c.n, Entries: 2, CSOps: 1, Seed: int64(c.n),
		Sink: &log, Aborts: c.aborts, Retries: 1, RetryDelay: 1,
	})
	if err != nil {
		t.Fatalf("%v: %v", c, err)
	}
	h := fnv.New64a()
	for _, line := range log.lines {
		h.Write([]byte(line))
		h.Write([]byte{'\n'})
	}
	return registryRun{met: met, events: len(log.lines), digest: h.Sum64()}
}

// TestRecycledRegistryMatchesFresh runs every registered algorithm and
// every abortable one (under an abort schedule that withdraws each
// process's first passage), on CC and DSM at N=2, 3 and 70, first each
// on a never-recycled machine, then through harness.Run on recycled
// ones, the list forward and then backward: so algorithm objects,
// mutexes, sites, Dicts and arrays that one algorithm or size grew in
// a machine's storage serve another. Each recycled run must show what
// the fresh one did: its metrics and its labelled event stream.
func TestRecycledRegistryMatchesFresh(t *testing.T) {
	var cases []registryCase
	add := func(names []string, lookup func(string) (harness.Builder, error), abort bool) {
		for _, name := range names {
			b, err := lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{2, 3, 70} {
				var aborts []memsim.AbortPoint
				for p := 0; abort && p < n; p++ {
					aborts = append(aborts, memsim.AbortPoint{Proc: p, Passage: 0, Event: 1})
				}
				for _, model := range []memsim.Model{memsim.CC, memsim.DSM} {
					cases = append(cases, registryCase{name: name, build: b, model: model, n: n, aborts: aborts})
				}
			}
		}
	}
	add(experiments.AlgorithmNames(), experiments.Algorithm, false)
	add(experiments.AbortableAlgorithmNames(), experiments.AbortableAlgorithm, true)

	want := make([]registryRun, len(cases))
	for i, c := range cases {
		memsim.DropReleasedMachines() // so the run builds a new machine
		want[i] = c.run(t)
	}
	order := make([]int, 0, 2*len(cases))
	for i := range cases {
		order = append(order, i)
	}
	for i := len(cases) - 1; i >= 0; i-- {
		order = append(order, i)
	}
	for _, i := range order {
		got := cases[i].run(t)
		switch {
		case got.events != want[i].events || got.digest != want[i].digest:
			t.Errorf("%v: %d events (digest %x) on a recycled machine, %d (digest %x) on a fresh one",
				cases[i], got.events, got.digest, want[i].events, want[i].digest)
		case !reflect.DeepEqual(got.met, want[i].met):
			t.Errorf("%v: metrics on a recycled machine differ from a fresh one's:\n got %+v\nwant %+v",
				cases[i], got.met, want[i].met)
		}
	}
}

// TestReleaseTwicePanics checks that a second Release of one machine
// panics instead of listing it twice, which would hand it to two
// owners.
func TestReleaseTwicePanics(t *testing.T) {
	m := memsim.NewMachine(memsim.CC, 2)
	m.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
		if a, b := memsim.NewMachine(memsim.CC, 2), memsim.NewMachine(memsim.CC, 2); a == b {
			t.Fatal("two owners got the same machine")
		}
	}()
	m.Release()
}
