package fleet

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fetchphi/internal/harness"
	"fetchphi/internal/memsim"
)

// leaseBody is a lease response holding one lease of the CC wave at
// depth, over [lo, hi), with the given raw JSON schedules.
func leaseBody(depth, lo, hi int, schedules string) []byte {
	return []byte(fmt.Sprintf(`{"status":"lease","lease":{"id":1,"model":"CC","depth":%d,"lo":%d,"hi":%d,"schedules":%s}}`, depth, lo, hi, schedules))
}

// TestWorkerRejectsMalformedLease: a worker checks a lease's schedules
// before it runs any, so a lease the coordinator could not have
// granted ends Run with an error naming the lease, and nothing is
// reported.
func TestWorkerRejectsMalformedLease(t *testing.T) {
	for _, tc := range []struct {
		name string
		body []byte
		want string
	}{
		{"too-few-pairs", leaseBody(1, 0, 3, `[1,1,2,1]`), "do not hold 3 schedules"},
		{"too-many-pairs", leaseBody(1, 0, 1, `[1,1,2,1]`), "do not hold 1 schedules"},
		{"proc-too-large", leaseBody(1, 0, 1, `[1,2]`), "outside [0,2)"},
		{"proc-negative", leaseBody(1, 0, 1, `[1,-1]`), "outside [0,2)"},
		{"step-negative", leaseBody(1, 0, 1, `[-4,1]`), "negative or out of order"},
		{"steps-not-increasing", leaseBody(2, 0, 1, `[5,1,5,0]`), "negative or out of order"},
		{"depth-beyond-bound", leaseBody(3, 0, 1, `[1,1,2,0,3,1]`), "outside the campaign's [0,2]"},
		{"root-wave-of-many", leaseBody(0, 0, 1000000000, `null`), "root schedule alone"},
		{"range-reversed", leaseBody(1, 5, 2, `[]`), "not within a wave"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reports, err := runStubWorker(t, tc.body, 1)
			if err == nil || !strings.Contains(err.Error(), "lease 1 for range") || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Run returned %v, want an error about lease 1 containing %q", err, tc.want)
			}
			if reports != 0 {
				t.Fatalf("%d reports sent for a rejected lease", reports)
			}
		})
	}
	// A lease body that does not decode, such as an odd number of
	// schedule words, is retried like a lost response: the stub then
	// answers done, and nothing ran.
	if reports, err := runStubWorker(t, leaseBody(1, 0, 1, `[1]`), 1); err != nil || reports != 0 {
		t.Fatalf("undecodable lease: Run returned %v after %d reports, want nil after none", err, reports)
	}
	// The control: well-formed leases are run and reported.
	for _, body := range [][]byte{leaseBody(0, 0, 1, `null`), leaseBody(1, 0, 2, `[1,1,2,1]`), leaseBody(2, 4, 5, `[1,1,3,0]`)} {
		if reports, err := runStubWorker(t, body, 1); err != nil || reports != 1 {
			t.Fatalf("lease %s: Run returned %v after %d reports, want nil after 1", body, err, reports)
		}
	}
}

// TestWorkerReturnsReplayDivergence: a lease whose schedule forces a
// switch to a process that has already finished diverges from every
// run of the machine. The worker's Run returns that as an error,
// sends no report, and leaves no goroutine behind, sequential and
// sharded.
func TestWorkerReturnsReplayDivergence(t *testing.T) {
	// Find the first step at which process 0 is not runnable in the
	// non-preemptive run: process 0 runs its passes first, so from
	// some step on only process 1 is left.
	e := harness.CheckExplorer(newTASLock, memsim.CC, 2, 2, harness.ExploreOptions{Preemptions: 2})
	step := int64(-1)
	for s := int64(1); s < 200 && step < 0; s++ {
		if _, err := e.RunScheduleRange(memsim.Wave{Depth: 1, Len: 1, Slab: []memsim.Preemption{{Step: s, Proc: 0}}}); err != nil {
			if !strings.Contains(err.Error(), "schedule replay diverged") {
				t.Fatalf("step %d: %v", s, err)
			}
			step = s
		}
	}
	if step < 0 {
		t.Fatal("no step of the non-preemptive run leaves process 0 unrunnable")
	}
	// Schedule 1 diverges; schedules 0 and 2 are fine.
	body := leaseBody(1, 0, 3, fmt.Sprintf(`[1,1,%d,0,%d,1]`, step, step+1))
	for _, shards := range []int{1, 3} {
		before := runtime.NumGoroutine()
		reports, err := runStubWorker(t, body, shards)
		if err == nil || !strings.Contains(err.Error(), "schedule replay diverged") || !strings.Contains(err.Error(), "lease 1 for range [0,3)") {
			t.Fatalf("shards=%d: Run returned %v, want the lease's replay divergence", shards, err)
		}
		if reports != 0 {
			t.Fatalf("shards=%d: %d reports sent for a diverging lease", shards, reports)
		}
		awaitGoroutines(t, before, fmt.Sprintf("worker at %d shards after a divergence", shards))
	}
}

// awaitGoroutines waits up to a second for the goroutine count to drop
// to at most max, and fails the test naming what leaked if it does not.
// It is internal/memsim's machine_test.go helper of the same name; a
// package for the two would be a non-test package of test code.
func awaitGoroutines(t *testing.T, max int, what string) {
	t.Helper()
	for wait := 0; wait < 1000; wait++ {
		if runtime.NumGoroutine() <= max {
			return
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("%s: goroutines leaked: %d, want at most %d", what, runtime.NumGoroutine(), max)
}

// TestCheckReturnsReplayDivergence: a Build that differs between runs
// makes some child of the root diverge on replay. The worker that
// leases it fails, and Check ends with that worker's error instead of
// waiting forever for a range no worker can report.
func TestCheckReturnsReplayDivergence(t *testing.T) {
	// The root schedule runs on a lock that blocks process 0 until
	// process 1 is through, so its last children preempt back to
	// process 0 late in the run. Every schedule after it runs on a
	// lock that never blocks, where process 0 runs first and is done
	// by then.
	var builds atomic.Int64
	diverging := func(m *memsim.Machine) harness.Algorithm {
		if builds.Add(1) == 1 {
			return &oneThenZero{done: m.NewVar("seq.done", memsim.HomeGlobal, 0), entries: memsim.Word(testConfig().Entries)}
		}
		return newBrokenLock(m)
	}
	before := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() {
		_, err := Check(diverging, testConfig(), CheckOptions{Workers: 2})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "schedule replay diverged") {
			t.Fatalf("Check returned %v, want the replay divergence", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Check of a diverging build did not return within 10s")
	}
	awaitGoroutines(t, before, "Check after a divergence")
}

// oneThenZero is a two-process mutex that lets process 1 through every
// passage before process 0 enters at all.
type oneThenZero struct {
	done     memsim.Var
	entries  memsim.Word
	released memsim.Word
}

func (s *oneThenZero) Name() string { return "one-then-zero-test" }

func (s *oneThenZero) Acquire(p *memsim.Proc) {
	if p.ID() == 0 {
		p.AwaitEq(s.done, s.entries)
	}
}

func (s *oneThenZero) Release(p *memsim.Proc) {
	if p.ID() == 1 {
		s.released++
		p.Write(s.done, s.released)
	}
}
