package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fetchphi/internal/harness"
	"fetchphi/internal/obs"
	"fetchphi/internal/telemetry"
)

// stepClock is the telemetry clock for determinism tests: it advances a
// fixed amount per read, so every duration in the capacity artifact is
// a pure function of the campaign's clock-read count — which the
// coordinator keeps independent of worker count.
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

// TestFleetCapacityByteIdentical is the capacity-artifact half of the
// determinism contract: the same campaign under the same (step)
// telemetry clock writes byte-identical fetchphi.capacity/v2 artifacts
// at every worker count. Per-worker metrics stay in the registry — if
// they ever leaked into the artifact, this test would catch it, because
// worker IDs and lease assignment differ across the runs.
func TestFleetCapacityByteIdentical(t *testing.T) {
	dir := t.TempDir()
	run := func(workers int) []byte {
		path := filepath.Join(dir, fmt.Sprintf("cap-w%d.json", workers))
		coord := NewCoordinator(testConfig(), CoordinatorOptions{
			LeaseSize:    5,
			CapacityPath: path,
			CreatedBy:    "determinism-test",
			Metrics:      telemetry.New(newStepClock(time.Millisecond).Now),
		})
		if _, err := CheckWith(coord, newTASLock, CheckOptions{Workers: workers}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	ref := run(1)
	for _, workers := range []int{2, 4} {
		if got := run(workers); string(got) != string(ref) {
			t.Errorf("capacity artifact diverged at workers=%d:\n--- workers=1\n%s\n--- workers=%d\n%s", workers, ref, workers, got)
		}
	}

	art, err := obs.ReadCapacityArtifact(filepath.Join(dir, "cap-w1.json"))
	if err != nil {
		t.Fatal(err)
	}
	switch {
	case !art.Complete:
		t.Error("final capacity artifact not marked Complete")
	case art.Schedules <= 0 || art.Waves <= 0:
		t.Errorf("empty campaign recorded: %d schedules, %d waves", art.Schedules, art.Waves)
	case art.Leases <= 0:
		t.Error("no leases recorded — the fleet path did not run")
	case art.SchedulesPerSec <= 0:
		t.Error("step clock produced zero throughput")
	case art.WaveUS.Count != art.Waves:
		t.Errorf("wave histogram has %d samples for %d waves", art.WaveUS.Count, art.Waves)
	}
}

// TestFleetCapacityByteIdenticalAfterWorkerLoss extends the contract to
// the failure path: a zombie claims the root lease and dies, the lease
// clock is advanced past its deadline exactly once, and healthy workers
// drain the campaign. The re-lease is then deterministic (exactly one
// expired lease ever exists), so the capacity artifact — re-lease
// counters included — stays byte-identical at every healthy-worker
// count.
func TestFleetCapacityByteIdenticalAfterWorkerLoss(t *testing.T) {
	ref, refErr := refReports(t, newTASLock)
	dir := t.TempDir()

	run := func(workers int) []byte {
		path := filepath.Join(dir, fmt.Sprintf("loss-w%d.json", workers))
		leaseClock := &fakeClock{}
		coord := NewCoordinator(testConfig(), CoordinatorOptions{
			LeaseSize:    3,
			LeaseTimeout: time.Second,
			Hold:         time.Millisecond,
			Now:          leaseClock.now,
			CapacityPath: path,
			CreatedBy:    "determinism-test",
			Metrics:      telemetry.New(newStepClock(time.Millisecond).Now),
		})
		srv := httptest.NewServer(coord.Handler())
		defer srv.Close()
		go coord.Run()

		// The zombie claims the root wave's only lease and dies. Wait
		// polls don't touch the lease counters, so retrying until the
		// root wave is published cannot perturb the artifact.
		var lr LeaseResponse
		for i := 0; i < 5000 && lr.Status != StatusLease; i++ {
			postJSON(t, srv.URL+PathLease, LeaseRequest{Worker: "zombie"}, &lr)
			if lr.Status == StatusWait {
				time.Sleep(time.Millisecond)
			}
		}
		if lr.Status != StatusLease {
			t.Fatalf("zombie claim: %+v", lr)
		}

		// One clock step past the deadline: the zombie's lease is now
		// expired; every lease granted after this instant never expires
		// (the clock stays frozen), so exactly one re-lease happens
		// regardless of how many healthy workers race for it.
		leaseClock.advance(2 * time.Second)

		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			w := &Worker{
				ID:          fmt.Sprintf("h%d", i),
				Coordinator: srv.URL,
				Resolve:     func(string) (harness.Builder, error) { return newTASLock, nil },
				Poll:        time.Millisecond,
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = w.Run(ctx)
			}()
		}
		got, err := coord.Wait()
		wg.Wait()
		assertBitIdentical(t, fmt.Sprintf("after loss, workers=%d", workers), got, ref, err, refErr)

		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	base := run(1)
	for _, workers := range []int{2, 4} {
		if got := run(workers); string(got) != string(base) {
			t.Errorf("capacity artifact diverged at workers=%d:\n--- workers=1\n%s\n--- workers=%d\n%s", workers, base, workers, got)
		}
	}

	art, err := obs.ReadCapacityArtifact(filepath.Join(dir, "loss-w1.json"))
	if err != nil {
		t.Fatal(err)
	}
	if art.ReLeases != 1 {
		t.Errorf("re-leases: %d, want exactly 1 (the zombie's range)", art.ReLeases)
	}
	if art.StaleReports != 0 {
		t.Errorf("stale reports: %d, want 0 (the zombie never reports)", art.StaleReports)
	}
}

// stubCoordinator answers the config probe, then fails the first
// `failures` lease calls with a 503, answers the next `waits` with
// StatusWait and every later one with StatusDone — the smallest server
// that exercises the worker's retry and wait paths. It counts lease
// calls.
func stubCoordinator(t *testing.T, failures, waits int) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc(PathConfig, func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(testConfig())
	})
	mux.HandleFunc(PathLease, func(w http.ResponseWriter, r *http.Request) {
		n := int(calls.Add(1))
		switch {
		case n <= failures:
			http.Error(w, "injected fault: coordinator unavailable", http.StatusServiceUnavailable)
		case n <= failures+waits:
			json.NewEncoder(w).Encode(LeaseResponse{Status: StatusWait})
		default:
			json.NewEncoder(w).Encode(LeaseResponse{Status: StatusDone})
		}
	})
	return httptest.NewServer(mux), &calls
}

// stubRun runs a worker against a stub coordinator with an instant
// recording sleeper and returns the observed backoff delays, one per
// backoff sleep, and the number of lease calls.
func stubRun(t *testing.T, id string, failures, waits int, poll, maxBackoff time.Duration) ([]time.Duration, int64) {
	t.Helper()
	srv, calls := stubCoordinator(t, failures, waits)
	defer srv.Close()
	var delays []time.Duration
	w := &Worker{
		ID:          id,
		Coordinator: srv.URL,
		Resolve:     func(string) (harness.Builder, error) { return newTASLock, nil },
		Poll:        poll,
		Retries:     failures + 1,
		MaxBackoff:  maxBackoff,
		Sleep: func(ctx context.Context, d time.Duration) error {
			delays = append(delays, d)
			return nil
		},
	}
	if err := w.Run(context.Background()); err != nil {
		t.Fatalf("worker: %v", err)
	}
	return delays, calls.Load()
}

// TestWorkerBackoffHonorsRetryHint pins the transport-retry backoff:
// the worker's Poll is the base delay, each further failed attempt of
// one call doubles it up to MaxBackoff, and every delay is jittered
// within [d/2, d].
func TestWorkerBackoffHonorsRetryHint(t *testing.T) {
	poll := 40 * time.Millisecond
	maxBackoff := 100 * time.Millisecond
	delays, calls := stubRun(t, "backoff-worker", 4, 0, poll, maxBackoff)
	if len(delays) != 4 || calls != 5 {
		t.Fatalf("recorded %d backoffs over %d lease calls, want 4 over 5 (four failures, then done)", len(delays), calls)
	}
	for i, got := range delays {
		want := poll << i
		if want > maxBackoff {
			want = maxBackoff
		}
		if got < want/2 || got > want {
			t.Errorf("retry %d: slept %v, want jittered within [%v, %v]", i, got, want/2, want)
		}
	}
}

// TestWorkerBackoffDeterministicPerID: a worker's jitter seed derives
// from its ID, so the same ID replays the same retry backoff sequence
// while distinct IDs de-synchronize.
func TestWorkerBackoffDeterministicPerID(t *testing.T) {
	a1, _ := stubRun(t, "worker-a", 5, 0, 16*time.Millisecond, 64*time.Millisecond)
	a2, _ := stubRun(t, "worker-a", 5, 0, 16*time.Millisecond, 64*time.Millisecond)
	b, _ := stubRun(t, "worker-b", 5, 0, 16*time.Millisecond, 64*time.Millisecond)
	if fmt.Sprint(a1) != fmt.Sprint(a2) {
		t.Errorf("same ID replayed different delays:\n%v\n%v", a1, a2)
	}
	if fmt.Sprint(a1) == fmt.Sprint(b) {
		t.Errorf("distinct IDs produced identical jitter: %v", a1)
	}
}

// TestWorkerAsksAgainAfterWait: the coordinator answers StatusWait only
// after holding a request, so the worker asks again at once — no
// backoff sleep, whatever the streak of waits.
func TestWorkerAsksAgainAfterWait(t *testing.T) {
	delays, calls := stubRun(t, "waiting-worker", 0, 6, 40*time.Millisecond, time.Second)
	if len(delays) != 0 {
		t.Errorf("slept %v after wait answers, want no sleep", delays)
	}
	if calls != 7 {
		t.Errorf("%d lease calls, want 7 (six waits, then done)", calls)
	}
}
