package stress

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// stepClock returns a goroutine-safe fake clock advancing one step per
// read — the determinism fixture: under it a closed-loop run's elapsed
// time is an exact function of the acquisition count.
func stepClock(step time.Duration) func() time.Time {
	var n atomic.Int64
	base := time.Unix(0, 0)
	return func() time.Time { return base.Add(time.Duration(n.Add(1)-1) * step) }
}

// mustFind fetches a zoo case by name.
func mustFind(t *testing.T, name string) Case {
	t.Helper()
	c, ok := Find(name)
	if !ok {
		t.Fatalf("case %q not in zoo", name)
	}
	return c
}

// TestClosedLoopDeterministicShapes pins the deterministic-shape
// contract: under a step clock a closed-loop run's sample counts,
// window count, and elapsed time are exact functions of the
// configuration — 1 tracker-start read plus 3 reads per acquisition
// plus 1 finish read.
func TestClosedLoopDeterministicShapes(t *testing.T) {
	const (
		workers = 4
		iters   = 50
		window  = 40
		step    = time.Millisecond
	)
	res, err := Run(mustFind(t, "mutex"), Config{
		Workers: workers, Iters: iters, WindowOps: window,
		Now: stepClock(step),
	})
	if err != nil {
		t.Fatal(err)
	}
	total := int64(workers * iters)
	if res.Ops != total {
		t.Errorf("Ops = %d, want %d", res.Ops, total)
	}
	if res.AcquireNS.Count != total {
		t.Errorf("AcquireNS.Count = %d, want %d", res.AcquireNS.Count, total)
	}
	// Every acquisition except the very first follows a release.
	if res.HandoffNS.Count != total-1 {
		t.Errorf("HandoffNS.Count = %d, want %d", res.HandoffNS.Count, total-1)
	}
	if res.HoldNS.Count != total {
		t.Errorf("HoldNS.Count = %d, want %d", res.HoldNS.Count, total)
	}
	var sum int64
	for _, ops := range res.PerWorkerOps {
		sum += ops
	}
	if len(res.PerWorkerOps) != workers || sum != total {
		t.Errorf("PerWorkerOps = %v (sum %d), want %d workers summing %d", res.PerWorkerOps, sum, workers, total)
	}
	if want := int((total + window - 1) / window); len(res.WindowRates) != want {
		t.Errorf("WindowRates has %d windows, want %d", len(res.WindowRates), want)
	}
	for k, rate := range res.WindowRates {
		if rate <= 0 {
			t.Errorf("window %d rate = %f, want > 0", k, rate)
		}
	}
	// Counted clock reads: 3 per acquisition + 1 at finish, measured
	// from the tracker-start read.
	if want := int64(3*total+1) * int64(step); res.ElapsedNS != want {
		t.Errorf("ElapsedNS = %d, want exactly %d (counted clock-read discipline)", res.ElapsedNS, want)
	}
	if res.JainIndex <= 0 || res.JainIndex > 1 {
		t.Errorf("JainIndex = %f, want in (0,1]", res.JainIndex)
	}
	if res.MinWindowJain <= 0 || res.MinWindowJain > 1 {
		t.Errorf("MinWindowJain = %f, want in (0,1]", res.MinWindowJain)
	}
	if res.MinWindowJain > res.JainIndex+1e-9 && res.JainIndex < 1 {
		// The windowed minimum can exceed the overall index only when
		// per-window balance beats the totals; with complete windows it
		// stays a minimum, so just sanity-check the range above.
		t.Logf("MinWindowJain %f > JainIndex %f", res.MinWindowJain, res.JainIndex)
	}
	if res.WindowOps != window {
		t.Errorf("WindowOps = %d, want %d", res.WindowOps, window)
	}
}

// TestRegistryShape: the per-run registry's metric names are a fixed,
// sorted function of the worker count.
func TestRegistryShape(t *testing.T) {
	var tr *Tracker
	_, err := Run(mustFind(t, "ticket"), Config{
		Workers: 2, Iters: 10, Now: stepClock(time.Microsecond),
		OnTracker: func(x *Tracker) { tr = x },
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr == nil {
		t.Fatal("OnTracker not called")
	}
	snap := tr.Registry().Snapshot()
	var names []string
	for _, h := range snap.Histograms {
		names = append(names, h.Name)
	}
	want := []string{
		"stress.w0.acquire_ns", "stress.w0.handoff_ns", "stress.w0.hold_ns",
		"stress.w1.acquire_ns", "stress.w1.handoff_ns", "stress.w1.hold_ns",
	}
	if len(names) != len(want) {
		t.Fatalf("histogram names = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("histogram names = %v, want %v", names, want)
		}
	}
}

// TestOpenLoop: arrivals are paced by the run clock and latency is
// measured from the scheduled arrival.
func TestOpenLoop(t *testing.T) {
	res, err := Run(mustFind(t, "mutex"), Config{
		Workers: 2, Iters: 20, Rate: 1000,
		Now: stepClock(time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 40 {
		t.Errorf("Ops = %d, want 40", res.Ops)
	}
	if res.Rate != 1000 {
		t.Errorf("Rate = %f, want 1000", res.Rate)
	}
	if res.AcquireNS.Count != 40 {
		t.Errorf("AcquireNS.Count = %d, want 40", res.AcquireNS.Count)
	}
}

// TestLiveSnapshotDuringRun drives Snapshot concurrently with a run —
// the -watch path — and checks the mid-run views are sane.
func TestLiveSnapshotDuringRun(t *testing.T) {
	done := make(chan struct{})
	polled := make(chan Progress, 64)
	_, err := Run(mustFind(t, "mcs"), Config{
		Workers: 4, Iters: 500,
		OnTracker: func(tr *Tracker) {
			go func() {
				for {
					select {
					case <-done:
						return
					default:
						p := tr.Snapshot()
						select {
						case polled <- p:
						default:
						}
					}
				}
			}()
		},
	})
	close(done)
	if err != nil {
		t.Fatal(err)
	}
	for len(polled) > 0 {
		p := <-polled
		if p.Ops < 0 || p.Ops > 2000 {
			t.Errorf("live Ops = %d, want 0..2000", p.Ops)
		}
		if p.AcquireNS.Count > p.Ops {
			t.Errorf("live AcquireNS.Count %d > Ops %d", p.AcquireNS.Count, p.Ops)
		}
	}
}

// TestMutualExclusionViolation: a "lock" that runs the body twice per
// acquisition is caught by the lost-update check.
func TestMutualExclusionViolation(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("deliberately violates mutual exclusion; the race detector (correctly) flags the unprotected state")
	}
	broken := Case{Name: "double", Make: func(int) CS {
		return func(_ int, body func()) { body(); body() }
	}}
	_, err := Run(broken, Config{Workers: 2, Iters: 10, Now: stepClock(time.Microsecond)})
	if err == nil || !strings.Contains(err.Error(), "lost updates") {
		t.Fatalf("err = %v, want lost-updates failure", err)
	}
}

// TestConfigValidation: zero workers/iters and negative knobs are
// usage errors.
func TestConfigValidation(t *testing.T) {
	c := mustFind(t, "mutex")
	for _, cfg := range []Config{
		{Workers: 0, Iters: 1},
		{Workers: 1, Iters: 0},
		{Workers: 1, Iters: 1, CSWork: -1},
		{Workers: 1, Iters: 1, Rate: -1},
		{Workers: 1, Iters: 1, WindowOps: -1},
	} {
		if _, err := Run(c, cfg); err == nil {
			t.Errorf("Run(%+v) succeeded, want error", cfg)
		}
	}
}

// TestJain pins the fairness index on known distributions.
func TestJain(t *testing.T) {
	for _, tc := range []struct {
		xs   []int64
		want float64
	}{
		{[]int64{5, 5, 5, 5}, 1.0},
		{[]int64{8, 0, 0, 0}, 0.25},
		{[]int64{}, 0},
		{[]int64{0, 0}, 0},
	} {
		if got := jain(tc.xs); got < tc.want-1e-9 || got > tc.want+1e-9 {
			t.Errorf("jain(%v) = %f, want %f", tc.xs, got, tc.want)
		}
	}
}

// TestWindowOpsDefault pins the auto window size: total/16 clamped to
// at least 2·Workers.
func TestWindowOpsDefault(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want int64
	}{
		{Config{Workers: 4, Iters: 4}, 8},               // total 16 → 1, clamped to 2·4
		{Config{Workers: 4, Iters: 1000}, 250},          // total 4000 / 16
		{Config{Workers: 1, Iters: 1}, 2},               // clamp floor
		{Config{Workers: 2, Iters: 8, WindowOps: 3}, 3}, // explicit wins
	} {
		if got := tc.cfg.windowOps(); got != tc.want {
			t.Errorf("windowOps(%+v) = %d, want %d", tc.cfg, got, tc.want)
		}
	}
}

// TestZooRuns drives every case in the zoo through a short contended
// run; Run's internal lost-update check doubles as the mutual
// exclusion assertion.
func TestZooRuns(t *testing.T) {
	for _, c := range Cases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			res, err := Run(c, Config{Workers: 3, Iters: 80, CSWork: 4})
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops != 240 {
				t.Errorf("Ops = %d, want 240", res.Ops)
			}
			if res.AcquireNS.Count != 240 || res.OpsPerSec() <= 0 {
				t.Errorf("AcquireNS.Count = %d, OpsPerSec = %f", res.AcquireNS.Count, res.OpsPerSec())
			}
		})
	}
}

// TestFindAndNames: lookup is case-insensitive and Names covers the
// whole zoo.
func TestFindAndNames(t *testing.T) {
	if _, ok := Find("MCS"); !ok {
		t.Error("Find(MCS) failed")
	}
	if _, ok := Find("nope"); ok {
		t.Error("Find(nope) succeeded")
	}
	names := Names()
	if len(names) != len(Cases()) {
		t.Errorf("Names() has %d entries, want %d", len(names), len(Cases()))
	}
	for _, want := range []string{"mutex", "tas", "ttas", "ticket", "anderson", "clh", "mcs", "gt", "generic-inc", "generic-swap", "peterson-tree"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("zoo missing %q", want)
		}
	}
}

// TestArtifactRow: the obs row carries the result's headline numbers.
func TestArtifactRow(t *testing.T) {
	res, err := Run(mustFind(t, "ticket"), Config{
		Workers: 2, Iters: 100, WindowOps: 50, Now: stepClock(time.Microsecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	row := res.ArtifactRow()
	if row.Lock != "ticket" || row.Workers != 2 || row.Ops != 200 {
		t.Errorf("row = %+v", row)
	}
	if row.AcquireP99NS < row.AcquireP50NS {
		t.Errorf("p99 %d < p50 %d", row.AcquireP99NS, row.AcquireP50NS)
	}
	if row.OpsPerSec <= 0 || row.ElapsedMS <= 0 {
		t.Errorf("OpsPerSec = %f, ElapsedMS = %f", row.OpsPerSec, row.ElapsedMS)
	}
	if row.AcquireNS.Count != 200 || len(row.PerWorkerOps) != 2 {
		t.Errorf("row histograms/per-worker wrong: %+v", row)
	}
}
