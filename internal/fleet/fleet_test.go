package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fetchphi/internal/harness"
	"fetchphi/internal/memsim"
	"fetchphi/internal/obs"
	"fetchphi/internal/telemetry"
)

// tasLock is a trivially correct test-and-set mutex; brokenLock grants
// immediately without excluding anyone. Both mirror the harness test
// fixtures so fleet results can be compared against CheckSharded on a
// passing and a failing space.
type tasLock struct{ lock memsim.Var }

func newTASLock(m *memsim.Machine) harness.Algorithm {
	return &tasLock{lock: m.NewVar("tas.lock", memsim.HomeGlobal, 0)}
}

func (f *tasLock) Name() string { return "tas-test" }

func (f *tasLock) Acquire(p *memsim.Proc) {
	for {
		if p.RMW(f.lock, func(memsim.Word) memsim.Word { return 1 }) == 0 {
			return
		}
		p.AwaitEq(f.lock, 0)
	}
}

func (f *tasLock) Release(p *memsim.Proc) { p.Write(f.lock, 0) }

type brokenLock struct{}

func newBrokenLock(*memsim.Machine) harness.Algorithm { return brokenLock{} }

func (brokenLock) Name() string         { return "broken-test" }
func (brokenLock) Acquire(*memsim.Proc) {}
func (brokenLock) Release(*memsim.Proc) {}

// testConfig is the shared small campaign: both models, N=2, K=2.
func testConfig() Config {
	return Config{Algorithm: "test", N: 2, Entries: 2, Preemptions: 2}
}

// refReports runs the single-machine reference.
func refReports(t *testing.T, b harness.Builder) ([]harness.ModelReport, error) {
	t.Helper()
	return harness.CheckSharded(b, 2, 2, harness.ExploreOptions{Preemptions: 2, Workers: 1})
}

// assertBitIdentical checks the acceptance criterion: Runs, Exhausted,
// DepthRuns, and FailingSchedule bit-identical; errors
// message-identical (the wire erases the concrete error type).
func assertBitIdentical(t *testing.T, label string, got, ref []harness.ModelReport, gotErr, refErr error) {
	t.Helper()
	if (gotErr != nil) != (refErr != nil) {
		t.Fatalf("%s: verdict diverged: %v vs %v", label, gotErr, refErr)
	}
	if gotErr != nil && gotErr.Error() != refErr.Error() {
		t.Fatalf("%s: error %q, want %q", label, gotErr, refErr)
	}
	if len(got) != len(ref) {
		t.Fatalf("%s: %d reports, want %d", label, len(got), len(ref))
	}
	for i := range got {
		g, r := got[i], ref[i]
		if g.Model != r.Model || g.Result.Runs != r.Result.Runs ||
			g.Result.Exhausted != r.Result.Exhausted ||
			!reflect.DeepEqual(g.Result.DepthRuns, r.Result.DepthRuns) ||
			!reflect.DeepEqual(g.Result.FailingSchedule, r.Result.FailingSchedule) {
			t.Fatalf("%s: model %v diverged:\n got %+v\nwant %+v", label, g.Model, g.Result, r.Result)
		}
		if (g.Result.Err != nil) != (r.Result.Err != nil) ||
			(g.Result.Err != nil && g.Result.Err.Error() != r.Result.Err.Error()) {
			t.Fatalf("%s: model %v error %v, want %v", label, g.Model, g.Result.Err, r.Result.Err)
		}
	}
}

// TestCampaignHonorsMaxRuns: canonical-prefix truncation matches the
// explorer when the cap lands inside a wave.
func TestCampaignHonorsMaxRuns(t *testing.T) {
	for _, maxRuns := range []int{1, 2, 7, 50} {
		cfg := testConfig()
		cfg.MaxRuns = maxRuns
		ref, refErr := harness.CheckSharded(newTASLock, 2, 2, harness.ExploreOptions{Preemptions: 2, MaxRuns: maxRuns, Workers: 1})
		got, err := Check(newTASLock, cfg, CheckOptions{})
		assertBitIdentical(t, "capped campaign", got, ref, err, refErr)
	}
}

// TestCampaignHonorsPreemptionBound: the fleet reads the bound K as
// the explorer does, a negative one as 0.
func TestCampaignHonorsPreemptionBound(t *testing.T) {
	for _, k := range []int{-1, 0, 1} {
		cfg := testConfig()
		cfg.Preemptions = k
		ref, refErr := harness.CheckSharded(newBrokenLock, 2, 2, harness.ExploreOptions{Preemptions: k, Workers: 1})
		got, err := Check(newBrokenLock, cfg, CheckOptions{})
		assertBitIdentical(t, fmt.Sprintf("K=%d campaign", k), got, ref, err, refErr)
	}
}

// TestFleetEquivalence is the acceptance criterion: coordinator +
// {1,2,4} sequential workers, and 2 workers on every CPU, over loopback
// HTTP produce results bit-identical to single-machine CheckSharded, on
// a passing and a failing space, at a lease size small enough to force
// many leases per wave.
func TestFleetEquivalence(t *testing.T) {
	for _, fx := range []struct {
		name  string
		build harness.Builder
	}{{"correct", newTASLock}, {"broken", newBrokenLock}} {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			t.Parallel()
			ref, refErr := refReports(t, fx.build)
			// Shards 0 runs each worker's leases on GOMAXPROCS shards.
			for _, opts := range []CheckOptions{{Workers: 1, Shards: 1}, {Workers: 2, Shards: 1}, {Workers: 4, Shards: 1}, {Workers: 2, Shards: 0}} {
				coord := NewCoordinator(testConfig(), CoordinatorOptions{LeaseSize: 5})
				got, err := CheckWith(coord, fx.build, opts)
				assertBitIdentical(t, fmt.Sprintf("fleet workers=%d shards=%d", opts.Workers, opts.Shards), got, ref, err, refErr)
			}
		})
	}
}

// fakeClock is an injectable lease clock.
type fakeClock struct{ ns atomic.Int64 }

func (c *fakeClock) now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *fakeClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

// TestFleetWorkerLossReleases injects a worker death mid-lease: a
// zombie claims the first lease and never reports. The coordinator
// re-leases the range once its deadline passes (driven by a fake
// clock, so no wall-clock flakiness) and the final report stays
// bit-identical to the single-machine run.
func TestFleetWorkerLossReleases(t *testing.T) {
	ref, refErr := refReports(t, newTASLock)

	clock := &fakeClock{}
	coord := NewCoordinator(testConfig(), CoordinatorOptions{
		LeaseSize:    3,
		LeaseTimeout: time.Second,
		Hold:         time.Millisecond,
		Now:          clock.now,
	})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	go coord.Run()

	// The zombie claims the root wave's only lease and dies.
	var lr LeaseResponse
	postJSON(t, srv.URL+PathLease, LeaseRequest{Worker: "zombie"}, &lr)
	if lr.Status != StatusLease {
		t.Fatalf("zombie claim: %+v", lr)
	}

	// A healthy worker joins; everything the zombie holds is locked
	// until the deadline passes, so advance the clock until the
	// campaign drains. (The worker's own polling is real time; the
	// lease deadline is the fake clock.)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
				clock.advance(2 * time.Second)
			}
		}
	}()
	w := &Worker{
		ID:          "healthy",
		Coordinator: srv.URL,
		Resolve:     func(string) (harness.Builder, error) { return newTASLock, nil },
		Poll:        time.Millisecond,
	}
	if err := w.Run(ctx); err != nil {
		t.Fatalf("worker: %v", err)
	}
	got, err := coord.Wait()
	close(stop)
	assertBitIdentical(t, "after worker loss", got, ref, err, refErr)
	if coord.Metrics().Counter(MetricReLeases).Value() == 0 {
		t.Fatal("zombie's range was never re-leased")
	}
}

// droppingTransport forwards requests but returns a transport error
// for the first matching response — after the server has processed the
// request, exactly like a response lost in flight.
type droppingTransport struct {
	match   string
	dropped atomic.Bool
}

func (d *droppingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil && strings.Contains(req.URL.Path, d.match) && d.dropped.CompareAndSwap(false, true) {
		resp.Body.Close()
		return nil, errors.New("injected fault: response dropped in flight")
	}
	return resp, err
}

// TestFleetDroppedReportResponse: the coordinator processes a report
// but the response is lost. The worker retries, the duplicate is
// ignored idempotently, and the final result stays bit-identical.
func TestFleetDroppedReportResponse(t *testing.T) {
	ref, refErr := refReports(t, newTASLock)
	coord := NewCoordinator(testConfig(), CoordinatorOptions{LeaseSize: 5})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	go coord.Run()

	transport := &droppingTransport{match: PathReport}
	w := &Worker{
		ID:          "flaky-net",
		Coordinator: srv.URL,
		Resolve:     func(string) (harness.Builder, error) { return newTASLock, nil },
		Client:      &http.Client{Transport: transport},
		Poll:        time.Millisecond,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := w.Run(ctx); err != nil {
		t.Fatalf("worker: %v", err)
	}
	got, err := coord.Wait()
	assertBitIdentical(t, "after dropped response", got, ref, err, refErr)
	if !transport.dropped.Load() {
		t.Fatal("fault was never injected")
	}
	if coord.Metrics().Counter(MetricStaleReports).Value() == 0 {
		t.Fatal("the retried duplicate report never reached the coordinator")
	}
}

// TestFleetCheckpointResumeGolden is the SIGKILL-equivalence test: a
// coordinator stopped between waves (AfterWave abort — the checkpoint
// is already on disk, exactly like a kill after the atomic rename)
// and restarted from the artifact must (a) never re-explore a
// completed wave, proven by the first wave its Progress hook sees, and
// (b) produce a final artifact byte-identical to an uninterrupted
// run's.
func TestFleetCheckpointResumeGolden(t *testing.T) {
	ref, refErr := refReports(t, newTASLock)
	dir := t.TempDir()

	// Uninterrupted fleet run.
	fullPath := filepath.Join(dir, "full.json")
	fullCoord := NewCoordinator(testConfig(), CoordinatorOptions{
		LeaseSize: 5, CheckpointPath: fullPath, CreatedBy: "golden",
	})
	gotFull, errFull := CheckWith(fullCoord, newTASLock, CheckOptions{Workers: 2})
	assertBitIdentical(t, "uninterrupted fleet", gotFull, ref, errFull, refErr)

	// Interrupted run: stop the coordinator after the CC model has
	// completed two waves.
	resumePath := filepath.Join(dir, "resume.json")
	killed := errors.New("simulated coordinator kill")
	waves := 0
	coord1 := NewCoordinator(testConfig(), CoordinatorOptions{
		LeaseSize:      5,
		CheckpointPath: resumePath,
		CreatedBy:      "golden",
		AfterWave: func(model memsim.Model, depth int) error {
			waves++
			if waves >= 2 {
				return killed
			}
			return nil
		},
	})
	_, err := CheckWith(coord1, newTASLock, CheckOptions{Workers: 2})
	if !errors.Is(err, killed) {
		t.Fatalf("interrupted run ended with %v, want the injected kill", err)
	}
	ckpt, err := obs.ReadExploreArtifact(resumePath)
	if err != nil {
		t.Fatal(err)
	}
	if cc := ckpt.Models[0]; cc.Model != "CC" || cc.Pending == nil || cc.Pending.NextDepth != 2 {
		t.Fatalf("interrupted checkpoint's CC row %+v, want it pending at depth 2", cc)
	}

	// Restart from the artifact, recording the first wave it runs.
	first := map[memsim.Model]int{}
	coord2 := NewCoordinator(testConfig(), CoordinatorOptions{
		LeaseSize:      5,
		CheckpointPath: resumePath,
		CreatedBy:      "golden",
		Progress: func(model memsim.Model, p memsim.ExploreProgress) {
			if _, ok := first[model]; !ok {
				first[model] = p.Depth
			}
		},
	})
	got2, err2 := CheckWith(coord2, newTASLock, CheckOptions{Workers: 2})
	assertBitIdentical(t, "resumed fleet", got2, ref, err2, refErr)

	// The restarted coordinator's shallowest CC wave is the
	// checkpointed resume depth: no completed wave ran again.
	if d := first[memsim.CC]; d != 2 {
		t.Fatalf("restarted coordinator resumed CC at wave %d, want the checkpointed wave 2", d)
	}

	// Byte-for-byte: the resumed final artifact equals the
	// uninterrupted one.
	full, err := os.ReadFile(fullPath)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := os.ReadFile(resumePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full, resumed) {
		t.Fatalf("resumed artifact differs from uninterrupted run:\n--- full ---\n%s\n--- resumed ---\n%s", full, resumed)
	}
}

// TestCampaignRefusesForeignCheckpoint: resuming under a different
// configuration must fail loudly, not silently corrupt the merge, and
// before any lease is granted.
func TestCampaignRefusesForeignCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	cfg := testConfig()
	seed := NewCoordinator(cfg, CoordinatorOptions{CheckpointPath: path})
	if _, err := CheckWith(seed, newTASLock, CheckOptions{}); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Preemptions = 1
	coord := NewCoordinator(other, CoordinatorOptions{CheckpointPath: path})
	_, err := coord.Run()
	if err == nil || !strings.Contains(err.Error(), "refusing to resume") {
		t.Fatalf("foreign checkpoint accepted: %v", err)
	}
	if n := coord.Metrics().Counter(MetricLeases).Value(); n != 0 {
		t.Fatalf("refused checkpoint still granted %d leases", n)
	}
}

// TestStatusEndpoint: the status snapshot reflects completion and
// each worker's contact and copies no count, while /v1/metrics serves
// the registry's counts.
func TestStatusEndpoint(t *testing.T) {
	coord := NewCoordinator(testConfig(), CoordinatorOptions{LeaseSize: 5})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()
	got, err := CheckWith(coord, newTASLock, CheckOptions{Workers: 2})
	if err != nil || len(got) == 0 {
		t.Fatalf("fleet check: %v", err)
	}
	var status StatusResponse
	raw := getJSON(t, srv.URL+PathStatus, &status)
	if status.State != "done" || status.Algorithm != "test" || len(status.Workers) == 0 {
		t.Fatalf("status: %+v", status)
	}
	for _, field := range []string{`"leases"`, `"re_leases"`, `"stale_reports"`, `"waves"`, `"schedules"`} {
		if bytes.Contains(raw, []byte(field)) {
			t.Fatalf("status copies the registry's %s: %s", field, raw)
		}
	}
	var snap telemetry.Snapshot
	getJSON(t, srv.URL+PathMetrics, &snap)
	if want := coord.Metrics().Snapshot().Counters; snap.Counter(MetricLeases) == 0 || !reflect.DeepEqual(snap.Counters, want) {
		t.Fatalf("/v1/metrics counters %+v, registry %+v", snap.Counters, want)
	}
}

// getJSON fetches one JSON body, decodes it into out and returns it.
func getJSON(t *testing.T, url string, out any) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		t.Fatal(err)
	}
	return raw
}

// heldLease posts a lease request in the background and delivers its
// answer.
func heldLease(t *testing.T, url, worker string) <-chan LeaseResponse {
	t.Helper()
	answer := make(chan LeaseResponse, 1)
	go func() {
		var lr LeaseResponse
		resp, err := http.Post(url+PathLease, "application/json", strings.NewReader(`{"worker":"`+worker+`"}`))
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&lr)
			resp.Body.Close()
		}
		if err != nil {
			t.Errorf("lease request of %s: %v", worker, err)
		}
		answer <- lr
	}()
	return answer
}

// requireHeld fails if a lease request is answered before the event
// meant to answer it; with a minute-long hold bound, an early answer
// can only be a bug.
func requireHeld(t *testing.T, answer <-chan LeaseResponse, before string) {
	t.Helper()
	select {
	case lr := <-answer:
		t.Fatalf("lease request answered %+v before %s", lr, before)
	case <-time.After(20 * time.Millisecond):
	}
}

// awaitAnswer returns a held request's answer, failing long before the
// minute-long hold bound could have produced it.
func awaitAnswer(t *testing.T, answer <-chan LeaseResponse, after string) LeaseResponse {
	t.Helper()
	select {
	case lr := <-answer:
		return lr
	case <-time.After(10 * time.Second):
		t.Fatalf("held lease request not answered after %s", after)
		return LeaseResponse{}
	}
}

// TestHeldLeaseAnswersWhenWavePublished pins the held lease request: a
// request that finds nothing claimable waits, and publishing a wave
// answers it with a lease, as the campaign's end answers it with done.
// The hold bound is a minute, so only those events can answer within
// the test. The campaign is K=0, so each model is one root schedule,
// reported here by hand.
func TestHeldLeaseAnswersWhenWavePublished(t *testing.T) {
	cfg := testConfig()
	cfg.Preemptions = 0
	coord := NewCoordinator(cfg, CoordinatorOptions{Hold: time.Minute})
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	// Before Run there is no wave: the request is held until CC's root
	// wave is published.
	a := heldLease(t, srv.URL, "a")
	requireHeld(t, a, "any wave was published")
	go coord.Run()
	la := awaitAnswer(t, a, "CC's root wave was published")
	if la.Status != StatusLease || la.Lease.Model != "CC" || la.Lease.Depth != 0 || la.Lease.Schedules != nil {
		t.Fatalf("first answer %+v, want the CC root lease with no schedule words", la)
	}

	// The root range is leased: the next request is held until CC's
	// wave completes and DSM's root wave is published.
	b := heldLease(t, srv.URL, "b")
	requireHeld(t, b, "CC's root wave was reported")
	var rr ReportResponse
	postJSON(t, srv.URL+PathReport, ReportRequest{Worker: "a", LeaseID: la.Lease.ID, Model: "CC", Lo: 0, Hi: 1, Children: obs.Counts{0}}, &rr)
	lb := awaitAnswer(t, b, "DSM's root wave was published")
	if !rr.Accepted || lb.Status != StatusLease || lb.Lease.Model != "DSM" {
		t.Fatalf("report %+v, second answer %+v: want the DSM root lease", rr, lb)
	}

	// The last request is held until the campaign finishes.
	c := heldLease(t, srv.URL, "c")
	requireHeld(t, c, "the campaign finished")
	postJSON(t, srv.URL+PathReport, ReportRequest{Worker: "b", LeaseID: lb.Lease.ID, Model: "DSM", Lo: 0, Hi: 1, Children: obs.Counts{0}}, &rr)
	if lc := awaitAnswer(t, c, "the campaign finished"); lc.Status != StatusDone {
		t.Fatalf("third answer %+v, want done", lc)
	}
	if _, err := coord.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestReportRejectsMalformedChildren: a report the explorer could not
// have produced — arrays that do not fit the range or each other,
// failures out of place, or children the explorer could not have
// derived — gets a 400, and its range stays leased rather than being
// marked done with corrupt outcomes. Each case reports the range [0,2)
// of fuzzWave(depth): schedule i preempts at steps i+1, i+11, ...
func TestReportRejectsMalformedChildren(t *testing.T) {
	for _, tc := range []struct {
		name  string
		depth int
		// body holds the report's children, appended and failures
		// fields, as raw JSON.
		body string
	}{
		{"odd-word-count", 1, `"children":[2,0],"appended":[5,1,6]`},
		{"proc-too-large", 1, `"children":[1,0],"appended":[5,2]`},
		{"proc-negative", 1, `"children":[1,0],"appended":[5,-1]`},
		{"step-not-after-parent", 1, `"children":[1,0],"appended":[1,0]`},
		{"duplicate-pair", 1, `"children":[2,0],"appended":[5,1,5,1]`},
		{"steps-decreasing", 1, `"children":[2,0],"appended":[6,0,5,1]`},
		{"failing-with-children", 1, `"children":[1,0],"appended":[5,0],"failures":[{"index":0,"error":"boom"}]`},
		{"children-at-bound", 2, `"children":[1,0],"appended":[30,0]`},
		{"counts-short-of-pairs", 1, `"children":[1,0],"appended":[5,0,6,0]`},
		{"counts-beyond-pairs", 1, `"children":[1,1],"appended":[5,0]`},
		{"count-negative", 1, `"children":[-1,1],"appended":[5,0]`},
		{"counts-not-one-per-schedule", 1, `"children":[0],"appended":[]`},
		{"counts-missing", 1, `"appended":[]`},
		{"failure-outside-range", 1, `"children":[0,0],"appended":[],"failures":[{"index":2,"error":"boom"}]`},
		{"failure-negative", 1, `"children":[0,0],"appended":[],"failures":[{"index":-1,"error":"boom"}]`},
		{"failure-repeated", 1, `"children":[0,0],"appended":[],"failures":[{"index":1,"error":"boom"},{"index":1,"error":"boom"}]`},
		{"failures-out-of-order", 1, `"children":[0,0],"appended":[],"failures":[{"index":1,"error":"boom"},{"index":0,"error":"boom"}]`},
		{"count-not-an-integer", 1, `"children":[0.5,0],"appended":[]`},
		{"pairs-not-an-array", 1, `"children":[0,0],"appended":{"step":5}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCoordinator(testConfig(), CoordinatorOptions{LeaseSize: 2})
			c.table = newLeaseTable(memsim.CC, fuzzWave(tc.depth), 2, time.Minute, time.Now)
			if _, _, ok := c.table.claim(1); !ok {
				t.Fatal("no range to claim")
			}
			body := fmt.Sprintf(`{"worker":"w","lease_id":1,"model":"CC","depth":%d,"lo":0,"hi":2,%s}`, tc.depth, tc.body)
			rec := httptest.NewRecorder()
			c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, PathReport, strings.NewReader(body)))
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status %d (%s), want 400", rec.Code, strings.TrimSpace(rec.Body.String()))
			}
			if _, leased, done := c.table.counts(); leased != 1 || done != 0 {
				t.Fatalf("after a rejected report: %d leased, %d done; want the range still leased", leased, done)
			}
		})
	}

	// The control: the same range with well-formed children and a
	// failure is taken, and the table keeps the report's own count and
	// pair arrays in the range's cell, not copies.
	c := NewCoordinator(testConfig(), CoordinatorOptions{LeaseSize: 2})
	c.table = newLeaseTable(memsim.CC, fuzzWave(1), 2, time.Minute, time.Now)
	body := `{"worker":"w","model":"CC","depth":1,"lo":0,"hi":2,"children":[3,0],"appended":[5,0,5,1,6,0],"failures":[{"index":1,"error":"boom"}]}`
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, PathReport, strings.NewReader(body)))
	var resp ReportResponse
	if err := json.NewDecoder(rec.Body).Decode(&resp); rec.Code != http.StatusOK || err != nil || !resp.Accepted {
		t.Fatalf("well-formed report: status %d, %+v, %v", rec.Code, resp, err)
	}
	want := memsim.RangeOutcome{
		Children: []int{3, 0},
		Appended: []memsim.Preemption{{Step: 5, Proc: 0}, {Step: 5, Proc: 1}, {Step: 6, Proc: 0}},
		Failures: []memsim.Failure{{Index: 1, Err: errors.New("boom")}},
	}
	if got := c.table.ranges[0].out; !reflect.DeepEqual(got, want) {
		t.Fatalf("accepted report's outcome %+v, want %+v", got, want)
	}
	var req ReportRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	tab := newLeaseTable(memsim.CC, fuzzWave(1), 2, time.Minute, time.Now)
	out, err := tab.check(&req, testConfig().N, testConfig().Preemptions)
	if err != nil {
		t.Fatal(err)
	}
	if acc, err := tab.report(out); !acc || err != nil {
		t.Fatalf("report: %v, %v", acc, err)
	}
	if out := tab.ranges[0].out; &out.Children[0] != &req.Children[0] || &out.Appended[0] != &req.Appended[0] {
		t.Fatal("the table copied the report's arrays instead of keeping them")
	}
}

// TestLeaseTableGrid pins the lease table's claim/report mechanics.
func TestLeaseTableGrid(t *testing.T) {
	clock := &fakeClock{}
	wave := memsim.Wave{Depth: 3, Len: 7}
	for i := 0; i < wave.Len; i++ {
		wave.Slab = append(wave.Slab, memsim.Preemption{Step: 1, Proc: 0}, memsim.Preemption{Step: 2, Proc: 1}, memsim.Preemption{Step: int64(3 + i), Proc: 0})
	}
	tab := newLeaseTable(memsim.CC, wave, 3, time.Second, clock.now)
	if len(tab.ranges) != 3 {
		t.Fatalf("7 schedules at pitch 3: %d ranges, want 3", len(tab.ranges))
	}
	l1, kind, ok := tab.claim(1)
	if !ok || kind != "lease" || l1.Lo != 0 || l1.Hi != 3 {
		t.Fatalf("first claim: %+v %s %v", l1, kind, ok)
	}
	if got := []memsim.Preemption(l1.Schedules); !reflect.DeepEqual(got, wave.Slab[:9]) || &got[0] != &wave.Slab[0] {
		t.Fatalf("first lease carries %v, want the wave's slab [0,9) = %v, not a copy", got, wave.Slab[:9])
	}
	// Nothing expired: the same range is not claimable again.
	l2, _, _ := tab.claim(2)
	if l2.Lo == l1.Lo {
		t.Fatalf("unexpired range re-leased: %+v", l2)
	}
	if l, _, _ := tab.claim(20); l.Lo != 6 || len(l.Schedules) != 3 {
		t.Fatalf("third claim: %+v", l)
	}
	if _, _, ok := tab.claim(21); ok {
		t.Fatal("claim granted with every range leased and unexpired")
	}
	// Expiry makes the oldest lease claimable again, as a re-lease.
	clock.advance(2 * time.Second)
	l3, kind, ok := tab.claim(3)
	if !ok || kind != "re-lease" || l3.Lo != 0 {
		t.Fatalf("expired claim: %+v %s %v", l3, kind, ok)
	}
	// A report from the original (expired) lease still lands — the
	// outcomes are deterministic — and the re-lease's duplicate is
	// then ignored.
	if acc, err := tab.report(memsim.RangeOutcome{Lo: 0, Children: []int{0, 0, 0}}); !acc || err != nil {
		t.Fatalf("late report rejected: %v %v", acc, err)
	}
	if acc, err := tab.report(memsim.RangeOutcome{Lo: 0, Children: []int{0, 0, 0}}); acc || err != nil {
		t.Fatalf("duplicate report not ignored: %v %v", acc, err)
	}
	// Geometry violations are errors.
	if _, err := tab.report(memsim.RangeOutcome{Lo: 1, Children: []int{0, 0}}); err == nil {
		t.Fatal("off-grid report accepted")
	}
}

// postJSON is a minimal raw client for protocol-level tests.
func postJSON(t *testing.T, url string, body, out any) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}
