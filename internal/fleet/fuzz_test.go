package fleet

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"fetchphi/internal/harness"
	"fetchphi/internal/memsim"
)

// fuzzWave is the active wave of the handler fuzz target at depth d:
// the root wave at depth 0, else five schedules of d preemptions each,
// schedule i preempting at steps i+1, i+11, i+21, ...
func fuzzWave(d int) memsim.Wave {
	if d == 0 {
		return memsim.RootWave()
	}
	w := memsim.Wave{Depth: d, Len: 5}
	for i := 0; i < w.Len; i++ {
		for j := 0; j < d; j++ {
			w.Slab = append(w.Slab, memsim.Preemption{Step: int64(10*j + i + 1), Proc: (i + j) % 2})
		}
	}
	return w
}

// FuzzCoordinatorHandlers posts a mutated lease body and a mutated
// report body, the report twice, to a coordinator of N=2, K=2 whose
// active CC wave sits at depth%3 — the root wave, or five schedules on
// a grid of [0,2), [2,4) and [4,5). Workers are outside the
// coordinator's trust boundary: whatever they send, every response
// must be 200 or a 4xx, never a panic or a 5xx.
func FuzzCoordinatorHandlers(f *testing.F) {
	f.Add([]byte(`{"worker":"w1"}`), []byte(`{"worker":"w1","lease_id":1,"model":"CC","depth":1,"lo":0,"hi":2,"children":[0,0],"appended":[]}`), uint8(1))
	f.Add([]byte(`{`), []byte(`{"model":"CC","depth":1,"lo":4,"hi":5,"children":[0],"appended":[],"failures":[{"index":0,"error":"boom"}]}`), uint8(1))
	f.Add([]byte(`null`), []byte(`{"model":"CC","depth":1,"lo":1,"hi":3,"children":[0,0],"appended":[]}`), uint8(1))
	f.Add([]byte(`{"worker":""}`), []byte(`{"model":"CC","depth":1,"lo":-2,"hi":9999999999,"children":[],"appended":[]}`), uint8(1))
	f.Add([]byte(`[]`), []byte(`{"model":"CC","depth":1,"lo":2,"hi":4,"children":[0],"appended":[]}`), uint8(1))
	f.Add([]byte(`{"worker":7}`), []byte(`{"model":"PRAM","depth":1,"lo":0,"hi":2,"children":[0,0],"appended":[]}`), uint8(1))
	f.Add([]byte(`{"worker":"w2"}`), []byte(`{"model":"CC","depth":-3,"lo":0,"hi":2,"children":[0,0],"appended":[]}`), uint8(1))
	f.Add([]byte(``), []byte(`{"model":"CC","depth":1,"lo":2,"hi":4,"children":[1,0],"appended":[-1,99]}`), uint8(1))
	// Children in the flat shape: an odd word count, a step before the
	// parent's last (schedule 2 preempts at step 3), a process >= N,
	// children at the preemption bound, out of (step, proc) order, a
	// duplicate pair, on a failing schedule, and a well-formed report
	// of the root wave.
	f.Add([]byte(`{"worker":"w1"}`), []byte(`{"model":"CC","depth":1,"lo":0,"hi":2,"children":[2,0],"appended":[5,1,6]}`), uint8(1))
	f.Add([]byte(`{"worker":"w1"}`), []byte(`{"model":"CC","depth":1,"lo":2,"hi":4,"children":[1,0],"appended":[2,0]}`), uint8(1))
	f.Add([]byte(`{"worker":"w1"}`), []byte(`{"model":"CC","depth":1,"lo":0,"hi":2,"children":[1,0],"appended":[9,2]}`), uint8(1))
	f.Add([]byte(`{"worker":"w1"}`), []byte(`{"model":"CC","depth":2,"lo":0,"hi":2,"children":[1,0],"appended":[30,0]}`), uint8(2))
	f.Add([]byte(`{"worker":"w1"}`), []byte(`{"model":"CC","depth":1,"lo":0,"hi":2,"children":[2,0],"appended":[6,0,5,1]}`), uint8(1))
	f.Add([]byte(`{"worker":"w1"}`), []byte(`{"model":"CC","depth":1,"lo":0,"hi":2,"children":[2,0],"appended":[5,1,5,1]}`), uint8(1))
	f.Add([]byte(`{"worker":"w1"}`), []byte(`{"model":"CC","depth":1,"lo":0,"hi":2,"children":[1,0],"appended":[5,0],"failures":[{"index":0,"error":"boom"}]}`), uint8(1))
	f.Add([]byte(`{"worker":"w1"}`), []byte(`{"model":"CC","depth":0,"lo":0,"hi":1,"children":[2],"appended":[0,1,3,1]}`), uint8(0))
	// The three arrays against each other: counts that do not sum to
	// the pairs, a failure index outside the range, a repeated one, and
	// a negative count.
	f.Add([]byte(`{"worker":"w1"}`), []byte(`{"model":"CC","depth":1,"lo":0,"hi":2,"children":[1,1],"appended":[5,0]}`), uint8(1))
	f.Add([]byte(`{"worker":"w1"}`), []byte(`{"model":"CC","depth":1,"lo":0,"hi":2,"children":[0,0],"appended":[],"failures":[{"index":2,"error":"boom"}]}`), uint8(1))
	f.Add([]byte(`{"worker":"w1"}`), []byte(`{"model":"CC","depth":1,"lo":0,"hi":2,"children":[0,0],"appended":[],"failures":[{"index":1,"error":"a"},{"index":1,"error":"b"}]}`), uint8(1))
	f.Add([]byte(`{"worker":"w1"}`), []byte(`{"model":"CC","depth":1,"lo":0,"hi":2,"children":[-1,1],"appended":[5,0]}`), uint8(1))
	f.Fuzz(func(t *testing.T, lease, report []byte, depth uint8) {
		c := NewCoordinator(testConfig(), CoordinatorOptions{LeaseSize: 2, Hold: time.Millisecond})
		d := int(depth % 3)
		c.table = newLeaseTable(memsim.CC, fuzzWave(d), 2, time.Minute, time.Now)
		h := c.Handler()
		post := func(path string, body []byte) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if rec.Code != http.StatusOK && (rec.Code < 400 || rec.Code >= 500) {
				t.Fatalf("POST %s %q: status %d: %s", path, body, rec.Code, rec.Body)
			}
		}
		post(PathLease, lease)
		post(PathReport, report)
		post(PathReport, report)
		post(PathLease, lease)
	})
}

// leaseStub is a coordinator stand-in for worker tests: it serves the
// N=2, K=2 test campaign, answers the first lease request with a fixed
// body and every later one with done, and counts the reports it takes.
type leaseStub struct {
	lease   []byte
	leases  atomic.Int64
	reports atomic.Int64
}

func (s *leaseStub) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case PathConfig:
		writeJSON(w, testConfig())
	case PathLease:
		if s.leases.Add(1) == 1 {
			w.Write(s.lease)
			return
		}
		writeJSON(w, LeaseResponse{Status: StatusDone})
	case PathReport:
		s.reports.Add(1)
		writeJSON(w, ReportResponse{Accepted: true})
	default:
		http.NotFound(w, r)
	}
}

// runStubWorker runs a worker of the test campaign against a stub that
// serves lease as its one lease body, and returns how many reports the
// stub took and what Run returned. Backoff sleeps are instant. The
// run's time is bounded by the body: a lease can carry no more
// schedules than its pairs, and every schedule of the test campaign
// ends within a few dozen steps, so a worker still running at the
// deadline fails the test.
func runStubWorker(t *testing.T, lease []byte, shards int) (reports int64, err error) {
	t.Helper()
	stub := &leaseStub{lease: lease}
	srv := httptest.NewServer(stub)
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	defer func() {
		if ctx.Err() != nil {
			t.Fatalf("worker fed %q ran past its deadline", lease)
		}
	}()
	w := &Worker{
		ID:          "stub",
		Coordinator: srv.URL,
		Resolve:     func(string) (harness.Builder, error) { return newTASLock, nil },
		Shards:      shards,
		Client:      srv.Client(),
		Retries:     2,
		Sleep:       func(ctx context.Context, _ time.Duration) error { return ctx.Err() },
	}
	err = w.Run(ctx)
	return stub.reports.Load(), err
}

// FuzzWorkerLease serves a worker of the N=2, K=2 test campaign one
// mutated lease body, then done. The coordinator is outside the
// worker's trust boundary too: whatever the body holds — not JSON, an
// unknown status, a lease whose schedules are the wrong length, name
// processes outside [0, N), step backwards, or force a switch the
// machine never offers — Run must return, with an error or without,
// and never panic.
func FuzzWorkerLease(f *testing.F) {
	for _, body := range []string{
		`{"status":"lease","lease":{"id":1,"model":"CC","depth":0,"lo":0,"hi":1,"schedules":null}}`,
		`{"status":"lease","lease":{"id":2,"model":"DSM","depth":1,"lo":0,"hi":2,"schedules":[1,1,2,1]}}`,
		`{"status":"lease","lease":{"id":3,"model":"CC","depth":2,"lo":4,"hi":5,"schedules":[1,1,3,0]}}`,
		`{"status":"lease","lease":{"id":4,"model":"CC","depth":1,"lo":0,"hi":1,"schedules":[1]}}`,
		`{"status":"lease","lease":{"id":5,"model":"CC","depth":1,"lo":0,"hi":3,"schedules":[1,1,2,1]}}`,
		`{"status":"lease","lease":{"id":6,"model":"CC","depth":1,"lo":0,"hi":1,"schedules":[1,2]}}`,
		`{"status":"lease","lease":{"id":7,"model":"CC","depth":2,"lo":0,"hi":1,"schedules":[5,1,3,0]}}`,
		`{"status":"lease","lease":{"id":8,"model":"CC","depth":1,"lo":0,"hi":1,"schedules":[-4,1]}}`,
		`{"status":"lease","lease":{"id":9,"model":"CC","depth":3,"lo":0,"hi":1,"schedules":[1,1,2,0,3,1]}}`,
		`{"status":"lease","lease":{"id":10,"model":"CC","depth":0,"lo":0,"hi":1000000000,"schedules":[]}}`,
		`{"status":"lease","lease":{"id":11,"model":"CC","depth":1,"lo":0,"hi":1,"schedules":[40,0]}}`,
		`{"status":"lease","lease":{"id":12,"model":"PRAM","depth":0,"lo":0,"hi":1}}`,
		`{"status":"lease","lease":{"id":13,"model":"CC","depth":1,"lo":5,"hi":2,"schedules":[]}}`,
		`{"status":"lease","lease":{"id":14,"model":"CC","depth":1,"lo":0,"hi":1,"schedules":[1.5,0]}}`,
		`{"status":"lease"}`,
		`{"status":"wait"}`,
		`{"status":"done"}`,
		`{"status":"later"}`,
		`{"status":"lease","lease":null}`,
		`not json`,
		``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		runStubWorker(t, body, 2)
	})
}
