package fleet

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"fetchphi/internal/memsim"
)

// fuzzWave is the active wave of the handler fuzz target at depth d:
// the root wave at depth 0, else five schedules of d preemptions each,
// schedule i preempting at steps i+1, i+11, i+21, ...
func fuzzWave(d int) [][]memsim.Preemption {
	if d == 0 {
		return memsim.RootWave()
	}
	wave := make([][]memsim.Preemption, 5)
	for i := range wave {
		for j := 0; j < d; j++ {
			wave[i] = append(wave[i], memsim.Preemption{Step: int64(10*j + i + 1), Proc: (i + j) % 2})
		}
	}
	return wave
}

// FuzzCoordinatorHandlers posts a mutated lease body and a mutated
// report body, the report twice, to a coordinator of N=2, K=2 whose
// active CC wave sits at depth%3 — the root wave, or five schedules on
// a grid of [0,2), [2,4) and [4,5). Workers are outside the
// coordinator's trust boundary: whatever they send, every response
// must be 200 or a 4xx, never a panic or a 5xx.
func FuzzCoordinatorHandlers(f *testing.F) {
	f.Add([]byte(`{"worker":"w1"}`), []byte(`{"worker":"w1","lease_id":1,"model":"CC","depth":1,"lo":0,"hi":2,"outcomes":[{},{}]}`), uint8(1))
	f.Add([]byte(`{`), []byte(`{"model":"CC","depth":1,"lo":4,"hi":5,"outcomes":[{"failure":"boom"}]}`), uint8(1))
	f.Add([]byte(`null`), []byte(`{"model":"CC","depth":1,"lo":1,"hi":3,"outcomes":[{},{}]}`), uint8(1))
	f.Add([]byte(`{"worker":""}`), []byte(`{"model":"CC","depth":1,"lo":-2,"hi":9999999999,"outcomes":[]}`), uint8(1))
	f.Add([]byte(`[]`), []byte(`{"model":"CC","depth":1,"lo":2,"hi":4,"outcomes":[{}]}`), uint8(1))
	f.Add([]byte(`{"worker":7}`), []byte(`{"model":"PRAM","depth":1,"lo":0,"hi":2,"outcomes":[{},{}]}`), uint8(1))
	f.Add([]byte(`{"worker":"w2"}`), []byte(`{"model":"CC","depth":-3,"lo":0,"hi":2,"outcomes":[{},{}]}`), uint8(1))
	f.Add([]byte(``), []byte(`{"model":"CC","depth":1,"lo":2,"hi":4,"outcomes":[{"children":[-1,99]},{"children":[]}]}`), uint8(1))
	// Children in the flat shape: an odd word count, a step before the
	// parent's last (schedule 2 preempts at step 3), a process >= N,
	// children at the preemption bound, out of (step, proc) order, on
	// a failing schedule, and a well-formed report of the root wave.
	f.Add([]byte(`{"worker":"w1"}`), []byte(`{"model":"CC","depth":1,"lo":0,"hi":2,"outcomes":[{"children":[5,1,6]},{}]}`), uint8(1))
	f.Add([]byte(`{"worker":"w1"}`), []byte(`{"model":"CC","depth":1,"lo":2,"hi":4,"outcomes":[{"children":[2,0]},{}]}`), uint8(1))
	f.Add([]byte(`{"worker":"w1"}`), []byte(`{"model":"CC","depth":1,"lo":0,"hi":2,"outcomes":[{"children":[9,2]},{}]}`), uint8(1))
	f.Add([]byte(`{"worker":"w1"}`), []byte(`{"model":"CC","depth":2,"lo":0,"hi":2,"outcomes":[{"children":[30,0]},{}]}`), uint8(2))
	f.Add([]byte(`{"worker":"w1"}`), []byte(`{"model":"CC","depth":1,"lo":0,"hi":2,"outcomes":[{"children":[5,1,5,1]},{}]}`), uint8(1))
	f.Add([]byte(`{"worker":"w1"}`), []byte(`{"model":"CC","depth":1,"lo":0,"hi":2,"outcomes":[{"failure":"boom","children":[5,0]},{}]}`), uint8(1))
	f.Add([]byte(`{"worker":"w1"}`), []byte(`{"model":"CC","depth":0,"lo":0,"hi":1,"outcomes":[{"children":[0,1,3,1]}]}`), uint8(0))
	f.Fuzz(func(t *testing.T, lease, report []byte, depth uint8) {
		c := NewCoordinator(testConfig(), CoordinatorOptions{LeaseSize: 2, Hold: time.Millisecond})
		d := int(depth % 3)
		c.table = newLeaseTable(memsim.CC, d, fuzzWave(d), 2, time.Minute, time.Now)
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
