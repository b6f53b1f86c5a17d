package fleet

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"fetchphi/internal/memsim"
)

// FuzzCoordinatorHandlers posts a mutated lease body and a mutated
// report body, the report twice, to a coordinator with an active wave
// of five schedules on a grid of [0,2), [2,4) and [4,5). Workers are
// outside the coordinator's trust boundary: whatever they send, every
// response must be 200 or a 4xx, never a panic or a 5xx.
func FuzzCoordinatorHandlers(f *testing.F) {
	f.Add([]byte(`{"worker":"w1"}`), []byte(`{"worker":"w1","lease_id":1,"model":"CC","depth":1,"lo":0,"hi":2,"outcomes":[{},{}]}`))
	f.Add([]byte(`{`), []byte(`{"model":"CC","depth":1,"lo":4,"hi":5,"outcomes":[{"failure":"boom"}]}`))
	f.Add([]byte(`null`), []byte(`{"model":"CC","depth":1,"lo":1,"hi":3,"outcomes":[{},{}]}`))
	f.Add([]byte(`{"worker":""}`), []byte(`{"model":"CC","depth":1,"lo":-2,"hi":9999999999,"outcomes":[]}`))
	f.Add([]byte(`[]`), []byte(`{"model":"CC","depth":1,"lo":2,"hi":4,"outcomes":[{}]}`))
	f.Add([]byte(`{"worker":7}`), []byte(`{"model":"PRAM","depth":1,"lo":0,"hi":2,"outcomes":[{},{}]}`))
	f.Add([]byte(`{"worker":"w2"}`), []byte(`{"model":"CC","depth":-3,"lo":0,"hi":2,"outcomes":[{},{}]}`))
	f.Add([]byte(``), []byte(`{"model":"CC","depth":1,"lo":2,"hi":4,"outcomes":[{"children":[[{"step":-1,"proc":99}],null]},{"children":[]}]}`))
	f.Fuzz(func(t *testing.T, lease, report []byte) {
		c := NewCoordinator(testConfig(), CoordinatorOptions{LeaseSize: 2, RetryMS: 1})
		wave := [][]memsim.Preemption{nil, {{Step: 1, Proc: 1}}, {{Step: 2, Proc: 0}}, {{Step: 3, Proc: 1}}, {{Step: 4, Proc: 0}}}
		c.table = newLeaseTable(memsim.CC, 1, wave, 2, time.Minute, time.Now)
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
