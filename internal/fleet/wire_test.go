package fleet

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"fetchphi/internal/memsim"
)

// TestWireRoundTrip pins the flat wire: a lease's schedules and a
// report's three arrays survive JSON unchanged at every depth, a nil
// array stays null, the root lease carries no schedule words, the
// flat arrays are written as plain integer arrays, and a report of
// well-formed children passes the coordinator's check at every depth.
func TestWireRoundTrip(t *testing.T) {
	for depth := 0; depth <= 3; depth++ {
		wave := fuzzWave(depth)
		tab := newLeaseTable(memsim.CC, wave, 2, time.Minute, time.Now)
		lease, _, ok := tab.claim(7)
		if !ok {
			t.Fatalf("depth %d: nothing to claim", depth)
		}
		data, err := json.Marshal(lease)
		if err != nil {
			t.Fatal(err)
		}
		var got Lease
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("depth %d: %s: %v", depth, data, err)
		}
		if !reflect.DeepEqual(&got, lease) {
			t.Fatalf("depth %d: lease %s came back as %+v, want %+v", depth, data, got, *lease)
		}
		if depth == 0 && (got.Schedules != nil || !strings.Contains(string(data), `"schedules":null`)) {
			t.Fatalf("root lease %s carries schedule words", data)
		}
		if w, err := leaseWave(&got, 3, 2); err != nil || !reflect.DeepEqual(w, wave.Range(got.Lo, got.Hi)) {
			t.Fatalf("depth %d: lease wave %+v, %v; want %+v", depth, w, err, wave.Range(got.Lo, got.Hi))
		}

		// The acceptance control: well-formed children of every
		// schedule of the range, the root's among them (its last
		// step is -1), pass the coordinator's check after the wire.
		report := ReportRequest{Model: "CC", Depth: depth, Lo: got.Lo, Hi: got.Hi, Children: Counts{}, Appended: Pairs{}}
		for i := got.Lo; i < got.Hi; i++ {
			report.Children = append(report.Children, 3)
			report.Appended = append(report.Appended, memsim.Preemption{Step: 40, Proc: 0}, memsim.Preemption{Step: 40, Proc: 1}, memsim.Preemption{Step: 41, Proc: 0})
		}
		data, err = json.Marshal(report)
		if err != nil {
			t.Fatal(err)
		}
		var gotReport ReportRequest
		if err := json.Unmarshal(data, &gotReport); err != nil {
			t.Fatalf("depth %d: %s: %v", depth, data, err)
		}
		if _, err := tab.check(&gotReport, 2, 4); err != nil {
			t.Fatalf("depth %d: well-formed report %s rejected: %v", depth, data, err)
		}
	}

	report := ReportRequest{
		Worker: "w", LeaseID: 3, Model: "DSM", Depth: 1, Lo: 2, Hi: 5,
		Children: Counts{2, 0, 1},
		Appended: Pairs{{Step: 40, Proc: 0}, {Step: 40, Proc: 1}, {Step: math.MaxInt64, Proc: 1}},
		Failures: []Failure{{Index: 1, Error: `violation: "two in CS" \ at step 9`}},
	}
	data, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"worker":"w","lease_id":3,"model":"DSM","depth":1,"lo":2,"hi":5,"children":[2,0,1],"appended":[40,0,40,1,9223372036854775807,1],"failures":[{"index":1,"error":"violation: \"two in CS\" \\ at step 9"}]}`
	if string(data) != want {
		t.Fatalf("report encodes as\n%s\nwant\n%s", data, want)
	}
	var got ReportRequest
	if err := json.Unmarshal(data, &got); err != nil || !reflect.DeepEqual(got, report) {
		t.Fatalf("report came back as %+v (%v), want %+v", got, err, report)
	}
	empty := ReportRequest{Children: Counts{}, Appended: Pairs{}}
	data, _ = json.Marshal(empty)
	got = ReportRequest{}
	if err := json.Unmarshal(data, &got); err != nil || got.Children == nil || got.Appended == nil || got.Failures != nil {
		t.Fatalf("empty arrays %s came back as %+v (%v)", data, got, err)
	}
}

// TestIntArraysDecode pins the integer-array decoder: whitespace,
// null, the int64 extremes, and the rejection of everything that is
// not an array of integers.
func TestIntArraysDecode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Counts
	}{
		{`null`, nil},
		{` null `, nil},
		{`[]`, Counts{}},
		{" [ \t\n]\r", Counts{}},
		{`[0]`, Counts{0}},
		{` [ 1 , -2,30 ] `, Counts{1, -2, 30}},
		{`[9223372036854775807,-9223372036854775808]`, Counts{math.MaxInt64, math.MinInt64}},
	} {
		var c Counts
		if err := c.UnmarshalJSON([]byte(tc.in)); err != nil || !reflect.DeepEqual(c, tc.want) || (c == nil) != (tc.want == nil) {
			t.Errorf("Counts %q = %#v, %v; want %#v", tc.in, c, err, tc.want)
		}
	}
	for _, in := range []string{
		``, ` `, `nul`, `nulls`, `null,`, `[`, `]`, `[,]`, `[1,]`, `[,1]`, `[1 2]`, `[1]]`, `[1],`,
		`[01]`, `[-]`, `[-01]`, `[1.0]`, `[1e3]`, `[+1]`, `["1"]`, `[[1]]`, `[{}]`, `[true]`, `{}`, `1`, `"x"`,
		`[9223372036854775808]`, `[-9223372036854775809]`, `[99999999999999999999]`,
	} {
		var c Counts
		if err := c.UnmarshalJSON([]byte(in)); err == nil {
			t.Errorf("Counts %q decoded as %v", in, c)
		}
	}
	var p Pairs
	if err := p.UnmarshalJSON([]byte(`[1,2,3]`)); err == nil || !strings.Contains(err.Error(), "step/proc pairs") {
		t.Errorf("odd pairs: %v, %v", p, err)
	}
	for _, v := range []int64{0, 7, -7, 10, 99, 100, math.MaxInt64, math.MinInt64} {
		if got, want := intLen(v), len(fmt.Sprint(v)); got != want {
			t.Errorf("intLen(%d) = %d, want %d", v, got, want)
		}
	}
}

// TestWireDecodeAllocations: each flat array of a lease and a report
// decodes into one allocation of exactly its length, so decoding a
// whole lease or report allocates the same number of times whatever
// its size — nothing grows with the arrays.
func TestWireDecodeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	pairs := func(n int) Pairs {
		p := make(Pairs, n)
		for i := range p {
			p[i] = memsim.Preemption{Step: int64(100 + i), Proc: i % 2}
		}
		return p
	}
	one := func(what string, data []byte, decode func([]byte)) {
		t.Helper()
		if a := testing.AllocsPerRun(20, func() { decode(data) }); a != 1 {
			t.Errorf("%s of %d bytes: %.1f allocations, want 1", what, len(data), a)
		}
	}
	for _, n := range []int{1, 300} {
		data, _ := json.Marshal(pairs(n))
		one("Pairs", data, func(b []byte) {
			var p Pairs
			if err := p.UnmarshalJSON(b); err != nil || len(p) != n || cap(p) != n {
				t.Fatalf("Pairs: %d of cap %d, %v", len(p), cap(p), err)
			}
		})
		data, _ = json.Marshal(make([]int, 2*n))
		one("Counts", data, func(b []byte) {
			var c Counts
			if err := c.UnmarshalJSON(b); err != nil || len(c) != 2*n || cap(c) != 2*n {
				t.Fatalf("Counts: %d of cap %d, %v", len(c), cap(c), err)
			}
		})
		p := pairs(n)
		one("Pairs.MarshalJSON", nil, func([]byte) {
			if data, err := p.MarshalJSON(); err != nil || len(data) != cap(data) {
				t.Fatalf("Pairs.MarshalJSON: %d bytes of cap %d, %v", len(data), cap(data), err)
			}
		})
	}

	// Whole messages: the allocation count of a decode does not
	// depend on how many schedules or children they carry.
	decodeAllocs := func(v any, fresh func() any) float64 {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if err := readJSON(strings.NewReader(string(data)), int64(len(data)), fresh()); err != nil {
				t.Fatal(err)
			}
		}) - testing.AllocsPerRun(20, func() { _ = strings.NewReader(string(data)) })
	}
	lease := func(n int) LeaseResponse {
		return LeaseResponse{Status: StatusLease, Lease: &Lease{ID: 1, Model: "CC", Depth: 2, Lo: 0, Hi: n, Schedules: pairs(2 * n)}}
	}
	small := decodeAllocs(lease(2), func() any { return new(LeaseResponse) })
	large := decodeAllocs(lease(256), func() any { return new(LeaseResponse) })
	if small != large {
		t.Errorf("lease decode: %.1f allocations at 2 schedules, %.1f at 256", small, large)
	}
	report := func(n, failures int) ReportRequest {
		r := ReportRequest{Model: "CC", Depth: 1, Lo: 0, Hi: n, Children: make(Counts, n), Appended: pairs(3 * n)}
		for i := range r.Children {
			r.Children[i] = 3
		}
		for i := 0; i < failures; i++ {
			r.Failures = append(r.Failures, Failure{Index: i, Error: "boom"})
		}
		return r
	}
	small = decodeAllocs(report(2, 1), func() any { return new(ReportRequest) })
	large = decodeAllocs(report(256, 1), func() any { return new(ReportRequest) })
	if small != large {
		t.Errorf("report decode: %.1f allocations at 2 schedules, %.1f at 256", small, large)
	}
}
