package trace

import (
	"encoding/json"
	"strings"
	"testing"

	"fetchphi/internal/memsim"
	"fetchphi/internal/obs"
)

// tasRun runs a test-and-set lock (correct under every schedule) on
// the given model with a Recorder attached, returning the recorder and
// the run result.
func tasRun(t *testing.T, model memsim.Model, nproc, entries, limit int, seed int64) (*Recorder, memsim.Result) {
	t.Helper()
	m := memsim.NewMachine(model, nproc)
	rec := NewRecorder(limit)
	m.AttachSink(rec)
	lock := m.NewVar("lock", memsim.HomeGlobal, 0)
	scratch := m.NewVar("scratch", memsim.HomeGlobal, 0)
	for i := 0; i < nproc; i++ {
		m.AddProc("p", func(p *memsim.Proc) {
			for e := 0; e < entries; e++ {
				p.BeginEntrySection()
				for p.RMW(lock, func(memsim.Word) memsim.Word { return 1 }) != 0 {
					p.AwaitEq(lock, 0)
				}
				p.EnterCS()
				p.Read(scratch)
				p.ExitCS()
				p.Write(lock, 0)
				p.EndExitSection()
			}
		})
	}
	res := m.Run(memsim.RunConfig{Sched: memsim.NewRandom(seed)})
	if err := res.Err(); err != nil {
		t.Fatal(err)
	}
	return rec, res
}

// TestRecorderSpanDerivation: a real contended run yields one
// entry/cs/exit span triple per critical-section entry, spin spans
// nested inside entry spans, and per-process phase-span RMR totals
// that reproduce the engine's counters.
func TestRecorderSpanDerivation(t *testing.T) {
	const nproc, entries = 3, 4
	rec, res := tasRun(t, memsim.DSM, nproc, entries, 0, 11)
	spans := rec.Spans()

	perKind := map[string]int{}
	phaseRMRs := make([]int64, nproc)
	for _, s := range spans {
		perKind[s.Kind]++
		if s.Open {
			t.Fatalf("completed run left an open span: %+v", s)
		}
		if s.Kind != "spin" {
			phaseRMRs[s.Proc] += s.RMRs
		}
	}
	for _, kind := range []string{"entry", "cs", "exit"} {
		if perKind[kind] != nproc*entries {
			t.Fatalf("%d %s spans, want %d (one per CS entry): %v", perKind[kind], kind, nproc*entries, perKind)
		}
	}
	if perKind["spin"] == 0 {
		t.Fatal("contended TAS run produced no spin spans")
	}
	// Every shared access happens inside entry/exit/cs phases, so the
	// phase spans must account for every charged RMR.
	for i, ps := range res.Procs {
		if phaseRMRs[i] != ps.RMRs {
			t.Fatalf("p%d: phase spans carry %d RMRs, engine charged %d", i, phaseRMRs[i], ps.RMRs)
		}
	}
	// Spin spans nest inside an entry span of the same process and
	// watch the lock word; on DSM the lock is remote to everyone, so
	// contended spinning must be flagged Remote.
	sawRemote := false
	for _, s := range spans {
		if s.Kind != "spin" {
			continue
		}
		if len(s.Vars) != 1 || s.Vars[0] != "lock" {
			t.Fatalf("spin span vars = %v, want [lock]", s.Vars)
		}
		nested := false
		for _, e := range spans {
			if e.Kind == "entry" && e.Proc == s.Proc && e.Start <= s.Start && s.End <= e.End {
				nested = true
				break
			}
		}
		if !nested {
			t.Fatalf("spin span %+v not nested in any entry span", s)
		}
		if s.Remote {
			sawRemote = true
		}
	}
	if !sawRemote {
		t.Fatal("DSM spinning on a globally-homed word must mark spans Remote")
	}
}

// TestRecorderDeterministic: identical runs produce identical span
// timelines.
func TestRecorderDeterministic(t *testing.T) {
	a, _ := tasRun(t, memsim.CC, 2, 3, 0, 7)
	b, _ := tasRun(t, memsim.CC, 2, 3, 0, 7)
	aj, _ := json.Marshal(a.Spans())
	bj, _ := json.Marshal(b.Spans())
	if string(aj) != string(bj) {
		t.Fatalf("identical runs diverged:\n%s\n%s", aj, bj)
	}
}

// TestFlightRecorderBounds: a small span limit retains only the most
// recent spans of each process, and they are the same spans an
// unbounded recorder ends with.
func TestFlightRecorderBounds(t *testing.T) {
	const limit = 6
	bounded, _ := tasRun(t, memsim.CC, 2, 8, limit, 3)
	full, _ := tasRun(t, memsim.CC, 2, 8, 0, 3)

	perProc := map[int][]obs.TraceSpan{}
	for _, s := range bounded.Spans() {
		perProc[s.Proc] = append(perProc[s.Proc], s)
	}
	fullPerProc := map[int][]obs.TraceSpan{}
	for _, s := range full.Spans() {
		fullPerProc[s.Proc] = append(fullPerProc[s.Proc], s)
	}
	for proc, spans := range perProc {
		if len(spans) != limit {
			t.Fatalf("p%d retained %d spans, want exactly the %d-span window", proc, len(spans), limit)
		}
		all := fullPerProc[proc]
		if len(all) <= limit {
			t.Fatalf("p%d full timeline has only %d spans; test needs overflow", proc, len(all))
		}
		// The window is the tail: the bounded recorder's oldest span
		// must start no earlier than the full timeline's len-limit'th.
		cutoff := all[len(all)-limit].Start
		for _, s := range spans {
			if s.Start < cutoff {
				t.Fatalf("p%d retained span from before the window: %+v (cutoff %d)", proc, s, cutoff)
			}
		}
	}
	a := bounded.Artifact("flight-recorder")
	if a.SpanLimit != limit {
		t.Fatalf("artifact SpanLimit = %d, want %d", a.SpanLimit, limit)
	}
}

// TestOpenSpansOnStuckRun: a process waiting on a condition that never
// fires shows up as open entry and spin spans — the flight-recorder
// payload for starvation timeouts.
func TestOpenSpansOnStuckRun(t *testing.T) {
	rec := stuckRun(t)
	var openEntry, openSpin bool
	for _, s := range rec.Spans() {
		if !s.Open {
			continue
		}
		switch s.Kind {
		case "entry":
			openEntry = true
		case "spin":
			openSpin = true
			if len(s.Vars) != 1 || s.Vars[0] != "never" {
				t.Fatalf("open spin span watches %v, want [never]", s.Vars)
			}
		}
		if s.End <= s.Start {
			t.Fatalf("open span not closed sanely: %+v", s)
		}
	}
	if !openEntry || !openSpin {
		t.Fatalf("stuck run must dump open entry+spin spans (entry=%v spin=%v)", openEntry, openSpin)
	}
	// The artifact form must still validate.
	a := rec.Artifact("flight-recorder")
	a.Reason = "starvation timeout"
	a.N = 2
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

// stuckRun runs one process awaiting a condition that never fires
// beside one that keeps waking it, and returns its recorder.
func stuckRun(t *testing.T) *Recorder {
	t.Helper()
	m := memsim.NewMachine(memsim.DSM, 2)
	rec := NewRecorder(DefaultSpanLimit)
	m.AttachSink(rec)
	never := m.NewVar("never", memsim.HomeGlobal, 0)
	m.AddProc("stuck", func(p *memsim.Proc) {
		p.BeginEntrySection()
		p.AwaitEq(never, 1)
	})
	m.AddProc("busy", func(p *memsim.Proc) {
		for k := 0; k < 10; k++ {
			p.Write(never, 0) // wakes the watcher, condition stays false
		}
	})
	res := m.Run(memsim.RunConfig{Sched: memsim.NewRandom(1)})
	if res.Completed {
		t.Fatal("run should not complete")
	}
	return rec
}

// TestArtifactValidatesAndConverts: the recorder → artifact → Chrome
// JSON path is schema-clean end to end.
func TestArtifactValidatesAndConverts(t *testing.T) {
	rec, res := tasRun(t, memsim.DSM, 4, 3, 0, 5)
	a := rec.Artifact("recording")
	a.Algorithm = "tas"
	a.Model = memsim.DSM.String()
	a.N = 4
	a.CreatedBy = "trace_test"
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.Steps <= 0 || a.Steps > res.Steps {
		t.Fatalf("artifact Steps = %d, run took %d", a.Steps, res.Steps)
	}

	data, err := ChromeTrace(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateChrome(data); err != nil {
		t.Fatal(err)
	}

	// Decode and check the Perfetto-relevant structure directly.
	var ct struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   *int64         `json:"ts"`
			Dur  int64          `json:"dur"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &ct); err != nil {
		t.Fatal(err)
	}
	threads := map[int]string{}
	var spanEvents int
	for _, ev := range ct.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				threads[ev.Tid], _ = ev.Args["name"].(string)
			}
		case "X":
			spanEvents++
			if ev.Ts == nil {
				t.Fatalf("complete event without ts: %+v", ev)
			}
			if _, ok := ev.Args["rmrs"]; !ok {
				t.Fatalf("span event without rmrs arg: %+v", ev)
			}
		}
	}
	if len(threads) != 4 {
		t.Fatalf("thread_name metadata for %d procs, want 4: %v", len(threads), threads)
	}
	if threads[0] != "p0" {
		t.Fatalf("thread 0 named %q, want p0", threads[0])
	}
	if spanEvents != len(a.Spans) {
		t.Fatalf("%d span events for %d spans", spanEvents, len(a.Spans))
	}
}

// TestValidateChromeRejects: malformed traces are caught, not shrugged
// past.
func TestValidateChromeRejects(t *testing.T) {
	cases := []struct {
		name string
		data string
		want string
	}{
		{"not json", "{", "not valid JSON"},
		{"no array", `{}`, "no traceEvents"},
		{"no spans", `{"traceEvents":[{"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"p0"}}]}`, "no span events"},
		{"bad phase", `{"traceEvents":[{"name":"x","ph":"B","ts":0,"pid":0,"tid":0}]}`, "unsupported phase"},
		{"nameless span", `{"traceEvents":[{"name":"","ph":"X","ts":0,"dur":1,"pid":0,"tid":0}]}`, "without a name"},
		{"negative ts", `{"traceEvents":[{"name":"cs","ph":"X","ts":-1,"dur":1,"pid":0,"tid":0}]}`, "negative ts"},
		{"bad metadata", `{"traceEvents":[{"name":"weird","ph":"M","ts":0,"pid":0,"tid":0}]}`, "unknown metadata"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidateChrome([]byte(tc.data))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ValidateChrome = %v, want error containing %q", err, tc.want)
			}
		})
	}
}
