package trace

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"fetchphi/internal/core"
	"fetchphi/internal/harness"
	"fetchphi/internal/memsim"
	"fetchphi/internal/phi"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// gdsmRun runs the paper's DSM algorithm (G-DSM over fetch-and-
// increment) on a 3-process DSM machine with a recorder of the given
// span limit attached.
func gdsmRun(t testing.TB, limit, entries int) *Recorder {
	t.Helper()
	rec := NewRecorder(limit)
	w := harness.Workload{Model: memsim.DSM, N: 3, Entries: entries, CSOps: 1, Seed: 1, Sink: rec}
	build := func(m *memsim.Machine) harness.Algorithm { return core.NewGDSM(m, phi.FetchAndIncrement{}) }
	if _, err := harness.Run(build, w); err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestRecorderGolden pins the Artifact JSON of a G-DSM run at span
// limits 0, 3 (a ring that wraps many times) and 256 (one that never
// does), and of the stuck run's open spans. However the recorder stores
// its spans, every artifact must come out byte-identical. Regenerate
// with `go test ./internal/trace -run TestRecorderGolden -update` only
// after a deliberate change to what a span records.
func TestRecorderGolden(t *testing.T) {
	var b strings.Builder
	emit := func(title string, rec *Recorder) {
		data, err := json.MarshalIndent(rec.Artifact("flight-recorder"), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "# %s\n%s\n", title, data)
	}
	for _, limit := range []int{0, 3, 256} {
		emit(fmt.Sprintf("g-dsm DSM N=3 limit=%d", limit), gdsmRun(t, limit, 4))
	}
	emit("stuck run", stuckRun(t))

	path := filepath.Join("testdata", "recorder_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("artifact diverges from %s at line %d:\n got %q\nwant %q", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("artifact diverges from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}

// stream is a captured event stream, phase transitions included, with
// the labels of the variables its events touch, that can be replayed
// into a recorder.
type stream struct {
	events []streamEvent
	labels labelTable
}

type streamEvent struct {
	ev    memsim.TraceEvent
	phase memsim.PhaseEvent
	isPh  bool
}

func (s *stream) Record(ev memsim.TraceEvent) { s.events = append(s.events, streamEvent{ev: ev}) }

func (s *stream) RecordPhase(ev memsim.PhaseEvent) {
	s.events = append(s.events, streamEvent{phase: ev, isPh: true})
}

// EndRun implements memsim.EndSink: it keeps the label of every
// variable an event touched.
func (s *stream) EndRun(labels memsim.Labeler) {
	for _, e := range s.events {
		if !e.isPh {
			s.labels.set(e.ev.Var, labels.Label(e.ev.Var))
		}
	}
}

// replay feeds the whole stream to r, then ends its run.
func (s *stream) replay(r *Recorder) {
	replay(r, s.events)
	r.EndRun(s.labels)
}

// replay feeds events to r.
func replay(r *Recorder, events []streamEvent) {
	for i := range events {
		if events[i].isPh {
			r.RecordPhase(events[i].phase)
		} else {
			r.Record(events[i].ev)
		}
	}
}

// labelTable is a memsim.Labeler over labels kept by handle index.
type labelTable []string

func (l labelTable) Label(v memsim.Var) string { return l[v.Index()] }

func (l *labelTable) set(v memsim.Var, label string) {
	for len(*l) <= v.Index() {
		*l = append(*l, "")
	}
	(*l)[v.Index()] = label
}

// capture runs G-DSM on a DSM machine of n processes and returns its
// event stream.
func capture(t testing.TB, n, entries int) *stream {
	t.Helper()
	s := &stream{}
	w := harness.Workload{Model: memsim.DSM, N: n, Entries: entries, CSOps: 1, Seed: 1, Sink: s}
	build := func(m *memsim.Machine) harness.Algorithm { return core.NewGDSM(m, phi.FetchAndIncrement{}) }
	if _, err := harness.Run(build, w); err != nil {
		t.Fatal(err)
	}
	return s
}

// newVars allocates one variable per name on m, in order.
func newVars(m *memsim.Machine, names ...string) []memsim.Var {
	vs := make([]memsim.Var, len(names))
	for i, name := range names {
		vs[i] = m.NewVar(name, memsim.HomeGlobal, 0)
	}
	return vs
}

// cycle feeds one synthetic critical-section attempt of proc to r: an
// entry span with a nested spin span, a cs span and an exit span, each
// touching the given variables.
func cycle(r *Recorder, proc int, step *int64, vars []memsim.Var) {
	next := func() int64 { *step++; return *step }
	ev := func(kind memsim.TraceKind, v memsim.Var) {
		r.Record(memsim.TraceEvent{Step: next(), Proc: proc, Kind: kind, Var: v, Remote: true})
	}
	ph := func(from, to memsim.Phase) {
		r.RecordPhase(memsim.PhaseEvent{Step: next(), Proc: proc, From: from, To: to})
	}
	ph(memsim.PhaseNCS, memsim.PhaseEntry)
	for _, v := range vars {
		ev(memsim.TraceWrite, v)
	}
	ev(memsim.TraceSpinRead, vars[0])
	ev(memsim.TraceSpinRead, vars[len(vars)-1])
	ev(memsim.TraceRMW, vars[0])
	ph(memsim.PhaseEntry, memsim.PhaseCS)
	ev(memsim.TraceRead, vars[len(vars)-1])
	ph(memsim.PhaseCS, memsim.PhaseExit)
	ev(memsim.TraceWrite, vars[0])
	ph(memsim.PhaseExit, memsim.PhaseNCS)
}

// TestSpansSurviveRingWrap: the spans Spans returns own their names, so
// recording on past a ring wrap, which reuses the slots they came from,
// leaves them unchanged.
func TestSpansSurviveRingWrap(t *testing.T) {
	m := memsim.NewMachine(memsim.CC, 1)
	rec := NewRecorder(4)
	var step int64
	for k := 0; k < 3; k++ {
		cycle(rec, 0, &step, newVars(m, "b", "a", fmt.Sprint("v", k)))
	}
	rec.EndRun(m)
	spans := rec.Spans()
	before, err := json.Marshal(spans)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5; k++ {
		cycle(rec, 0, &step, newVars(m, "z", "y", "x", fmt.Sprint("w", k)))
	}
	rec.EndRun(m)
	after, err := json.Marshal(spans)
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatalf("returned spans changed as recording went on:\nbefore %s\nafter  %s", before, after)
	}
	if len(spans) != 4 || spans[0].Vars[0] != "a" {
		t.Fatalf("want the 4-span window with sorted names, got %+v", spans)
	}
	if got := rec.Spans()[0].Vars; !slices.Equal(got, []string{"w4", "x", "y", "z"}) {
		t.Fatalf("after the wrap the oldest span names %v, want [w4 x y z]", got)
	}
}

// TestSpansDedupByLabel: distinct variables may share a label (CLH's
// queue nodes), and a span names each label once, sorted, as the
// recorder always has; variables are told apart by handle while
// recording, and their labels only when the run ends.
func TestSpansDedupByLabel(t *testing.T) {
	m := memsim.NewMachine(memsim.CC, 1)
	rec := NewRecorder(0)
	var step int64
	vars := newVars(m, "node", "tail", "node", "node")
	cycle(rec, 0, &step, vars)
	rec.EndRun(m)
	spans := rec.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want entry, spin, cs and exit", len(spans))
	}
	want := map[string][]string{
		"entry": {"node", "tail"}, // four variables, two labels
		"spin":  {"node"},         // two distinct node variables
		"cs":    {"node"},
		"exit":  {"node"},
	}
	for _, s := range spans {
		if !slices.Equal(s.Vars, want[s.Kind]) {
			t.Errorf("%s span names %v, want %v", s.Kind, s.Vars, want[s.Kind])
		}
	}
}

// TestSpansNeedEndRun: a recorder whose run never ended, such as one
// behind a sink wrapper that does not forward EndRun, cannot name its
// spans' variables, and says so instead of writing wrong names.
func TestSpansNeedEndRun(t *testing.T) {
	m := memsim.NewMachine(memsim.CC, 1)
	rec := NewRecorder(0)
	var step int64
	cycle(rec, 0, &step, newVars(m, "a"))
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "EndSink") {
			t.Fatalf("Spans without EndRun: recovered %v, want a panic naming memsim.EndSink", r)
		}
	}()
	rec.Spans()
}

// TestRecordAllocatesNothingOnWrappedRing: once every process's ring
// has wrapped, recording reuses its storage.
func TestRecordAllocatesNothingOnWrappedRing(t *testing.T) {
	rec := NewRecorder(4)
	vars := newVars(memsim.NewMachine(memsim.CC, 2), "Queue", "Signal[1]", "Position[0]")
	var step int64
	for k := 0; k < 8; k++ {
		cycle(rec, 0, &step, vars)
		cycle(rec, 1, &step, vars)
	}
	allocs := testing.AllocsPerRun(100, func() {
		cycle(rec, 0, &step, vars)
		cycle(rec, 1, &step, vars)
	})
	if allocs != 0 {
		t.Fatalf("Record/RecordPhase on wrapped rings: %v allocations per cycle, want 0", allocs)
	}
}

// retained returns the span slots and name slots the recorder holds,
// open spans included: the quantity its window bounds.
func (r *Recorder) retained() (spans, names int) {
	for i := range r.procs {
		tl := &r.procs[i]
		spans += cap(tl.spans.spans)
		names += cap(tl.spans.handles) + cap(tl.phaseVars) + cap(tl.spin.vars)
		for j := range tl.spans.spans {
			names += cap(tl.spans.spans[j].vars)
		}
	}
	return spans, names
}

// TestRecorderRetainsWindowOnly: on a long run at limit 4, the storage
// a recorder holds stops growing once its rings have wrapped: what it
// retains is bounded by the window, not the run length.
func TestRecorderRetainsWindowOnly(t *testing.T) {
	const n, limit = 3, 4
	s := capture(t, n, 200)
	rec := NewRecorder(limit)
	half := len(s.events) / 2
	replay(rec, s.events[:half])
	midSpans, midNames := rec.retained()
	replay(rec, s.events[half:])
	spans, names := rec.retained()
	if spans != midSpans || names != midNames {
		t.Fatalf("retained storage grew from %d spans, %d names at mid-run to %d, %d at the end",
			midSpans, midNames, spans, names)
	}
	if spans > 2*n*limit {
		t.Fatalf("%d span slots retained for %d processes at limit %d", spans, n, limit)
	}
}

// BenchmarkRecorder replays a G-DSM event stream (N=8, DSM) into a
// fresh recorder per iteration and ends its run, as a sweep cell does,
// and reports the cost per event, label resolution included: ns/event
// and B/event.
func BenchmarkRecorder(b *testing.B) {
	s := capture(b, 8, 10)
	for _, limit := range []int{DefaultSpanLimit, 4} {
		b.Run(fmt.Sprintf("limit=%d", limit), func(b *testing.B) {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.replay(NewRecorder(limit))
			}
			b.StopTimer()
			runtime.ReadMemStats(&ms)
			events := float64(b.N) * float64(len(s.events))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
			b.ReportMetric(float64(ms.TotalAlloc-before)/events, "B/event")
		})
	}
}
