// Package trace is the streaming trace subsystem: a memsim event sink
// that converts the raw per-operation event stream into per-process
// span timelines — entry/CS/exit phase spans and per-Await spin spans,
// each annotated with RMR counts, the variables touched, and
// local-vs-remote classification — plus a flight recorder (a bounded
// per-process ring of recent spans) and a Chrome trace-event exporter
// whose output loads directly in Perfetto (ui.perfetto.dev).
//
// The RMR bounds the experiments reproduce are statements about
// per-process access sequences; aggregate histograms cannot say which
// process spun remotely, on which variable, in which phase. A span
// timeline can, and a flight-recorder dump turns every invariant
// violation, starvation timeout, or gate regression into an artifact
// of the spans that led up to it.
//
// Recording is observation-only: it costs no simulated steps or RMRs
// (the sink contract), so attaching a Recorder never changes measured
// metrics — only wall-clock time.
//
// Record on demand. Simulated runs are deterministic, so a Recorder
// need not watch its run: it is a harness.ReplaySink, and the harness
// hands it a replay of any run its workload reproduces (one on the
// default scheduler) instead of attaching it. The first Spans or
// Artifact call runs that replay, once, with the recorder attached,
// and gives the artifact a live recording would have given. A sweep
// that reads only its failing cells' recorders thus records only
// those cells. Runs on an explicit scheduler record live.
//
// Storage. A recorder keeps closed spans in a compact form (interval,
// RMRs, the handles of the variables touched, and the kind as a phase
// plus a spin flag) and builds obs.TraceSpan values only when Spans or
// Artifact is called. Each process's ring owns its spans and their
// handle storage: once a bounded ring wraps, a new span overwrites the
// oldest slot and copies its handles into that slot's buffer, and the
// open phase and spin spans reuse their handle sets from span to span.
// Past warm-up, recording allocates nothing, and the bytes a recorder
// retains are proportional to its window (limit × processes × variables
// per span), not to the length of the run.
//
// Labels. Events name variables by memsim.Var handle, which the
// machine recycles at Release, and the engine formats no label while
// the run is on. When the run ends (memsim.EndSink), the recorder
// resolves the labels of the handles its retained and open spans hold,
// once each, into a table indexed by handle; Spans maps, sorts and
// deduplicates names from it. Distinct variables may share a label
// (CLH's queue nodes, say), and a span lists each name once. A sink
// that wraps a Recorder must forward EndRun to it; a Recorder that
// never saw the end of its run cannot name its spans' variables.
package trace

import (
	"fmt"
	"slices"

	"fetchphi/internal/memsim"
	"fetchphi/internal/obs"
)

// DefaultSpanLimit is the flight recorder's default per-process span
// bound: enough to hold the last several critical-section attempts of
// a process at typical span rates (~4 phase + a few spin spans per
// entry) while keeping a 256-process sweep cell around a megabyte.
const DefaultSpanLimit = 256

// Recorder is a memsim.PhaseSink that builds span timelines. Attach
// one per machine (memsim.Machine.AttachSink) before the run, or hand
// it a replay of the run (Defer); read the timeline with Spans or
// Artifact after it. A Recorder belongs to one run: like the machine
// itself it is not safe for concurrent use, and the sweep engine's
// per-cell plumbing (harness.Workload.Sink) keeps each cell's recorder
// on that cell's worker while the cell runs.
type Recorder struct {
	// limit bounds retained spans per process (flight recorder);
	// 0 or negative retains everything.
	limit    int
	procs    []timeline
	lastStep int64
	// labels holds, at each resolved handle's Index, its label (see
	// EndRun).
	labels []string
	// replay, until it has run, re-runs the recorder's run with the
	// recorder attached (see Defer).
	replay func()
}

// NewRecorder returns a recorder retaining at most limit spans per
// process (the flight-recorder window); limit <= 0 retains the whole
// run.
func NewRecorder(limit int) *Recorder {
	return &Recorder{limit: limit}
}

// timeline accumulates one process's spans.
type timeline struct {
	spans ring

	// The open phase span (PhaseNCS = none).
	phase      memsim.Phase
	phaseStart int64
	phaseRMRs  int64
	phaseVars  varset

	// The open spin span, valid while spinning.
	spin     spinSpan
	spinning bool
}

// spinSpan is the under-construction spin span. Its vars keep their
// storage from one spin to the next.
type spinSpan struct {
	start, last int64
	rmrs        int64
	vars        varset
	remote      bool
}

// varset is a small set of variable handles in first-touch order: the
// variables touched inside one span are few, so a scan beats a map.
type varset []memsim.Var

func (s *varset) add(v memsim.Var) {
	for _, x := range *s {
		if x == v {
			return
		}
	}
	*s = append(*s, v)
}

// span is a closed span as the ring retains it. Its kind is "spin"
// when spin is set and phase's name otherwise; vars is storage of the
// ring slot holding the span.
type span struct {
	start, end int64
	rmrs       int64
	vars       []memsim.Var
	phase      memsim.Phase
	spin       bool
	remote     bool
}

// ring is a bounded span buffer; cap <= 0 means unbounded.
type ring struct {
	cap    int
	spans  []span
	next   int
	filled bool
	// handles is unused handle storage, carved into the vars buffers of
	// slots whose buffer is too small for the span they receive.
	handles []memsim.Var
}

// push stores a closed span in the next slot, overwriting the oldest
// span once a bounded ring is full. The span's handles are copied into
// the slot's own buffer.
func (r *ring) push(sp span, vars varset) {
	var slot *span
	if r.cap <= 0 || len(r.spans) < r.cap {
		r.spans = append(r.spans, span{})
		slot = &r.spans[len(r.spans)-1]
		if r.cap > 0 {
			r.next = len(r.spans) % r.cap
		}
	} else {
		slot = &r.spans[r.next]
		r.next++
		if r.next == r.cap {
			r.next = 0
		}
		r.filled = true
	}
	buf := slot.vars[:0]
	if cap(buf) < len(vars) {
		// A reused slot at least doubles, so it regrows only a few
		// times however long the run.
		buf = r.carve(max(len(vars), 2*cap(buf)))
	}
	sp.vars = append(buf, vars...)
	*slot = sp
}

// carve returns an empty buffer of capacity n from the ring's handle
// storage. When that runs out, the next block holds at least two
// handles for each span the ring holds so far, so blocks grow with the
// ring.
func (r *ring) carve(n int) []memsim.Var {
	if len(r.handles) < n {
		r.handles = make([]memsim.Var, max(n, 2*len(r.spans), 8))
	}
	buf := r.handles[:0:n]
	r.handles = r.handles[n:]
	return buf
}

// each calls f on the retained spans, oldest first.
func (r *ring) each(f func(*span)) {
	older, newer := r.spans, []span(nil)
	if r.cap > 0 && r.filled {
		older, newer = r.spans[r.next:], r.spans[:r.next]
	}
	for i := range older {
		f(&older[i])
	}
	for i := range newer {
		f(&newer[i])
	}
}

// Defer implements harness.ReplaySink: the recorder keeps replay and
// runs it, once, when Spans or Artifact is first called.
func (r *Recorder) Defer(replay func()) { r.replay = replay }

// fill runs the pending replay, if any.
func (r *Recorder) fill() {
	if replay := r.replay; replay != nil {
		r.replay = nil
		replay()
	}
}

func (r *Recorder) timeline(proc int) *timeline {
	for len(r.procs) <= proc {
		r.procs = append(r.procs, timeline{
			spans: ring{cap: r.limit},
			phase: memsim.PhaseNCS,
		})
	}
	return &r.procs[proc]
}

// Record implements memsim.EventSink: every shared-memory operation
// extends the acting process's open phase span, and spin re-checks
// open/extend a nested spin span that the next non-spin operation
// closes.
func (r *Recorder) Record(ev memsim.TraceEvent) {
	if ev.Step > r.lastStep {
		r.lastStep = ev.Step
	}
	tl := r.timeline(ev.Proc)
	if ev.Kind == memsim.TraceSpinRead {
		if !tl.spinning {
			tl.spinning = true
			tl.spin = spinSpan{start: ev.Step, vars: tl.spin.vars[:0]}
		}
		tl.spin.last = ev.Step
		tl.spin.vars.add(ev.Var)
		if ev.Remote {
			tl.spin.rmrs++
			tl.spin.remote = true
		}
	} else if tl.spinning {
		tl.closeSpin(ev.Step)
	}
	if tl.phase != memsim.PhaseNCS {
		tl.phaseVars.add(ev.Var)
		if ev.Remote {
			tl.phaseRMRs++
		}
	}
}

// RecordPhase implements memsim.PhaseSink: a transition closes the
// open spin and phase spans and opens the next phase span.
func (r *Recorder) RecordPhase(ev memsim.PhaseEvent) {
	if ev.Step > r.lastStep {
		r.lastStep = ev.Step
	}
	tl := r.timeline(ev.Proc)
	if tl.spinning {
		tl.closeSpin(ev.Step)
	}
	tl.closePhase(ev.Step)
	tl.phase = ev.To
	tl.phaseStart = ev.Step
	tl.phaseRMRs = 0
	tl.phaseVars = tl.phaseVars[:0]
}

// closeSpin emits the open spin span, ending it just after its last
// re-check (spans are half-open) but never past the closing step.
func (tl *timeline) closeSpin(step int64) {
	end := tl.spin.last + 1
	if step > 0 && step < end {
		end = step
	}
	if end <= tl.spin.start {
		end = tl.spin.start + 1
	}
	tl.spans.push(span{
		start:  tl.spin.start,
		end:    end,
		rmrs:   tl.spin.rmrs,
		spin:   true,
		remote: tl.spin.remote,
	}, tl.spin.vars)
	tl.spinning = false
}

// closePhase emits the open phase span, if any. NCS intervals are the
// timeline's gaps, not spans.
func (tl *timeline) closePhase(step int64) {
	if tl.phase == memsim.PhaseNCS {
		return
	}
	end := step
	if end <= tl.phaseStart {
		end = tl.phaseStart + 1
	}
	tl.spans.push(span{
		start: tl.phaseStart,
		end:   end,
		rmrs:  tl.phaseRMRs,
		phase: tl.phase,
	}, tl.phaseVars)
}

// EndRun implements memsim.EndSink: it resolves the label of every
// handle a retained or open span holds, once each, while the machine
// can still name them.
func (r *Recorder) EndRun(labels memsim.Labeler) {
	top := 0
	r.eachVars(func(vars []memsim.Var) {
		for _, v := range vars {
			top = max(top, v.Index())
		}
	})
	if top >= len(r.labels) {
		r.labels = append(r.labels, make([]string, top+1-len(r.labels))...)
	}
	r.eachVars(func(vars []memsim.Var) {
		for _, v := range vars {
			if l := &r.labels[v.Index()]; *l == "" {
				*l = labels.Label(v)
			}
		}
	})
}

// eachVars calls f on the handles of every retained and open span.
func (r *Recorder) eachVars(f func([]memsim.Var)) {
	for i := range r.procs {
		tl := &r.procs[i]
		tl.spans.each(func(s *span) { f(s.vars) })
		if tl.spinning {
			f(tl.spin.vars)
		}
		if tl.phase != memsim.PhaseNCS {
			f(tl.phaseVars)
		}
	}
}

// label returns v's label as EndRun resolved it.
func (r *Recorder) label(v memsim.Var) string {
	if i := v.Index(); i < len(r.labels) {
		return r.labels[i]
	}
	panic(fmt.Sprintf("trace: variable #%d has no label: the recorder was not told its run ended (memsim.EndSink)", v.Index()))
}

// Spans returns every retained span, canonically ordered. Spans still
// open when the run ended (a process stuck mid-entry, an await that
// never fired) are closed at the step after the last recorded event
// and marked Open — the first thing to look at in a failure dump. The
// recorder itself is not consumed: Spans can be called repeatedly, and
// the spans it returns own their storage, so recording on does not
// change them. Each span lists the labels of the variables it touched,
// sorted, each label once, as EndRun resolved them; Spans panics if
// EndRun was never called on a recorder with variables to name.
func (r *Recorder) Spans() []obs.TraceSpan {
	r.fill()
	var count, names int
	r.eachVars(func(vars []memsim.Var) { count, names = count+1, names+len(vars) })
	if count == 0 {
		return nil
	}
	spans := make([]obs.TraceSpan, 0, count)
	store := make([]string, 0, names)
	// export appends the span with the labels of vars in store.
	export := func(proc int, s span, vars []memsim.Var, open bool) {
		ts := obs.TraceSpan{
			Proc:   proc,
			Kind:   "spin",
			Start:  s.start,
			End:    s.end,
			RMRs:   s.rmrs,
			Remote: s.remote,
			Open:   open,
		}
		if !s.spin {
			ts.Kind = s.phase.String()
		}
		if len(vars) > 0 {
			from := len(store)
			for _, v := range vars {
				store = append(store, r.label(v))
			}
			names := store[from:]
			slices.Sort(names)
			names = slices.Compact(names)
			store = store[:from+len(names)]
			ts.Vars = names[:len(names):len(names)]
		}
		spans = append(spans, ts)
	}
	end := r.lastStep + 1
	for proc := range r.procs {
		tl := &r.procs[proc]
		tl.spans.each(func(s *span) { export(proc, *s, s.vars, false) })
		if tl.spinning {
			export(proc, span{
				start:  tl.spin.start,
				end:    max(tl.spin.last+1, tl.spin.start+1),
				rmrs:   tl.spin.rmrs,
				spin:   true,
				remote: tl.spin.remote,
			}, tl.spin.vars, true)
		}
		if tl.phase != memsim.PhaseNCS {
			export(proc, span{
				start: tl.phaseStart,
				end:   max(end, tl.phaseStart+1),
				rmrs:  tl.phaseRMRs,
				phase: tl.phase,
			}, tl.phaseVars, true)
		}
	}
	a := obs.TraceArtifact{Spans: spans}
	a.Sort()
	return a.Spans
}

// Artifact packages the recorder's timeline as a fetchphi.trace/v1
// artifact. kind is "recording" or "flight-recorder"; the workload
// identity fields are the caller's (the recorder only sees process
// ids).
func (r *Recorder) Artifact(kind string) *obs.TraceArtifact {
	r.fill()
	return &obs.TraceArtifact{
		Schema:    obs.TraceSchema,
		Kind:      kind,
		SpanLimit: max(r.limit, 0),
		Steps:     r.lastStep,
		Spans:     r.Spans(),
	}
}
