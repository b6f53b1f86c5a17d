package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"fetchphi/internal/core"
	"fetchphi/internal/experiments"
	"fetchphi/internal/harness"
	"fetchphi/internal/memsim"
	"fetchphi/internal/phi"
)

// liveSink forwards every event to a Recorder but not its Defer, so
// the harness attaches it for the whole run.
type liveSink struct{ r *Recorder }

func (s liveSink) Record(ev memsim.TraceEvent)      { s.r.Record(ev) }
func (s liveSink) RecordPhase(ev memsim.PhaseEvent) { s.r.RecordPhase(ev) }
func (s liveSink) EndRun(labels memsim.Labeler)     { s.r.EndRun(labels) }

// artifactJSON is the recorder's flight-recorder artifact as bytes.
func artifactJSON(t *testing.T, rec *Recorder) []byte {
	t.Helper()
	data, err := json.Marshal(rec.Artifact("flight-recorder"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestFlightReplayMatchesLiveRecording sweeps every simulated
// experiment of the quick sweep at seed 1 with a recorder per cell, as
// cmd/report does, then runs each cell again with a recorder attached
// live. Every cell on the default scheduler must have been handed a
// replay rather than recorded, and the replayed artifact must equal
// the live one byte for byte; every other cell must have been recorded
// as it ran.
func TestFlightReplayMatchesLiveRecording(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick sweep three times")
	}
	type recorded struct {
		cell harness.Cell
		rec  *Recorder
	}
	var cells []recorded
	for _, e := range experiments.Registry() {
		if e.WallClock {
			continue
		}
		e.Build(experiments.Opts{Quick: true, Seed: 1, Sink: func(c harness.Cell) memsim.EventSink {
			rec := NewRecorder(DefaultSpanLimit)
			cells = append(cells, recorded{c, rec})
			return rec
		}})
	}
	deferred := 0
	for _, c := range cells {
		name := fmt.Sprintf("%s %s %v N=%d", c.cell.Experiment, c.cell.Algorithm, c.cell.Workload.Model, c.cell.Workload.N)
		if (c.rec.replay != nil) != (c.cell.Workload.Sched == nil) {
			t.Fatalf("%s: replay pending = %v with Sched %v", name, c.rec.replay != nil, c.cell.Workload.Sched)
		}
		if c.rec.replay == nil {
			// A scheduler of its own (E7's adversary) keeps state, so
			// the cell cannot be run again: it was recorded live.
			if len(c.rec.procs) == 0 {
				t.Fatalf("%s: recorded nothing live", name)
			}
			continue
		}
		deferred++
		live := NewRecorder(DefaultSpanLimit)
		w := c.cell.Workload
		w.Sink = liveSink{live}
		harness.Run(c.cell.Build, w)
		if got, want := artifactJSON(t, c.rec), artifactJSON(t, live); !bytes.Equal(got, want) {
			t.Fatalf("%s: replayed artifact differs from the live one:\n got %.300s\nwant %.300s", name, got, want)
		}
	}
	if deferred == 0 {
		t.Fatal("no cell was deferred")
	}
	t.Logf("%d cells, %d replayed", len(cells), deferred)
}

// TestFlightRecorderReplaysOnce: a deferred recorder re-runs its cell
// on the first read only; further reads, through Spans or Artifact,
// return the same timeline without building the algorithm again.
func TestFlightRecorderReplaysOnce(t *testing.T) {
	builds := 0
	build := func(m *memsim.Machine) harness.Algorithm {
		builds++
		return core.NewGDSM(m, phi.FetchAndIncrement{})
	}
	rec := NewRecorder(DefaultSpanLimit)
	w := harness.Workload{Model: memsim.DSM, N: 3, Entries: 4, CSOps: 1, Seed: 1, Sink: rec}
	if _, err := harness.Run(build, w); err != nil {
		t.Fatal(err)
	}
	if builds != 1 || rec.lastStep != 0 {
		t.Fatalf("after the run: %d builds, last step %d; want 1 build and nothing recorded", builds, rec.lastStep)
	}
	first := artifactJSON(t, rec)
	if builds != 2 {
		t.Fatalf("first read: %d builds, want 2", builds)
	}
	spans := rec.Spans()
	second := artifactJSON(t, rec)
	if builds != 2 {
		t.Fatalf("later reads: %d builds, want 2", builds)
	}
	if len(spans) == 0 || !bytes.Equal(first, second) {
		t.Fatalf("a second read changed the artifact (%d spans)", len(spans))
	}
}
