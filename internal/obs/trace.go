package obs

import (
	"fmt"
	"sort"
	"strings"
)

// TraceSchema identifies the trace-artifact format. Bump on
// incompatible changes; ReadTraceArtifact rejects artifacts from a
// different schema.
const TraceSchema = "fetchphi.trace/v1"

// TraceSpan is one interval of a process's span timeline, in
// scheduling steps. Spans come in two layers: phase spans (entry, cs,
// exit — one per critical-section attempt) and spin spans (one per
// maximal run of busy-wait re-checks, nested inside the phase that
// spun). The schema is simulator-free on purpose: trace artifacts can
// be produced, validated, and converted by any layer of the stack.
type TraceSpan struct {
	// Proc is the process id the span belongs to.
	Proc int `json:"proc"`
	// Kind is the span type: "entry", "cs", "exit", or "spin".
	Kind string `json:"kind"`
	// Start and End bound the span in scheduling steps
	// (half-open: Start ≤ step < End).
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	// RMRs counts the remote memory references charged to the process
	// inside the span (for spin spans: remote re-checks).
	RMRs int64 `json:"rmrs"`
	// Vars names the shared variables the process touched inside the
	// span, sorted.
	Vars []string `json:"vars,omitempty"`
	// Remote marks a span that includes at least one remote spin
	// re-check — the local-spin property violation a DSM timeline
	// makes visible at a glance.
	Remote bool `json:"remote,omitempty"`
	// Open marks a span that was still in progress when the run ended
	// (a process stuck in its entry section, an await that never
	// fired) — exactly the spans a flight-recorder dump is for.
	Open bool `json:"open,omitempty"`
}

// TraceArtifact is one recorded span timeline: the workload identity,
// why it was recorded, and the spans of every process. Flight-recorder
// dumps bound Spans per process, so the artifact holds the most recent
// window, not necessarily the whole run.
type TraceArtifact struct {
	// Schema is always the package TraceSchema constant.
	Schema string `json:"schema"`
	// Kind says how the artifact was produced: "recording" (explicit
	// capture, cmd/tracectl) or "flight-recorder" (automatic dump on
	// failure or gate regression).
	Kind string `json:"kind"`
	// Reason is why a flight-recorder artifact was dumped (violation
	// message, regression line); empty for explicit recordings.
	Reason string `json:"reason,omitempty"`
	// Cell is the benchmark cell key of the traced workload, when the
	// trace came from an experiment cell (see Cell.Key).
	Cell string `json:"cell,omitempty"`
	// Algorithm and Model describe the traced workload.
	Algorithm string `json:"algorithm,omitempty"`
	Model     string `json:"model,omitempty"`
	// N is the process count.
	N int `json:"n,omitempty"`
	// Steps is the traced run's total scheduling steps, when known.
	Steps int64 `json:"steps,omitempty"`
	// SpanLimit is the flight recorder's per-process span bound
	// (0 = unbounded).
	SpanLimit int `json:"span_limit,omitempty"`
	// CreatedBy names the tool that wrote the artifact.
	CreatedBy string `json:"created_by,omitempty"`
	// Spans is the timeline, ordered by (start, proc, kind).
	Spans []TraceSpan `json:"spans"`
}

// Sort orders spans canonically, making artifacts byte-stable.
func (a *TraceArtifact) Sort() {
	sort.SliceStable(a.Spans, func(i, j int) bool {
		x, y := a.Spans[i], a.Spans[j]
		if x.Start != y.Start {
			return x.Start < y.Start
		}
		if x.Proc != y.Proc {
			return x.Proc < y.Proc
		}
		// Longer spans first at equal start, so parents precede the
		// spin spans nested inside them.
		if x.End != y.End {
			return x.End > y.End
		}
		return x.Kind < y.Kind
	})
}

// Validate checks the artifact's schema invariants: the schema tag,
// span kinds, and interval sanity. It is what `tracectl validate` and
// the trace-smoke CI target run.
func (a *TraceArtifact) Validate() error {
	if a.Schema != TraceSchema {
		return fmt.Errorf("obs: trace artifact has schema %q, want %q", a.Schema, TraceSchema)
	}
	switch a.Kind {
	case "recording", "flight-recorder":
	default:
		return fmt.Errorf("obs: trace artifact kind %q, want recording or flight-recorder", a.Kind)
	}
	for i, s := range a.Spans {
		switch s.Kind {
		case "entry", "cs", "exit", "spin":
		default:
			return fmt.Errorf("obs: span %d has kind %q, want entry/cs/exit/spin", i, s.Kind)
		}
		if s.Proc < 0 || (a.N > 0 && s.Proc >= a.N) {
			return fmt.Errorf("obs: span %d has proc %d outside [0,%d)", i, s.Proc, a.N)
		}
		if s.End <= s.Start {
			return fmt.Errorf("obs: span %d is empty or inverted: [%d,%d)", i, s.Start, s.End)
		}
		if s.RMRs < 0 {
			return fmt.Errorf("obs: span %d has negative RMR count %d", i, s.RMRs)
		}
	}
	return nil
}

// TraceArtifactName returns the canonical file name for a cell's trace
// artifact: TRACE_<sanitized-key>.json, with every byte outside
// [A-Za-z0-9._-] replaced so cell keys (which contain '/') stay one
// path component.
func TraceArtifactName(cellKey string) string {
	var b strings.Builder
	for _, r := range cellKey {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			b.WriteRune(r)
		default:
			b.WriteByte('-')
		}
	}
	return fmt.Sprintf("TRACE_%s.json", b.String())
}

// WriteFile writes the artifact, sorted and validated, through
// WriteJSON.
func (a *TraceArtifact) WriteFile(path string) error {
	if a.Schema == "" {
		a.Schema = TraceSchema
	}
	a.Sort()
	if err := a.Validate(); err != nil {
		return err
	}
	return WriteJSON(path, a)
}

// ReadTraceArtifact loads and validates one trace artifact file.
func ReadTraceArtifact(path string) (*TraceArtifact, error) {
	a, err := ReadJSON(path, TraceSchema, func(a *TraceArtifact) string { return a.Schema })
	if err != nil {
		return nil, err
	}
	if err := a.Validate(); err != nil {
		return nil, fmt.Errorf("obs: %s: %w", path, err)
	}
	return a, nil
}
