package obs

import (
	"fmt"
	"io"
	"strings"

	"fetchphi/internal/memsim"
)

// ExploreSchema identifies the model-check capacity artifact format
// written by cmd/explore: how much of an algorithm's preemption-bounded
// schedule space was covered, per memory model. Like bench and claims
// artifacts, explore artifacts make a CI capability (here: model-check
// throughput and exhaustion) a tracked, diffable record instead of a
// log line. Schedules are flat step/proc pairs (Pairs), and a model's
// coverage and, in a campaign checkpoint, its resume point are one row
// (ExploreModel).
const ExploreSchema = "fetchphi.explore/v3"

// ExploreArtifactName returns the canonical file name for an
// algorithm's exploration artifact (EXPLORE_g-dsm.json, ...).
// Algorithm names may contain '/' (primitive variants like "g-cc/fas"),
// which is flattened so the name stays a single path element.
func ExploreArtifactName(algorithm string) string {
	return fmt.Sprintf("EXPLORE_%s.json", strings.ReplaceAll(algorithm, "/", "-"))
}

// ExploreArtifact is one model-check run's persistent record: the
// configuration, and per memory model the coverage the explorer
// achieved. All fields except the wall-clock ones are bit-reproducible
// for a given configuration and commit.
type ExploreArtifact struct {
	// Schema is always the ExploreSchema constant.
	Schema string `json:"schema"`
	// Algorithm is the registry name of the algorithm checked.
	Algorithm string `json:"algorithm"`
	// CreatedBy names the tool that wrote the artifact.
	CreatedBy string `json:"created_by,omitempty"`
	// Commit is the repository commit, when known.
	Commit string `json:"commit,omitempty"`
	// N, Entries, Preemptions, MaxRuns are the check configuration.
	// Preemptions is the literal bound: 0 really means a
	// non-preemptive check.
	N           int `json:"n"`
	Entries     int `json:"entries"`
	Preemptions int `json:"preemptions"`
	MaxRuns     int `json:"max_runs"`
	// Workers is the wave-shard worker count cmd/explore ran with
	// (informational: results are identical for every value). A
	// campaign, whose workers come and go, leaves it out.
	Workers int `json:"workers,omitempty"`
	// Models holds one row per memory model, in check order.
	Models []ExploreModel `json:"models"`
	// Checkpoint marks a resumable campaign record, written by the
	// fleet coordinator (cmd/fleet serve or run) after every wave: a
	// killed coordinator restarts from it without re-running finished
	// waves. Each unfinished model's row holds its resume point
	// (Pending); the campaign is complete once no row does, and the
	// final artifact of a resumed run is byte-identical to an
	// uninterrupted one.
	Checkpoint bool `json:"checkpoint,omitempty"`
	// WallMS is the end-to-end wall-clock time in milliseconds.
	// Nondeterministic by nature; comparisons should treat it like
	// the bench artifacts' wall-clock cells.
	WallMS float64 `json:"wall_ms,omitempty"`
	// SchedulesPerSec is total runs divided by wall time —
	// the model-check throughput headline. Nondeterministic.
	SchedulesPerSec float64 `json:"schedules_per_sec,omitempty"`
}

// ExploreModel is one memory model's row: its coverage and, while a
// campaign has not finished the model, its resume point.
type ExploreModel struct {
	// Model is the memory model name (CC, DSM, ...).
	Model string `json:"model"`
	// Runs is the number of schedules executed.
	Runs int `json:"runs"`
	// Exhausted is true iff the whole preemption-bounded space fit
	// within MaxRuns.
	Exhausted bool `json:"exhausted"`
	// DepthRuns is the schedules executed per preemption depth; its
	// sum equals Runs.
	DepthRuns []int `json:"depth_runs"`
	// Failure is the failing run's error, empty when the model passed.
	Failure string `json:"failure,omitempty"`
	// FailingSchedule reproduces the failure (memsim replay), present
	// only with Failure. It is the canonically smallest failing
	// schedule; the root schedule is nil and omitted.
	FailingSchedule Pairs `json:"failing_schedule,omitempty"`
	// Pending is the resume point of a model a campaign has not
	// finished, whose Runs and DepthRuns count the waves completed so
	// far. It is absent once the model is done (its space exhausted,
	// the run cap hit, or a failure found) and in cmd/explore's rows.
	Pending *ExplorePending `json:"pending,omitempty"`
}

// ExplorePending is an unfinished model's resume point: the wave a
// campaign runs next. Waves are the checkpoint granule — a wave either
// completed (its children are the pending wave) or it re-runs in full,
// which is safe because wave execution is a pure function of the
// machine.
type ExplorePending struct {
	// NextDepth is the preemption depth of the pending wave; it equals
	// len(DepthRuns) of the row.
	NextDepth int `json:"next_depth"`
	// Frontier is the pending wave's slab: its schedules in canonical
	// order, back to back, NextDepth preemptions each — the pairs a
	// lease for the whole wave carries. At NextDepth 0 it is absent and
	// the pending wave is the root schedule alone.
	Frontier Pairs `json:"frontier,omitempty"`
}

// ExploreRecord converts one model's finished exploration into its
// row: the single conversion behind cmd/explore's artifact and a
// campaign's done rows.
func ExploreRecord(model memsim.Model, res memsim.ExploreResult) ExploreModel {
	em := ExploreModel{
		Model:     model.String(),
		Runs:      res.Runs,
		Exhausted: res.Exhausted,
		DepthRuns: append([]int(nil), res.DepthRuns...),
	}
	if res.Err != nil {
		em.Failure = res.Err.Error()
		em.FailingSchedule = res.FailingSchedule
	}
	return em
}

// WriteCoverage writes one verdict line per row — the model, its
// schedule count, whether its space was exhausted and its runs per
// depth — as cmd/explore and cmd/fleet print them.
func WriteCoverage(w io.Writer, models []ExploreModel) {
	for _, m := range models {
		status := "exhausted"
		if !m.Exhausted {
			status = "NOT exhausted"
		}
		fmt.Fprintf(w, "%s: %d schedules (%s; per-depth %v)\n", m.Model, m.Runs, status, m.DepthRuns)
	}
}

// TotalRuns sums the explored schedules over all models.
func (a *ExploreArtifact) TotalRuns() int {
	total := 0
	for _, m := range a.Models {
		total += m.Runs
	}
	return total
}

// AllExhausted reports whether every model's space was fully covered.
func (a *ExploreArtifact) AllExhausted() bool {
	for _, m := range a.Models {
		if !m.Exhausted {
			return false
		}
	}
	return len(a.Models) > 0
}

// WriteFile writes the artifact through WriteJSON: a crashed run
// never leaves a truncated artifact behind.
func (a *ExploreArtifact) WriteFile(path string) error {
	if a.Schema == "" {
		a.Schema = ExploreSchema
	}
	return WriteJSON(path, a)
}

// ReadExploreArtifact loads and validates one explore artifact file.
func ReadExploreArtifact(path string) (*ExploreArtifact, error) {
	return ReadJSON(path, ExploreSchema, func(a *ExploreArtifact) string { return a.Schema })
}
