package obs

import (
	"fmt"
	"strings"
)

// ExploreSchema identifies the model-check capacity artifact format
// written by cmd/explore: how much of an algorithm's preemption-bounded
// schedule space was covered, per memory model. Like bench and claims
// artifacts, explore artifacts make a CI capability (here: model-check
// throughput and exhaustion) a tracked, diffable record instead of a
// log line.
const ExploreSchema = "fetchphi.explore/v1"

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
	// Workers is the wave-shard worker count the check ran with
	// (informational: results are identical for every value).
	Workers int `json:"workers"`
	// Models holds one entry per memory model, in check order.
	Models []ExploreModel `json:"models"`
	// Checkpoint, when present, makes the artifact a resumable
	// campaign record: it carries the per-model wave frontier so a
	// killed coordinator (cmd/fleet serve or run) restarts
	// mid-campaign without re-running finished waves.
	// A complete campaign keeps its checkpoint with Complete=true —
	// the final artifact of a resumed run is byte-identical to an
	// uninterrupted one.
	Checkpoint *ExploreCheckpoint `json:"checkpoint,omitempty"`
	// WallMS is the end-to-end wall-clock time in milliseconds.
	// Nondeterministic by nature; comparisons should treat it like
	// the bench artifacts' wall-clock cells.
	WallMS float64 `json:"wall_ms,omitempty"`
	// SchedulesPerSec is total runs divided by wall time —
	// the model-check throughput headline. Nondeterministic.
	SchedulesPerSec float64 `json:"schedules_per_sec,omitempty"`
}

// ExploreModel is one memory model's coverage record.
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
	// schedule.
	FailingSchedule []ExplorePreemption `json:"failing_schedule,omitempty"`
}

// ExplorePreemption is the artifact form of one forced context switch.
type ExplorePreemption struct {
	Step int64 `json:"step"`
	Proc int   `json:"proc"`
}

// ExploreCheckpoint is the resumable-campaign extension of the explore
// artifact: everything a wave-synchronous driver needs to continue an
// exploration from the last completed wave. Waves are the checkpoint
// granule — a wave either completed (its children are the frontier) or
// it re-runs in full, which is safe because wave execution is a pure
// function of the machine.
type ExploreCheckpoint struct {
	// Complete is true once every model's exploration has finished
	// (exhausted, capped, or failed); the surrounding artifact is then
	// final and the checkpoint exists only as a record.
	Complete bool `json:"complete"`
	// Models holds one entry per configured memory model, in check
	// order, regardless of how far each has progressed.
	Models []ExploreModelCheckpoint `json:"models"`
}

// ExploreModelCheckpoint is one memory model's resume point.
type ExploreModelCheckpoint struct {
	// Model is the memory model name (CC, DSM, ...).
	Model string `json:"model"`
	// Done is true when this model's exploration finished: the space
	// was exhausted, the run cap was hit, or a failure was found. Its
	// final coverage then lives in the artifact's Models entry of the
	// same name.
	Done bool `json:"done"`
	// NextDepth is the preemption depth of the next wave to run.
	NextDepth int `json:"next_depth"`
	// Frontier is the full schedule wave pending at NextDepth, in
	// canonical order. A fresh model's frontier is the single empty
	// schedule (serialized as [null]).
	Frontier [][]ExplorePreemption `json:"frontier,omitempty"`
	// Runs and DepthRuns are the coverage completed so far; they
	// mirror the ExploreModel fields while the model is in progress.
	Runs      int   `json:"runs"`
	DepthRuns []int `json:"depth_runs,omitempty"`
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
