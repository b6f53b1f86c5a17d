package obs

// The capacity artifact (fetchphi.capacity/v2) is one campaign's
// throughput record: how fast the fleet chewed through a model-check
// schedule space, and how much lease churn it took. It is written next
// to the fetchphi.explore/v3 checkpoint by the fleet coordinator,
// rewritten after every wave, and finalized with Complete=true. It
// holds campaign totals only: a model's waves and schedules are
// len(depth_runs) and runs of that model's row in the checkpoint.
//
// Determinism contract: every duration in the artifact is measured
// through the campaign's injectable telemetry clock, and only
// campaign-level aggregates are recorded — never per-worker rows.
// Which worker ran which lease is scheduling noise (it legitimately
// differs between runs and worker counts), so per-worker rates stay
// live telemetry on /v1/metrics while the artifact remains a pure
// function of (campaign, clock): byte-identical across {1,2,4} workers
// under a fake clock, which the fleet test suite pins.

// CapacitySchema identifies the campaign-capacity artifact format.
const CapacitySchema = "fetchphi.capacity/v2"

// CapacityArtifact is one campaign's capacity record.
type CapacityArtifact struct {
	// Schema is always the CapacitySchema constant.
	Schema string `json:"schema"`
	// Algorithm is the registry name of the algorithm checked.
	Algorithm string `json:"algorithm"`
	// CreatedBy names the tool that wrote the artifact.
	CreatedBy string `json:"created_by,omitempty"`
	// Commit is the repository commit, when known.
	Commit string `json:"commit,omitempty"`
	// N, Entries, Preemptions, MaxRuns are the campaign configuration.
	N           int `json:"n"`
	Entries     int `json:"entries"`
	Preemptions int `json:"preemptions"`
	MaxRuns     int `json:"max_runs"`
	// Complete is true once the campaign finished; a live campaign's
	// artifact (rewritten per wave) carries false.
	Complete bool `json:"complete"`
	// ElapsedMS is the campaign's elapsed time per the telemetry clock.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Waves and Schedules count completed waves and executed schedules
	// across all models.
	Waves     int64 `json:"waves"`
	Schedules int64 `json:"schedules"`
	// SchedulesPerSec is the campaign throughput headline:
	// Schedules over ElapsedMS. Deterministic under a fake clock,
	// wall-clock-honest in production.
	SchedulesPerSec float64 `json:"schedules_per_sec"`
	// Leases, ReLeases, StaleReports are the campaign's cumulative
	// lease counters.
	Leases       int64 `json:"leases"`
	ReLeases     int64 `json:"re_leases"`
	StaleReports int64 `json:"stale_reports"`
	// ReLeaseRate is ReLeases/Leases (0 when no leases) — the fleet's
	// churn headline: how much work had to be re-offered because a
	// worker went quiet past its deadline.
	ReLeaseRate float64 `json:"re_lease_rate"`
	// WaveUS is the distribution of wave execution times in
	// microseconds, per the telemetry clock.
	WaveUS Histogram `json:"wave_us"`
}

// WriteFile writes the artifact through WriteJSON.
func (a *CapacityArtifact) WriteFile(path string) error {
	if a.Schema == "" {
		a.Schema = CapacitySchema
	}
	return WriteJSON(path, a)
}

// ReadCapacityArtifact loads and validates one capacity artifact file.
func ReadCapacityArtifact(path string) (*CapacityArtifact, error) {
	return ReadJSON(path, CapacitySchema, func(a *CapacityArtifact) string { return a.Schema })
}
