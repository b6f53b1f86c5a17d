// Package fleet distributes the wave-synchronous model checker across
// machines: a coordinator decomposes each schedule wave into contiguous
// index-range leases with deadlines, workers claim leases over plain
// HTTP+JSON and execute them through the existing sharded explorer, and
// the coordinator reassembles the per-range outcomes by canonical index
// into one wave's outcomes for memsim.ExploreWaves — the wave loop
// Explorer.Run itself runs — so Runs, Exhausted, DepthRuns, and the
// reported FailingSchedule are bit-identical to a single-machine
// harness.CheckSharded run at any worker count, join/leave order, or
// lease size.
//
// The determinism argument has three independent legs:
//
//  1. Wave execution is a pure function of the machine: every schedule
//     index yields the same ScheduleOutcome whichever worker runs it,
//     because harness.CheckExplorer is the single definition of the
//     workload and memsim.Explorer.Build is required to be
//     deterministic.
//  2. Leases partition a wave's index space into a fixed grid, so each
//     index's outcome lands at its own slot regardless of which lease
//     (or which re-lease, after a worker is lost) delivered it; stale
//     duplicate reports are ignored, which is sound because they are
//     byte-identical to the accepted one.
//  3. The merge is positional: first failing index in wave order is the
//     canonical failure, and the next wave is the concatenation of
//     Children in parent order — no timestamps, worker ids, or arrival
//     order ever reach the result.
//
// Completed waves persist as resumable checkpoints (the
// fetchphi.explore/v1 Checkpoint extension in internal/obs), so a
// killed coordinator resumes mid-campaign without re-running finished
// waves, and an interrupted campaign's final artifact is byte-identical
// to an uninterrupted one.
package fleet

import (
	"fetchphi/internal/harness"
	"fetchphi/internal/memsim"
	"fetchphi/internal/obs"
)

// Wire paths of the coordinator's HTTP+JSON API. All bodies are JSON;
// all responses are 200 unless the request itself is malformed.
const (
	// PathConfig (GET) returns the campaign Config so workers build
	// bit-identical explorers.
	PathConfig = "/v1/config"
	// PathLease (POST, LeaseRequest → LeaseResponse) claims the next
	// available wave range.
	PathLease = "/v1/lease"
	// PathReport (POST, ReportRequest → ReportResponse) delivers a
	// completed range's outcomes.
	PathReport = "/v1/report"
	// PathStatus (GET) returns a StatusResponse progress snapshot.
	PathStatus = "/v1/status"
	// PathMetrics (GET) returns the coordinator's live
	// telemetry.Snapshot (every counter, gauge, and histogram, sorted
	// by name).
	PathMetrics = "/v1/metrics"
)

// Metric names, following internal/telemetry's flat-name convention.
// "fleet.*" metrics live in the coordinator's registry and feed the
// capacity artifact; "worker.*" metrics live in each worker's own
// registry (worker-process-local — they never cross the wire, so they
// can never perturb the coordinator's deterministic clock).
const (
	// MetricLeases counts lease grants (including re-leases).
	MetricLeases = "fleet.leases"
	// MetricReLeases counts grants of ranges whose previous lease
	// expired.
	MetricReLeases = "fleet.re_leases"
	// MetricReports counts accepted range reports.
	MetricReports = "fleet.reports"
	// MetricStaleReports counts rejected (duplicate or late) reports.
	MetricStaleReports = "fleet.stale_reports"
	// MetricWaves counts completed waves across all models.
	MetricWaves = "fleet.waves"
	// MetricSchedules counts schedules executed across all models.
	MetricSchedules = "fleet.schedules"
	// MetricWaveUS is the histogram of wave execution times (µs, per
	// the campaign's telemetry clock).
	MetricWaveUS = "fleet.wave_us"

	// MetricWorkerPollUS is the worker-side histogram of lease-call
	// round-trip latencies (µs).
	MetricWorkerPollUS = "worker.poll_us"
	// MetricWorkerRangeUS is the worker-side histogram of leased-range
	// execution times (µs).
	MetricWorkerRangeUS = "worker.range_us"
	// MetricWorkerBackoffs counts worker backoff sleeps (idle waits and
	// HTTP retries).
	MetricWorkerBackoffs = "worker.backoffs"
	// MetricWorkerLeases counts leases this worker executed.
	MetricWorkerLeases = "worker.leases"
	// MetricWorkerSchedules counts schedules this worker executed.
	MetricWorkerSchedules = "worker.schedules"
)

// WorkerMetric names a per-worker metric in the coordinator's registry
// (e.g. "fleet.worker.w3.schedules"). Per-worker rows are live
// telemetry only — which worker ran which lease is scheduling noise,
// so these names are deliberately excluded from the capacity artifact.
func WorkerMetric(worker, metric string) string {
	return "fleet.worker." + worker + "." + metric
}

// Config is the campaign configuration: everything a worker needs to
// reconstruct the exact model-check workload. It crosses the wire
// verbatim, so it holds only plain JSON-stable fields.
type Config struct {
	// Algorithm is the registry name workers resolve to a builder.
	Algorithm string `json:"algorithm"`
	// N and Entries define the workload: N processes, each performing
	// Entries acquire/CS/release passes.
	N       int `json:"n"`
	Entries int `json:"entries"`
	// Preemptions is the literal preemption bound K (0 = exactly
	// non-preemptive, as everywhere since PR 5).
	Preemptions int `json:"preemptions"`
	// MaxRuns caps the schedules explored per model
	// (default harness.DefaultCheckMaxRuns).
	MaxRuns int `json:"max_runs"`
	// MaxSteps bounds each explored run
	// (default harness.DefaultCheckMaxSteps).
	MaxSteps int64 `json:"max_steps"`
	// Models are the memory model names in reporting order
	// (default CC then DSM).
	Models []string `json:"models"`
}

// withDefaults returns cfg with the documented defaults filled in, so
// the coordinator and every worker normalize the same way.
func (cfg Config) withDefaults() Config {
	if cfg.MaxRuns <= 0 {
		cfg.MaxRuns = harness.DefaultCheckMaxRuns
	}
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = harness.DefaultCheckMaxSteps
	}
	if len(cfg.Models) == 0 {
		cfg.Models = []string{memsim.CC.String(), memsim.DSM.String()}
	}
	return cfg
}

// parseModels resolves the configured model names.
func (cfg Config) parseModels() ([]memsim.Model, error) {
	models := make([]memsim.Model, len(cfg.Models))
	for i, name := range cfg.Models {
		m, err := memsim.ParseModel(name)
		if err != nil {
			return nil, err
		}
		models[i] = m
	}
	return models, nil
}

// exploreOptions maps the campaign config onto the harness options a
// worker needs to build the one true explorer for a model. shards is
// the worker's local wave-shard width (workers typically run a few
// shards each; the coordinator never executes schedules).
func (cfg Config) exploreOptions(shards int) harness.ExploreOptions {
	return harness.ExploreOptions{
		Preemptions: cfg.Preemptions,
		MaxRuns:     cfg.MaxRuns,
		MaxSteps:    cfg.MaxSteps,
		Workers:     shards,
	}
}

// LeaseRequest asks for the next available range of the active wave.
type LeaseRequest struct {
	// Worker identifies the claimant in the lease log and status
	// output; it never influences results.
	Worker string `json:"worker"`
}

// Lease statuses.
const (
	// StatusLease: the response carries a Lease to execute.
	StatusLease = "lease"
	// StatusWait: no range is currently available (between waves, or
	// every range is leased and unexpired) — poll again.
	StatusWait = "wait"
	// StatusDone: the campaign has finished; the worker should exit.
	StatusDone = "done"
)

// LeaseResponse answers a lease claim.
type LeaseResponse struct {
	Status string `json:"status"`
	// RetryMS is the suggested poll delay for StatusWait.
	RetryMS int `json:"retry_ms,omitempty"`
	// Lease is present iff Status == StatusLease.
	Lease *Lease `json:"lease,omitempty"`
}

// Lease is one claimable unit of work: a contiguous range [Lo, Hi) of
// the wave at (Model, Depth), with the schedules themselves inlined so
// workers stay stateless between leases.
type Lease struct {
	// ID is unique per grant; a re-leased range gets a fresh ID.
	ID int64 `json:"id"`
	// Model and Depth locate the wave this range belongs to.
	Model string `json:"model"`
	Depth int    `json:"depth"`
	// Lo and Hi bound the range within the wave's index space.
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// Schedules are the wave entries wave[Lo:Hi], in canonical order.
	// The root wave's single empty schedule serializes as null and
	// must stay nil end to end (FailingSchedule bit-identity).
	Schedules [][]obs.ExplorePreemption `json:"schedules"`
	// DeadlineMS is the lease duration in milliseconds: a worker that
	// has not reported by then may see its range re-leased. Purely
	// advisory on the worker side.
	DeadlineMS int64 `json:"deadline_ms"`
}

// Outcome is the wire form of one schedule's memsim.ScheduleOutcome.
type Outcome struct {
	// Failure is the schedule's error string, empty if it passed.
	Failure string `json:"failure,omitempty"`
	// Children are the next-wave schedules, in canonical order.
	Children [][]obs.ExplorePreemption `json:"children,omitempty"`
}

// ReportRequest delivers one completed lease's outcomes, indexed like
// the lease's Schedules.
type ReportRequest struct {
	Worker   string    `json:"worker"`
	LeaseID  int64     `json:"lease_id"`
	Model    string    `json:"model"`
	Depth    int       `json:"depth"`
	Lo       int       `json:"lo"`
	Hi       int       `json:"hi"`
	Outcomes []Outcome `json:"outcomes"`
}

// ReportResponse acknowledges a report. A rejected report is not an
// error for the worker — it means the range was already completed (a
// duplicate after a dropped response, or a re-leased range that raced)
// or the wave has moved on; the worker simply claims its next lease.
type ReportResponse struct {
	Accepted bool   `json:"accepted"`
	Reason   string `json:"reason,omitempty"`
}

// StatusResponse is the coordinator's progress snapshot.
type StatusResponse struct {
	Algorithm string `json:"algorithm"`
	// State is "running", "done", or "failed".
	State string `json:"state"`
	// Model/Depth/Frontier describe the active wave (zero between
	// waves and after completion).
	Model    string `json:"model,omitempty"`
	Depth    int    `json:"depth"`
	Frontier int    `json:"frontier"`
	// Range accounting for the active wave.
	RangesPending int `json:"ranges_pending"`
	RangesLeased  int `json:"ranges_leased"`
	RangesDone    int `json:"ranges_done"`
	// Cumulative lease-log counters for the whole campaign.
	Leases       int `json:"leases"`
	ReLeases     int `json:"re_leases"`
	StaleReports int `json:"stale_reports"`
	// Waves and Schedules are the campaign's cumulative telemetry
	// counters (completed waves, executed schedules, all models).
	Waves     int64 `json:"waves"`
	Schedules int64 `json:"schedules"`
	// Workers is one row per worker the coordinator has heard from,
	// sorted by name.
	Workers []WorkerStatus `json:"workers,omitempty"`
	// Failure is the campaign error once State == "failed".
	Failure string `json:"failure,omitempty"`
}

// WorkerStatus is one worker's row in the coordinator's status
// snapshot — the liveness view the `fleet status -watch` dashboard
// renders.
type WorkerStatus struct {
	Worker string `json:"worker"`
	// Leases and Schedules count the grants issued to and schedules
	// reported by this worker.
	Leases    int64 `json:"leases"`
	Schedules int64 `json:"schedules"`
	// LastSeenMS is milliseconds since this worker's last request, per
	// the coordinator's lease clock.
	LastSeenMS int64 `json:"last_seen_ms"`
}

// LeaseEvent is one entry of the coordinator's lease log: the audit
// trail that proves which waves ran (the checkpoint-resume tests assert
// over it) and how often ranges had to be re-leased.
type LeaseEvent struct {
	// Kind is "lease", "re-lease", "report", or "stale-report".
	Kind    string
	Model   string
	Depth   int
	Lo, Hi  int
	Worker  string
	LeaseID int64
}

// toWire converts one schedule, preserving nil (the root schedule).
func toWire(s []memsim.Preemption) []obs.ExplorePreemption {
	if s == nil {
		return nil
	}
	out := make([]obs.ExplorePreemption, len(s))
	for i, p := range s {
		out[i] = obs.ExplorePreemption{Step: p.Step, Proc: p.Proc}
	}
	return out
}

// fromWire inverts toWire, preserving nil.
func fromWire(s []obs.ExplorePreemption) []memsim.Preemption {
	if s == nil {
		return nil
	}
	out := make([]memsim.Preemption, len(s))
	for i, p := range s {
		out[i] = memsim.Preemption{Step: p.Step, Proc: p.Proc}
	}
	return out
}

// schedulesToWire converts a wave slice.
func schedulesToWire(ss [][]memsim.Preemption) [][]obs.ExplorePreemption {
	if ss == nil {
		return nil
	}
	out := make([][]obs.ExplorePreemption, len(ss))
	for i, s := range ss {
		out[i] = toWire(s)
	}
	return out
}

// schedulesFromWire inverts schedulesToWire.
func schedulesFromWire(ss [][]obs.ExplorePreemption) [][]memsim.Preemption {
	if ss == nil {
		return nil
	}
	out := make([][]memsim.Preemption, len(ss))
	for i, s := range ss {
		out[i] = fromWire(s)
	}
	return out
}
