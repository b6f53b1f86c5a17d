// Package fleet distributes the wave-synchronous model checker across
// machines: a coordinator decomposes each schedule wave into contiguous
// index-range leases with deadlines, workers claim leases over plain
// HTTP+JSON and execute them through the existing sharded explorer, and
// the coordinator hands the ranges' outcomes, in grid order, to
// memsim.ExploreWaves — the wave loop Explorer.Run itself runs — so
// Runs, Exhausted, DepthRuns, and the reported FailingSchedule are
// bit-identical to a single-machine harness.CheckSharded run at any
// worker count, join/leave order, or lease size.
//
// The wave and its outcome are flat from the explorer to disk. A
// memsim.Wave at depth d is one slab of preemptions, d a schedule; a
// lease is a slice of it, one flat array of step/proc pairs
// (obs.Pairs). A report is the range's memsim.RangeOutcome as the
// explorer returned it: each schedule's child count (obs.Counts), each
// child's appended preemption (obs.Pairs) and the failures by index,
// their errors as text. The coordinator checks a report against the
// schedules it leased and keeps its arrays, as they are, in the range's
// grid cell. A checkpoint's frontier is the pending wave's slab and an
// artifact's failing schedule one schedule, both obs.Pairs too. The
// pair and count arrays decode into storage of exactly their length. A lease request that finds nothing claimable is held until
// a wave is published, the campaign ends, or the coordinator's hold
// bound passes, so an idle worker neither sleeps nor polls between
// waves.
//
// The determinism argument has three independent legs:
//
//  1. Wave execution is a pure function of the machine: every range of
//     schedules yields the same RangeOutcome arrays whichever worker
//     runs it, at any shard count, because harness.CheckExplorer is the
//     single definition of the workload and memsim.Explorer.Build is
//     required to be deterministic.
//  2. Leases partition a wave's index space into a fixed grid, so each
//     range's outcome lands in its own grid cell regardless of which
//     lease (or which re-lease, after a worker is lost) delivered it;
//     stale duplicate reports are ignored, which is sound because they
//     are byte-identical to the accepted one.
//  3. The merge is positional: first failing index in wave order is the
//     canonical failure, and the next wave is every schedule's
//     children in parent order — no timestamps, worker ids, or arrival
//     order ever reach the result.
//
// Completed waves persist as resumable checkpoints (the
// fetchphi.explore/v2 Checkpoint extension in internal/obs), so a
// killed coordinator resumes mid-campaign without re-running finished
// waves, and an interrupted campaign's final artifact is byte-identical
// to an uninterrupted one.
package fleet

import (
	"fmt"

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
	// available wave range, holding the request while none is.
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
	// round-trip latencies (µs), the coordinator's hold included.
	MetricWorkerPollUS = "worker.poll_us"
	// MetricWorkerRangeUS is the worker-side histogram of leased-range
	// execution times (µs).
	MetricWorkerRangeUS = "worker.range_us"
	// MetricWorkerBackoffs counts worker backoff sleeps between HTTP
	// retries.
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
	// StatusWait: no range became claimable while the coordinator held
	// the request (every range is leased and unexpired, or no wave is
	// published) — ask again at once.
	StatusWait = "wait"
	// StatusDone: the campaign has finished; the worker should exit.
	StatusDone = "done"
)

// LeaseResponse answers a lease claim. The coordinator holds a claim
// that finds nothing claimable and answers it as soon as a wave is
// published (StatusLease) or the campaign ends (StatusDone), or else
// once its hold bound passes (StatusWait), so a worker asks again at
// once after any answer.
type LeaseResponse struct {
	Status string `json:"status"`
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
	// Schedules are the wave's schedules Lo to Hi−1, in canonical
	// order, back to back: the slice of the wave's slab that holds
	// them, Depth preemptions a schedule, so Depth·(Hi−Lo) pairs. The
	// root wave (Depth 0) sends none; its single schedule is nil on
	// both ends (FailingSchedule bit-identity). A worker checks them
	// before it runs any (leaseWave).
	Schedules obs.Pairs `json:"schedules"`
	// DeadlineMS is the lease duration in milliseconds: a worker that
	// has not reported by then may see its range re-leased. Purely
	// advisory on the worker side.
	DeadlineMS int64 `json:"deadline_ms"`
}

// ReportRequest delivers one completed lease's outcome, the range's
// memsim.RangeOutcome, as three flat arrays indexed like the lease's
// schedules.
type ReportRequest struct {
	Worker  string `json:"worker"`
	LeaseID int64  `json:"lease_id"`
	Model   string `json:"model"`
	Depth   int    `json:"depth"`
	Lo      int    `json:"lo"`
	Hi      int    `json:"hi"`
	// Children[i] is how many next-wave schedules schedule Lo+i
	// spawns: Hi−Lo counts, each zero for a failing schedule and at
	// the preemption bound.
	Children obs.Counts `json:"children"`
	// Appended holds, for every child in order (the children of
	// schedule Lo first), the one preemption it appends to its parent.
	// A schedule's children preempt at steps after its last one, in
	// strictly increasing (step, proc) order. Its length is the sum of
	// Children.
	Appended obs.Pairs `json:"appended"`
	// Failures are the failing schedules, by strictly increasing index
	// within the range, each with its error text.
	Failures []Failure `json:"failures,omitempty"`
}

// ReportResponse acknowledges a report. A report the explorer could
// not have produced — its arrays do not match the range or each other,
// or a child is malformed (see ReportRequest.Appended) — is answered
// 400 and its range stays leased. A rejected report is not an error for the worker — it means the range was already completed (a
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
	// Cumulative lease counters for the whole campaign, read from the
	// coordinator's telemetry (MetricLeases, MetricReLeases,
	// MetricStaleReports).
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
	// reported by this worker (its WorkerMetric counters).
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

// checkChildren rejects the children a report gives one schedule,
// parent, when the explorer could not have derived them in a campaign
// of n processes: a failing schedule, or one at the preemption bound
// (expand false), spawns none; otherwise each child names one of the n
// processes at a step after parent's last, in strictly increasing
// (step, proc) order.
func checkChildren(parent, children []memsim.Preemption, failed bool, n int, expand bool) error {
	switch {
	case len(children) == 0:
		return nil
	case failed:
		return fmt.Errorf("failing schedule reports %d children", len(children))
	case !expand:
		return fmt.Errorf("schedule at the preemption bound reports %d children", len(children))
	}
	last := int64(-1)
	if len(parent) > 0 {
		last = parent[len(parent)-1].Step
	}
	for i, c := range children {
		if c.Proc < 0 || c.Proc >= n {
			return fmt.Errorf("child %d names process %d outside [0,%d)", i, c.Proc, n)
		}
		if c.Step <= last {
			return fmt.Errorf("child %d preempts at step %d, not after the parent's last step %d", i, c.Step, last)
		}
		if i > 0 {
			if p := children[i-1]; c.Step < p.Step || c.Step == p.Step && c.Proc <= p.Proc {
				return fmt.Errorf("child %d (step %d, proc %d) does not follow child %d in (step, proc) order", i, c.Step, c.Proc, i-1)
			}
		}
	}
	return nil
}

// checkSchedules rejects a run of n schedules of depth preemptions
// each, slab, that the explorer could not have produced in a campaign
// of procs processes: the slab must hold exactly n·depth preemptions,
// and each schedule's steps must be non-negative and strictly
// increasing, each naming one of the procs processes. The root wave
// (depth 0) holds the root schedule alone.
func checkSchedules(slab []memsim.Preemption, depth, n, procs int) error {
	switch {
	case depth < 0 || n < 0:
		return fmt.Errorf("%d schedules of %d preemptions", n, depth)
	case depth == 0 && (n != 1 || len(slab) != 0):
		return fmt.Errorf("a depth-0 wave holds the root schedule alone, not %d schedules in %d preemptions", n, len(slab))
	case depth > 0 && (len(slab)%depth != 0 || len(slab)/depth != n):
		return fmt.Errorf("%d preemptions do not hold %d schedules of %d", len(slab), n, depth)
	}
	for k, p := range slab {
		i, j := 0, 0
		if depth > 0 {
			i, j = k/depth, k%depth
		}
		if p.Step < 0 || (j > 0 && p.Step <= slab[k-1].Step) {
			return fmt.Errorf("schedule %d: preemption %d at step %d is negative or out of order", i, j, p.Step)
		}
		if p.Proc < 0 || p.Proc >= procs {
			return fmt.Errorf("schedule %d: preemption %d names process %d outside [0,%d)", i, j, p.Proc, procs)
		}
	}
	return nil
}
