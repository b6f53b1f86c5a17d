package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fetchphi/internal/harness"
	"fetchphi/internal/memsim"
	"fetchphi/internal/obs"
	"fetchphi/internal/telemetry"
)

// Coordinator defaults.
const (
	// DefaultLeaseSize is the number of schedules per lease: small
	// enough that a late wave balances across workers, large enough
	// that HTTP round-trips stay cold relative to simulation cost
	// (the same trade-off as memsim's claimBatch, scaled up for
	// network latency).
	DefaultLeaseSize = 256
	// DefaultLeaseTimeout is how long a worker holds a range before
	// it becomes claimable again.
	DefaultLeaseTimeout = 30 * time.Second
	// DefaultRetryMS is the poll delay suggested to workers when no
	// range is available.
	DefaultRetryMS = 100
)

// CoordinatorOptions tune a coordinator; the zero value selects the
// documented defaults.
type CoordinatorOptions struct {
	// LeaseSize is the schedules-per-lease grid pitch.
	LeaseSize int
	// LeaseTimeout is the re-lease deadline.
	LeaseTimeout time.Duration
	// RetryMS is the wait-poll hint sent to workers.
	RetryMS int
	// CheckpointPath, when non-empty, is the resumable
	// fetchphi.explore/v1 artifact: loaded (and validated against the
	// Config) at start if it exists, rewritten atomically after every
	// completed wave, and left behind as the final artifact with
	// Checkpoint.Complete=true. Empty disables checkpointing.
	CheckpointPath string
	// CapacityPath, when non-empty, is the fetchphi.capacity/v1
	// artifact: rewritten atomically after every completed wave
	// (Complete=false) and finalized when the campaign ends
	// (Complete=true). Empty disables it.
	CapacityPath string
	// Metrics is the coordinator's telemetry registry (wave counts and
	// timings, schedule counts, lease counters); its clock is the
	// telemetry clock, wholly separate from Now (the lease clock). Nil
	// selects a fresh wall-clock registry. For byte-identical capacity
	// artifacts, inject a fake clock: the campaign reads the registry
	// clock only at deterministic points (once at construction, two
	// reads per wave, one per capacity write), so a step clock yields
	// identical artifacts at any worker count.
	Metrics *telemetry.Registry
	// CreatedBy and Commit stamp the artifact header
	// (default "fleet-coordinator" / empty). The explore artifact
	// carries no wall-clock fields, so for a fixed configuration and
	// commit it is byte-reproducible.
	CreatedBy string
	Commit    string
	// Now substitutes the lease clock — fault-injection tests advance
	// a fake clock to expire leases deterministically. Nil selects the
	// wall clock (the one legitimately nondeterministic input here;
	// deadlines gate only *when* a range is re-offered, never what its
	// outcomes are).
	Now func() time.Time
	// Progress, if non-nil, observes each wave start.
	Progress func(model memsim.Model, p memsim.ExploreProgress)
	// AfterWave, if non-nil, runs after each wave (and each model
	// completion) has been checkpointed; a non-nil error stops the
	// campaign on the wave boundary with that error — the
	// controlled-shutdown (and SIGKILL-equivalence test) hook.
	AfterWave func(model memsim.Model, depth int) error
}

// Coordinator is the fleet's control plane: it owns the campaign
// (whose waves memsim.ExploreWaves drives), decomposes each wave into
// leases, reassembles reported outcomes in canonical index order, and
// checkpoints every completed wave. It executes no schedules itself —
// workers (in other processes, or in-process via Check) do.
type Coordinator struct {
	cfg      Config
	opts     CoordinatorOptions
	leaseSeq atomic.Int64

	mu           sync.Mutex
	table        *leaseTable // active wave, nil between waves
	events       []LeaseEvent
	reLeases     int
	staleReports int
	workers      map[string]*workerState
	finished     bool
	reports      []harness.ModelReport
	artifact     *obs.ExploreArtifact
	err          error

	done chan struct{}
}

// workerState is the coordinator's per-worker liveness ledger, keyed
// by worker ID and read by the status endpoint. lastSeen is per the
// lease clock — it gates nothing, so the one nondeterministic input
// stays confined to display.
type workerState struct {
	leases    int64
	schedules int64
	lastSeen  time.Time
}

// NewCoordinator prepares a coordinator for one campaign. Call Run
// (usually in a goroutine) to start the campaign, and serve Handler
// somewhere workers can reach.
func NewCoordinator(cfg Config, opts CoordinatorOptions) *Coordinator {
	if opts.LeaseSize <= 0 {
		opts.LeaseSize = DefaultLeaseSize
	}
	if opts.LeaseTimeout <= 0 {
		opts.LeaseTimeout = DefaultLeaseTimeout
	}
	if opts.RetryMS <= 0 {
		opts.RetryMS = DefaultRetryMS
	}
	if opts.CreatedBy == "" {
		opts.CreatedBy = "fleet-coordinator"
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	if opts.Metrics == nil {
		opts.Metrics = telemetry.New(nil)
	}
	return &Coordinator{
		cfg: cfg.withDefaults(), opts: opts,
		workers: make(map[string]*workerState),
		done:    make(chan struct{}),
	}
}

// Metrics returns the coordinator's telemetry registry.
func (c *Coordinator) Metrics() *telemetry.Registry { return c.opts.Metrics }

// Run drives the campaign to completion, resuming from the checkpoint
// if one exists, and records its outcome; it returns what Wait
// returns. A checkpoint that cannot be restored fails Run before any
// lease is granted. Safe to call exactly once.
func (c *Coordinator) Run() ([]harness.ModelReport, error) {
	reports, art, err := c.campaign()
	c.mu.Lock()
	c.finished = true
	c.reports = reports
	c.artifact = art
	c.err = err
	c.mu.Unlock()
	close(c.done)
	return reports, err
}

// Wait blocks until the campaign finishes and returns its reports and
// first-failing-model error, exactly like harness.CheckSharded.
func (c *Coordinator) Wait() ([]harness.ModelReport, error) {
	<-c.done
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reports, c.err
}

// Artifact returns the final explore artifact once the campaign has
// finished (nil before that, or when the campaign aborted).
func (c *Coordinator) Artifact() *obs.ExploreArtifact {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.artifact
}

// LeaseLog returns a copy of the lease log: every grant, re-lease,
// accepted report, and stale report, in arrival order. The log is an
// audit trail — the checkpoint-resume tests use it to prove completed
// waves are never re-explored — not part of the deterministic result.
func (c *Coordinator) LeaseLog() []LeaseEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]LeaseEvent(nil), c.events...)
}

// execWave publishes one wave as a lease table, waits for workers to
// complete every range, and collects the outcomes in canonical order.
func (c *Coordinator) execWave(model memsim.Model, depth int, wave [][]memsim.Preemption) []memsim.ScheduleOutcome {
	t := newLeaseTable(model, depth, wave, c.opts.LeaseSize, c.opts.LeaseTimeout, c.opts.Now)
	c.mu.Lock()
	c.table = t
	c.mu.Unlock()
	<-t.done
	c.mu.Lock()
	c.table = nil
	c.mu.Unlock()
	return t.collect()
}

// Handler returns the coordinator's HTTP API.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathConfig, c.handleConfig)
	mux.HandleFunc(PathLease, c.handleLease)
	mux.HandleFunc(PathReport, c.handleReport)
	mux.HandleFunc(PathStatus, c.handleStatus)
	mux.HandleFunc(PathMetrics, c.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func (c *Coordinator) handleConfig(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, c.cfg)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("fleet: bad lease request: %v", err), http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	finished, table := c.finished, c.table
	c.mu.Unlock()
	if finished {
		writeJSON(w, LeaseResponse{Status: StatusDone})
		return
	}
	if table == nil {
		writeJSON(w, LeaseResponse{Status: StatusWait, RetryMS: c.opts.RetryMS})
		return
	}
	lease, kind, ok := table.claim(req.Worker, c.leaseSeq.Add(1))
	if !ok {
		c.touchWorker(req.Worker, 0, 0)
		writeJSON(w, LeaseResponse{Status: StatusWait, RetryMS: c.opts.RetryMS})
		return
	}
	c.mu.Lock()
	if kind == "re-lease" {
		c.reLeases++
	}
	c.events = append(c.events, LeaseEvent{
		Kind: kind, Model: lease.Model, Depth: lease.Depth,
		Lo: lease.Lo, Hi: lease.Hi, Worker: req.Worker, LeaseID: lease.ID,
	})
	c.mu.Unlock()
	c.opts.Metrics.Counter(MetricLeases).Inc()
	if kind == "re-lease" {
		c.opts.Metrics.Counter(MetricReLeases).Inc()
	}
	c.opts.Metrics.Counter(WorkerMetric(req.Worker, "leases")).Inc()
	c.touchWorker(req.Worker, 1, 0)
	writeJSON(w, LeaseResponse{Status: StatusLease, Lease: lease})
}

// touchWorker records one worker contact: lastSeen moves to now (lease
// clock), and the grant/schedule deltas accumulate into the liveness
// ledger the status endpoint reports.
func (c *Coordinator) touchWorker(id string, leases, schedules int64) {
	if id == "" {
		return
	}
	c.mu.Lock()
	ws, ok := c.workers[id]
	if !ok {
		ws = &workerState{}
		c.workers[id] = ws
	}
	ws.leases += leases
	ws.schedules += schedules
	ws.lastSeen = c.opts.Now()
	c.mu.Unlock()
}

func (c *Coordinator) handleReport(w http.ResponseWriter, r *http.Request) {
	var req ReportRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("fleet: bad report: %v", err), http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	table := c.table
	c.mu.Unlock()
	if table == nil || table.model.String() != req.Model || table.depth != req.Depth {
		// The wave this report belongs to has already completed (its
		// range was re-leased and reported by someone else); nothing
		// to merge, and nothing lost — outcomes are deterministic.
		c.noteStale(&req)
		writeJSON(w, ReportResponse{Accepted: false, Reason: "no active wave at that model/depth"})
		return
	}
	outcomes := make([]memsim.ScheduleOutcome, len(req.Outcomes))
	for i, o := range req.Outcomes {
		if o.Failure != "" {
			outcomes[i].Err = errorString(o.Failure)
		}
		outcomes[i].Children = schedulesFromWire(o.Children)
	}
	accepted, err := table.report(&req, outcomes)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	kind := "report"
	if !accepted {
		kind = "stale-report"
		c.staleReports++
	}
	c.events = append(c.events, LeaseEvent{
		Kind: kind, Model: req.Model, Depth: req.Depth,
		Lo: req.Lo, Hi: req.Hi, Worker: req.Worker, LeaseID: req.LeaseID,
	})
	c.mu.Unlock()
	if accepted {
		c.opts.Metrics.Counter(MetricReports).Inc()
		c.opts.Metrics.Counter(WorkerMetric(req.Worker, "schedules")).Add(int64(req.Hi - req.Lo))
		c.touchWorker(req.Worker, 0, int64(req.Hi-req.Lo))
	} else {
		c.opts.Metrics.Counter(MetricStaleReports).Inc()
		c.touchWorker(req.Worker, 0, 0)
	}
	reason := ""
	if !accepted {
		reason = "range already completed"
	}
	writeJSON(w, ReportResponse{Accepted: accepted, Reason: reason})
}

func (c *Coordinator) noteStale(req *ReportRequest) {
	c.mu.Lock()
	c.staleReports++
	c.events = append(c.events, LeaseEvent{
		Kind: "stale-report", Model: req.Model, Depth: req.Depth,
		Lo: req.Lo, Hi: req.Hi, Worker: req.Worker, LeaseID: req.LeaseID,
	})
	c.mu.Unlock()
	c.opts.Metrics.Counter(MetricStaleReports).Inc()
	c.touchWorker(req.Worker, 0, 0)
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	resp := StatusResponse{
		Algorithm:    c.cfg.Algorithm,
		State:        "running",
		Leases:       0,
		ReLeases:     c.reLeases,
		StaleReports: c.staleReports,
	}
	for _, ev := range c.events {
		if ev.Kind == "lease" || ev.Kind == "re-lease" {
			resp.Leases++
		}
	}
	now := c.opts.Now()
	for id, ws := range c.workers {
		resp.Workers = append(resp.Workers, WorkerStatus{
			Worker:     id,
			Leases:     ws.leases,
			Schedules:  ws.schedules,
			LastSeenMS: now.Sub(ws.lastSeen).Milliseconds(),
		})
	}
	if c.finished {
		resp.State = "done"
		if c.err != nil {
			resp.State = "failed"
			resp.Failure = c.err.Error()
		}
	}
	table := c.table
	c.mu.Unlock()
	sort.Slice(resp.Workers, func(i, j int) bool { return resp.Workers[i].Worker < resp.Workers[j].Worker })
	resp.Waves = c.opts.Metrics.Counter(MetricWaves).Value()
	resp.Schedules = c.opts.Metrics.Counter(MetricSchedules).Value()
	if table != nil {
		resp.Model = table.model.String()
		resp.Depth = table.depth
		resp.Frontier = len(table.wave)
		resp.RangesPending, resp.RangesLeased, resp.RangesDone = table.counts()
	}
	writeJSON(w, resp)
}

// handleMetrics serves the registry as one JSON snapshot. The snapshot
// reads the telemetry clock, so a fake-clock determinism run must not
// poll this endpoint mid-campaign (the capacity artifact is the
// deterministic view; this endpoint is the live one).
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, c.opts.Metrics.Snapshot())
}

// errorString is a trivial error wrapper for failures that crossed the
// wire as strings. It exists (instead of errors.New) to document that
// fleet-side errors are reconstructed text: message-identical to the
// local run's error, with the original type erased by serialization.
type errorString string

func (e errorString) Error() string { return string(e) }
