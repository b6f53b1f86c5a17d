package fleet

import (
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
	// DefaultHold is how long the coordinator holds a lease request
	// that finds nothing claimable before answering StatusWait.
	DefaultHold = 100 * time.Millisecond
)

// maxRequestBody bounds a worker's request body. A report at the
// default lease size is a few kilobytes; the bound only stops a sender
// that would otherwise make the coordinator buffer without end.
const maxRequestBody = 256 << 20

// CoordinatorOptions tune a coordinator; the zero value selects the
// documented defaults.
type CoordinatorOptions struct {
	// LeaseSize is the schedules-per-lease grid pitch.
	LeaseSize int
	// LeaseTimeout is the re-lease deadline.
	LeaseTimeout time.Duration
	// Hold bounds how long a lease request that finds nothing
	// claimable is held. A published wave or the campaign's end answers
	// it at once; the bound matters only while every range is leased,
	// where it is how late a worker sees an expired lease.
	Hold time.Duration
	// CheckpointPath, when non-empty, is the resumable
	// fetchphi.explore/v3 artifact: loaded (and validated against the
	// Config) at start if it exists, rewritten atomically after every
	// completed wave, and left behind as the final artifact, whose rows
	// hold no resume point. Empty disables checkpointing.
	CheckpointPath string
	// CapacityPath, when non-empty, is the fetchphi.capacity/v2
	// artifact: rewritten atomically after every completed wave
	// (Complete=false) and finalized when the campaign ends
	// (Complete=true). Empty disables it.
	CapacityPath string
	// Metrics is the coordinator's telemetry registry, the only store
	// of the campaign's counts (leases, re-leases, reports, stale
	// reports, waves, schedules, each worker's leases and schedules)
	// and wave timings, which /v1/metrics serves and the capacity
	// artifact copies; its clock is the telemetry clock, wholly
	// separate from Now (the lease clock). Nil selects a fresh
	// wall-clock registry. For byte-identical capacity
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
	// Progress, if non-nil, observes each wave start; a resumed
	// campaign's first call is the wave it resumes at.
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

	mu       sync.Mutex
	table    *leaseTable          // active wave, nil between waves
	lastSeen map[string]time.Time // per worker, on the lease clock
	finished bool
	// wake is closed, and replaced, when a held lease request may now
	// succeed: a wave table is published or the campaign finishes.
	wake     chan struct{}
	reports  []harness.ModelReport
	artifact *obs.ExploreArtifact
	err      error

	// stopped is closed, with stopErr set, when stop abandons the
	// campaign.
	stopOnce sync.Once
	stopped  chan struct{}
	stopErr  error

	done chan struct{}
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
	if opts.Hold <= 0 {
		opts.Hold = DefaultHold
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
	// Every campaign counter exists from the start, so /v1/metrics
	// lists each, at 0 until it first counts, whatever was polled.
	for _, name := range []string{MetricLeases, MetricReLeases, MetricReports, MetricStaleReports, MetricWaves, MetricSchedules} {
		opts.Metrics.Counter(name)
	}
	return &Coordinator{
		cfg: cfg.withDefaults(), opts: opts,
		lastSeen: make(map[string]time.Time),
		wake:     make(chan struct{}),
		stopped:  make(chan struct{}),
		done:     make(chan struct{}),
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
	c.wakeHeld()
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

// stop abandons the campaign with err: the wave in flight is never
// completed or checkpointed, and Run and Wait return err. It is a no-op
// once the campaign has finished or after the first stop. CheckWith
// stops its coordinator when a worker fails, so a fault no worker can
// get past (a replay divergence) ends the check instead of leaving
// its range unreported forever.
func (c *Coordinator) stop(err error) {
	c.stopOnce.Do(func() {
		c.stopErr = err
		close(c.stopped)
	})
}

// execWave publishes one wave as a lease table, waits for workers to
// complete every range, and collects the ranges' outcomes in canonical
// order. If the campaign is stopped first it returns the stop's error.
func (c *Coordinator) execWave(model memsim.Model, wave memsim.Wave) ([]memsim.RangeOutcome, error) {
	t := newLeaseTable(model, wave, c.opts.LeaseSize, c.opts.LeaseTimeout, c.opts.Now)
	c.mu.Lock()
	c.table = t
	c.wakeHeld()
	c.mu.Unlock()
	var err error
	select {
	case <-t.done:
	case <-c.stopped:
		err = c.stopErr
	}
	c.mu.Lock()
	c.table = nil
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return t.collect(), nil
}

// wakeHeld answers every held lease request; c.mu must be held.
func (c *Coordinator) wakeHeld() {
	close(c.wake)
	c.wake = make(chan struct{})
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

func (c *Coordinator) handleConfig(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, c.cfg)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := readJSON(http.MaxBytesReader(w, r.Body, maxRequestBody), r.ContentLength, &req); err != nil {
		http.Error(w, fmt.Sprintf("fleet: bad lease request: %v", err), http.StatusBadRequest)
		return
	}
	var hold <-chan time.Time
	for {
		c.mu.Lock()
		finished, table, wake := c.finished, c.table, c.wake
		c.mu.Unlock()
		if finished {
			writeJSON(w, LeaseResponse{Status: StatusDone})
			return
		}
		if table != nil {
			if lease, kind, ok := table.claim(c.leaseSeq.Add(1)); ok {
				c.grant(req.Worker, kind)
				writeJSON(w, LeaseResponse{Status: StatusLease, Lease: lease})
				return
			}
		}
		if hold == nil {
			//fetchphilint:ignore determinism lease-request hold bound; gates only when a worker asks again, never what a range's outcomes are
			t := time.NewTimer(c.opts.Hold)
			defer t.Stop()
			hold = t.C
		}
		select {
		case <-wake:
		case <-hold:
			c.touchWorker(req.Worker)
			writeJSON(w, LeaseResponse{Status: StatusWait})
			return
		case <-r.Context().Done():
			return
		}
	}
}

// grant counts one lease grant, a re-lease when kind says so.
func (c *Coordinator) grant(worker, kind string) {
	c.opts.Metrics.Counter(MetricLeases).Inc()
	if kind == "re-lease" {
		c.opts.Metrics.Counter(MetricReLeases).Inc()
	}
	c.opts.Metrics.Counter(WorkerMetric(worker, "leases")).Inc()
	c.touchWorker(worker)
}

// touchWorker records one worker contact: its last-seen time moves to
// now, on the lease clock. That time gates nothing, so the one
// nondeterministic input stays confined to display.
func (c *Coordinator) touchWorker(id string) {
	if id == "" {
		return
	}
	c.mu.Lock()
	c.lastSeen[id] = c.opts.Now()
	c.mu.Unlock()
}

func (c *Coordinator) handleReport(w http.ResponseWriter, r *http.Request) {
	var req ReportRequest
	if err := readJSON(http.MaxBytesReader(w, r.Body, maxRequestBody), r.ContentLength, &req); err != nil {
		http.Error(w, fmt.Sprintf("fleet: bad report: %v", err), http.StatusBadRequest)
		return
	}
	c.mu.Lock()
	table := c.table
	c.mu.Unlock()
	if table == nil || table.model.String() != req.Model || table.wave.Depth != req.Depth {
		// The wave this report belongs to has already completed (its
		// range was re-leased and reported by someone else); nothing
		// to merge, and nothing lost — outcomes are deterministic.
		c.countReport(&req, false)
		writeJSON(w, ReportResponse{Accepted: false, Reason: "no active wave at that model/depth"})
		return
	}
	out, err := table.check(&req, c.cfg.N, c.cfg.Preemptions)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	accepted, err := table.report(out)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	c.countReport(&req, accepted)
	reason := ""
	if !accepted {
		reason = "range already completed"
	}
	writeJSON(w, ReportResponse{Accepted: accepted, Reason: reason})
}

// countReport counts one report, accepted or stale.
func (c *Coordinator) countReport(req *ReportRequest, accepted bool) {
	if accepted {
		c.opts.Metrics.Counter(MetricReports).Inc()
		c.opts.Metrics.Counter(WorkerMetric(req.Worker, "schedules")).Add(int64(req.Hi - req.Lo))
	} else {
		c.opts.Metrics.Counter(MetricStaleReports).Inc()
	}
	c.touchWorker(req.Worker)
}

// handleStatus answers with the campaign's state, its active wave and
// each worker's last contact. The campaign's counts are the registry's
// alone, served by handleMetrics.
func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	resp := StatusResponse{Algorithm: c.cfg.Algorithm, State: "running"}
	now := c.opts.Now()
	for id, seen := range c.lastSeen {
		resp.Workers = append(resp.Workers, WorkerStatus{Worker: id, LastSeenMS: now.Sub(seen).Milliseconds()})
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
	if table != nil {
		resp.Model = table.model.String()
		resp.Depth = table.wave.Depth
		resp.Frontier = table.wave.Len
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
