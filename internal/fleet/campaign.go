package fleet

import (
	"errors"
	"fmt"
	"os"

	"fetchphi/internal/harness"
	"fetchphi/internal/memsim"
	"fetchphi/internal/obs"
	"fetchphi/internal/telemetry"
)

// This file is the campaign engine: it runs each model's exploration
// through memsim.ExploreWaves — the explorer's own wave loop, so the
// cap, canonical-prefix truncation and first-failure merge are
// Explorer.Run's by construction — and adds what is fleet-specific:
// (a) wave execution is delegated to any backend, in-process shards or
// a worker fleet, and (b) every completed wave is persisted as a
// resumable checkpoint and capacity record. The equivalence tests pin
// the reports against harness.CheckSharded.

// A WaveExecutor runs one full wave of schedules and returns the
// per-schedule outcomes indexed like the wave. Implementations decide
// where the schedules actually execute: LocalExecutor shards them
// across in-process goroutines, Coordinator leases them to fleet
// workers over HTTP. Executors must run every index exactly once per
// call and must not reorder outcomes.
type WaveExecutor interface {
	ExecWave(model memsim.Model, depth int, wave [][]memsim.Preemption) []memsim.ScheduleOutcome
}

// LocalExecutor executes waves in-process through the sharded
// explorer — the single-machine backend of the campaign engine, used
// by cmd/explore -checkpoint. It builds one explorer per model through
// harness.CheckExplorer, exactly like every other check path.
type LocalExecutor struct {
	// Build is the algorithm under test.
	Build harness.Builder
	// Config is the campaign configuration.
	Config Config
	// Shards is the local wave-shard width (<= 1: sequential).
	Shards int

	explorers map[memsim.Model]*memsim.Explorer
}

// ExecWave implements WaveExecutor.
func (x *LocalExecutor) ExecWave(model memsim.Model, depth int, wave [][]memsim.Preemption) []memsim.ScheduleOutcome {
	if x.explorers == nil {
		x.explorers = make(map[memsim.Model]*memsim.Explorer)
	}
	e, ok := x.explorers[model]
	if !ok {
		e = harness.CheckExplorer(x.Build, model, x.Config.N, x.Config.Entries, x.Config.withDefaults().exploreOptions(x.Shards))
		x.explorers[model] = e
	}
	return e.RunScheduleRange(wave)
}

// modelState is one memory model's in-flight campaign state.
type modelState struct {
	model memsim.Model
	done  bool
	// frontier is the exploration after the model's last completed
	// wave. Once done its Wave is nil and Runs/DepthRuns are the
	// result's; Depth stays that of the last wave boundary reached.
	frontier memsim.Frontier
	// result is the final exploration result (only once done).
	result memsim.ExploreResult
}

// finish seals one model's exploration.
func (st *modelState) finish(res memsim.ExploreResult) {
	st.done = true
	st.frontier.Wave = nil
	st.frontier.Runs = res.Runs
	st.frontier.DepthRuns = res.DepthRuns
	st.result = res
}

// Campaign drives a full multi-model exploration through a
// WaveExecutor, checkpointing after every completed wave.
type Campaign struct {
	// Config is the campaign configuration; zero fields get the
	// documented defaults.
	Config Config
	// Exec runs each wave.
	Exec WaveExecutor
	// CheckpointPath, when non-empty, is the resumable
	// fetchphi.explore/v1 artifact: loaded (and validated against
	// Config) at start if it exists, rewritten atomically after every
	// completed wave, and left behind as the final artifact with
	// Checkpoint.Complete=true. Empty disables checkpointing.
	CheckpointPath string
	// CreatedBy and Commit stamp the artifact header. The artifact
	// carries no wall-clock fields, so for a fixed configuration and
	// commit it is byte-reproducible.
	CreatedBy string
	Commit    string
	// CapacityPath, when non-empty, is the fetchphi.capacity/v1
	// artifact: rewritten atomically after every completed wave
	// (Complete=false) and finalized when the campaign ends
	// (Complete=true). Empty disables it.
	CapacityPath string
	// Metrics receives the campaign's telemetry (wave counts/timings,
	// schedule counts, and — when Exec is a Coordinator sharing the
	// registry — the lease counters). Nil selects a fresh wall-clock
	// registry. For byte-identical capacity artifacts, inject a fake
	// clock: the campaign reads the registry clock only at
	// deterministic points (two reads per wave, one per capacity
	// write), so a step clock yields identical artifacts at any worker
	// count.
	Metrics *telemetry.Registry
	// AfterWave, if non-nil, runs after each wave (and each model
	// completion) has been checkpointed; returning a non-nil error
	// aborts the campaign immediately with that error — the
	// SIGKILL-equivalent hook the resume tests use.
	AfterWave func(model memsim.Model, depth int) error
	// Progress, if non-nil, observes each wave start.
	Progress func(model memsim.Model, p memsim.ExploreProgress)
}

// Run executes (or resumes) the campaign. The returned reports are in
// Config.Models order with Runs, Exhausted, DepthRuns, and
// FailingSchedule bit-identical to harness.CheckSharded over the same
// configuration; the error is the first failing model's, formatted by
// harness.CheckFailure. Like CheckSharded, reports (and the final
// artifact) are returned even when the check itself fails, so callers
// can persist capacity records for failed checks too.
func (c *Campaign) Run() ([]harness.ModelReport, *obs.ExploreArtifact, error) {
	cfg := c.Config.withDefaults()
	models, err := cfg.parseModels()
	if err != nil {
		return nil, nil, err
	}
	if c.Metrics == nil {
		c.Metrics = telemetry.New(nil)
	}

	states := make([]*modelState, len(models))
	for i, m := range models {
		states[i] = &modelState{model: m, frontier: memsim.Frontier{Wave: memsim.RootWave()}}
	}
	if c.CheckpointPath != "" {
		if _, statErr := os.Stat(c.CheckpointPath); statErr == nil {
			if err := c.restore(cfg, states); err != nil {
				return nil, nil, err
			}
		}
	}

	for _, st := range states {
		if st.done {
			continue
		}
		if err := c.runModel(cfg, st, states); err != nil {
			return nil, nil, err
		}
	}

	art := c.artifact(cfg, states, true)
	if c.CheckpointPath != "" {
		if err := art.WriteFile(c.CheckpointPath); err != nil {
			return nil, nil, err
		}
	}
	if err := c.writeCapacity(cfg, states, true); err != nil {
		return nil, nil, err
	}
	reports := make([]harness.ModelReport, len(states))
	var checkErr error
	for i, st := range states {
		reports[i] = harness.ModelReport{Model: st.model, Result: st.result}
		if checkErr == nil && st.result.Err != nil {
			checkErr = harness.CheckFailure(st.model, st.result)
		}
	}
	return reports, art, checkErr
}

// runModel runs one model's exploration to completion through
// memsim.ExploreWaves, checkpointing after every wave (and once more
// when the model finishes).
func (c *Campaign) runModel(cfg Config, st *modelState, all []*modelState) error {
	exec := func(f memsim.Frontier) []memsim.ScheduleOutcome {
		if c.Progress != nil {
			c.Progress(st.model, memsim.ExploreProgress{Depth: f.Depth, Frontier: len(f.Wave), Runs: f.Runs})
		}
		stop := c.Metrics.Time(MetricWaveUS)
		outs := c.Exec.ExecWave(st.model, f.Depth, f.Wave)
		stop()
		c.Metrics.Counter(MetricWaves).Inc()
		c.Metrics.Counter(MetricSchedules).Add(int64(len(f.Wave)))
		return outs
	}
	next := func(f memsim.Frontier) error {
		st.frontier = f
		return c.afterWave(cfg, st, all)
	}
	res, err := memsim.ExploreWaves(st.frontier, cfg.MaxRuns, exec, next)
	if err != nil {
		return err
	}
	st.finish(res)
	return c.afterWave(cfg, st, all)
}

// afterWave persists the checkpoint and capacity artifacts and fires
// the AfterWave hook.
func (c *Campaign) afterWave(cfg Config, st *modelState, all []*modelState) error {
	if c.CheckpointPath != "" {
		if err := c.artifact(cfg, all, false).WriteFile(c.CheckpointPath); err != nil {
			return err
		}
	}
	if err := c.writeCapacity(cfg, all, false); err != nil {
		return err
	}
	if c.AfterWave != nil {
		return c.AfterWave(st.model, st.frontier.Depth)
	}
	return nil
}

// writeCapacity rewrites the capacity artifact from the current
// telemetry snapshot (a no-op without a CapacityPath). Exactly one
// registry-clock read per call, at a deterministic point in the wave
// loop — the invariant that keeps fake-clock artifacts byte-identical.
func (c *Campaign) writeCapacity(cfg Config, states []*modelState, complete bool) error {
	if c.CapacityPath == "" {
		return nil
	}
	return c.capacity(cfg, states, complete).WriteFile(c.CapacityPath)
}

// capacity builds the fetchphi.capacity/v1 artifact: campaign-level
// aggregates only. Per-worker metrics stay out deliberately — which
// worker ran which lease differs run to run and with worker count, so
// admitting them would break the artifact's byte-identity contract.
func (c *Campaign) capacity(cfg Config, states []*modelState, complete bool) *obs.CapacityArtifact {
	snap := c.Metrics.Snapshot()
	art := &obs.CapacityArtifact{
		Schema:    obs.CapacitySchema,
		Algorithm: cfg.Algorithm,
		CreatedBy: c.CreatedBy,
		Commit:    c.Commit,
		N:         cfg.N, Entries: cfg.Entries, Preemptions: cfg.Preemptions,
		MaxRuns:         cfg.MaxRuns,
		Complete:        complete,
		ElapsedMS:       float64(snap.ElapsedUS) / 1000,
		Waves:           snap.Counter(MetricWaves),
		Schedules:       snap.Counter(MetricSchedules),
		SchedulesPerSec: snap.PerSec(MetricSchedules),
		Leases:          snap.Counter(MetricLeases),
		ReLeases:        snap.Counter(MetricReLeases),
		StaleReports:    snap.Counter(MetricStaleReports),
		WaveUS:          snap.Histogram(MetricWaveUS),
	}
	if art.Leases > 0 {
		art.ReLeaseRate = float64(art.ReLeases) / float64(art.Leases)
	}
	for _, st := range states {
		art.Models = append(art.Models, obs.CapacityModel{
			Model:     st.model.String(),
			Done:      st.done,
			Waves:     len(st.frontier.DepthRuns),
			Schedules: st.frontier.Runs,
		})
	}
	return art
}

// artifact serializes the campaign state as a fetchphi.explore/v1
// artifact with the resumable-checkpoint extension. Done models appear
// in Models; in-progress models live only in the checkpoint. The
// output contains no wall-clock fields, so identical campaign states
// serialize to identical bytes.
func (c *Campaign) artifact(cfg Config, states []*modelState, complete bool) *obs.ExploreArtifact {
	art := &obs.ExploreArtifact{
		Schema:    obs.ExploreSchema,
		Algorithm: cfg.Algorithm,
		CreatedBy: c.CreatedBy,
		Commit:    c.Commit,
		N:         cfg.N, Entries: cfg.Entries, Preemptions: cfg.Preemptions,
		MaxRuns:    cfg.MaxRuns,
		Checkpoint: &obs.ExploreCheckpoint{Complete: complete},
	}
	for _, st := range states {
		ck := obs.ExploreModelCheckpoint{
			Model:     st.model.String(),
			Done:      st.done,
			NextDepth: st.frontier.Depth,
			Runs:      st.frontier.Runs,
			DepthRuns: append([]int(nil), st.frontier.DepthRuns...),
			Frontier:  schedulesToWire(st.frontier.Wave),
		}
		if st.done {
			art.Models = append(art.Models, ExploreRecord(st.model, st.result))
		}
		art.Checkpoint.Models = append(art.Checkpoint.Models, ck)
	}
	return art
}

// ExploreRecord converts one model's exploration result into its
// fetchphi.explore/v1 coverage record: the single conversion behind
// both cmd/explore's artifact and a campaign's final artifact.
func ExploreRecord(model memsim.Model, res memsim.ExploreResult) obs.ExploreModel {
	em := obs.ExploreModel{
		Model:     model.String(),
		Runs:      res.Runs,
		Exhausted: res.Exhausted,
		DepthRuns: append([]int(nil), res.DepthRuns...),
	}
	if res.Err != nil {
		em.Failure = res.Err.Error()
		em.FailingSchedule = toWire(res.FailingSchedule)
	}
	return em
}

// restore loads the checkpoint artifact and rehydrates states from it.
// The checkpoint's configuration must match cfg — resuming a campaign
// under a different configuration would silently corrupt the merge.
func (c *Campaign) restore(cfg Config, states []*modelState) error {
	art, err := obs.ReadExploreArtifact(c.CheckpointPath)
	if err != nil {
		return err
	}
	if art.Checkpoint == nil {
		return fmt.Errorf("fleet: %s is not a checkpoint artifact (no checkpoint extension)", c.CheckpointPath)
	}
	if art.Algorithm != cfg.Algorithm || art.N != cfg.N || art.Entries != cfg.Entries ||
		art.Preemptions != cfg.Preemptions || art.MaxRuns != cfg.MaxRuns {
		return fmt.Errorf("fleet: checkpoint %s was written for alg=%s n=%d entries=%d preemptions=%d maxruns=%d; refusing to resume with a different configuration",
			c.CheckpointPath, art.Algorithm, art.N, art.Entries, art.Preemptions, art.MaxRuns)
	}
	if len(art.Checkpoint.Models) != len(states) {
		return fmt.Errorf("fleet: checkpoint %s covers %d models, campaign configures %d", c.CheckpointPath, len(art.Checkpoint.Models), len(states))
	}
	finals := make(map[string]obs.ExploreModel, len(art.Models))
	for _, em := range art.Models {
		finals[em.Model] = em
	}
	for i, ck := range art.Checkpoint.Models {
		st := states[i]
		if ck.Model != st.model.String() {
			return fmt.Errorf("fleet: checkpoint model %d is %q, campaign configures %q", i, ck.Model, st.model)
		}
		st.frontier = memsim.Frontier{
			Depth:     ck.NextDepth,
			Wave:      schedulesFromWire(ck.Frontier),
			Runs:      ck.Runs,
			DepthRuns: append([]int(nil), ck.DepthRuns...),
		}
		if !ck.Done {
			if err := checkFrontier(st.frontier, cfg.N); err != nil {
				return fmt.Errorf("fleet: checkpoint %s model %s: %w", c.CheckpointPath, ck.Model, err)
			}
			continue
		}
		em, ok := finals[ck.Model]
		if !ok {
			return fmt.Errorf("fleet: checkpoint marks model %s done but the artifact has no final record for it", ck.Model)
		}
		res := memsim.ExploreResult{
			Runs:      em.Runs,
			Exhausted: em.Exhausted,
			DepthRuns: append([]int(nil), em.DepthRuns...),
		}
		if em.Failure != "" {
			res.Err = errors.New(em.Failure)
			res.FailingSchedule = fromWire(em.FailingSchedule)
		}
		st.finish(res)
	}
	return nil
}

// checkFrontier rejects a restored in-progress frontier that the wave
// loop could not have written: its coverage must add up, and every
// pending schedule must hold Depth preemptions at strictly increasing,
// non-negative steps, each naming one of the n processes. Replaying a
// malformed schedule would otherwise panic deep inside the explorer.
func checkFrontier(f memsim.Frontier, n int) error {
	if len(f.DepthRuns) != f.Depth {
		return fmt.Errorf("next_depth %d but %d depth_runs entries", f.Depth, len(f.DepthRuns))
	}
	sum := 0
	for _, r := range f.DepthRuns {
		sum += r
	}
	if f.Runs != sum {
		return fmt.Errorf("runs %d but depth_runs sum to %d", f.Runs, sum)
	}
	for i, s := range f.Wave {
		if len(s) != f.Depth {
			return fmt.Errorf("frontier schedule %d has %d preemptions at next_depth %d", i, len(s), f.Depth)
		}
		for j, p := range s {
			if p.Step < 0 || (j > 0 && p.Step <= s[j-1].Step) {
				return fmt.Errorf("frontier schedule %d: preemption %d at step %d is negative or out of order", i, j, p.Step)
			}
			if p.Proc < 0 || p.Proc >= n {
				return fmt.Errorf("frontier schedule %d: preemption %d names process %d outside [0,%d)", i, j, p.Proc, n)
			}
		}
	}
	return nil
}
