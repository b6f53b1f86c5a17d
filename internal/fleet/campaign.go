package fleet

import (
	"errors"
	"fmt"
	"os"

	"fetchphi/internal/harness"
	"fetchphi/internal/memsim"
	"fetchphi/internal/obs"
)

// This file is the coordinator's campaign engine: it runs each model's
// exploration through memsim.ExploreWaves — the explorer's own wave
// loop, so the cap, canonical-prefix truncation and first-failure
// merge are Explorer.Run's by construction — and adds what is
// fleet-specific: (a) each wave is leased out to workers (execWave),
// and (b) every completed wave is persisted as a resumable checkpoint
// and capacity record. The equivalence tests pin the reports against
// harness.CheckSharded.

// modelState is one memory model's in-flight campaign state.
type modelState struct {
	model memsim.Model
	done  bool
	// frontier is the exploration after the model's last completed
	// wave. Once done only its Wave.Depth is kept: that of the last
	// wave boundary reached.
	frontier memsim.Frontier
	// result is the final exploration result (only once done).
	result memsim.ExploreResult
}

// finish seals one model's exploration.
func (st *modelState) finish(res memsim.ExploreResult) {
	st.done, st.result = true, res
	st.frontier = memsim.Frontier{Wave: memsim.Wave{Depth: st.frontier.Wave.Depth}}
}

// campaign executes (or resumes) the exploration. The returned
// reports are in harness.CheckModels order with Runs, Exhausted, DepthRuns,
// and FailingSchedule bit-identical to harness.CheckSharded over the
// same configuration; the error is the first failing model's, formatted
// by harness.CheckFailure. Like CheckSharded, reports (and the final
// artifact) are returned even when the check itself fails, so callers
// can persist capacity records for failed checks too.
func (c *Coordinator) campaign() ([]harness.ModelReport, *obs.ExploreArtifact, error) {
	models := harness.CheckModels()
	states := make([]*modelState, len(models))
	for i, m := range models {
		states[i] = &modelState{model: m, frontier: memsim.Frontier{Wave: memsim.RootWave()}}
	}
	if c.opts.CheckpointPath != "" {
		if _, statErr := os.Stat(c.opts.CheckpointPath); statErr == nil {
			if err := c.restore(states); err != nil {
				return nil, nil, err
			}
		}
	}

	ran := false
	for _, st := range states {
		if st.done {
			continue
		}
		ran = true
		if err := c.runModel(st, states); err != nil {
			return nil, nil, err
		}
	}

	// The last model's afterWave already wrote the finished campaign;
	// only one restored already complete has yet to be written.
	art := c.exploreArtifact(states)
	if !ran {
		if c.opts.CheckpointPath != "" {
			if err := art.WriteFile(c.opts.CheckpointPath); err != nil {
				return nil, nil, err
			}
		}
		if err := c.writeCapacity(true); err != nil {
			return nil, nil, err
		}
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
func (c *Coordinator) runModel(st *modelState, all []*modelState) error {
	var stopErr error
	exec := func(f memsim.Frontier) []memsim.RangeOutcome {
		if c.opts.Progress != nil {
			c.opts.Progress(st.model, memsim.ExploreProgress{Depth: f.Wave.Depth, Frontier: f.Wave.Len, Runs: f.Runs})
		}
		stop := c.opts.Metrics.Time(MetricWaveUS)
		outs, err := c.execWave(st.model, f.Wave)
		stop()
		if err != nil {
			// No outcome: ExploreWaves ends on the untiled wave,
			// and the stop's error replaces its complaint.
			stopErr = err
			return nil
		}
		c.opts.Metrics.Counter(MetricWaves).Inc()
		c.opts.Metrics.Counter(MetricSchedules).Add(int64(f.Wave.Len))
		return outs
	}
	next := func(f memsim.Frontier) error {
		st.frontier = f
		return c.afterWave(st, all)
	}
	res, err := memsim.ExploreWaves(st.frontier, c.cfg.MaxRuns, exec, next)
	if stopErr != nil {
		return stopErr
	}
	if err != nil {
		return err
	}
	st.finish(res)
	return c.afterWave(st, all)
}

// afterWave persists the checkpoint and capacity artifacts and fires
// the AfterWave hook. Once every model is done they are the finished
// campaign's, and the capacity artifact says it is complete.
func (c *Coordinator) afterWave(st *modelState, all []*modelState) error {
	if c.opts.CheckpointPath != "" {
		if err := c.exploreArtifact(all).WriteFile(c.opts.CheckpointPath); err != nil {
			return err
		}
	}
	complete := true
	for _, s := range all {
		complete = complete && s.done
	}
	if err := c.writeCapacity(complete); err != nil {
		return err
	}
	if c.opts.AfterWave != nil {
		return c.opts.AfterWave(st.model, st.frontier.Wave.Depth)
	}
	return nil
}

// writeCapacity rewrites the capacity artifact from the current
// telemetry snapshot (a no-op without a CapacityPath). Exactly one
// registry-clock read per call, at a deterministic point in the wave
// loop — the invariant that keeps fake-clock artifacts byte-identical.
func (c *Coordinator) writeCapacity(complete bool) error {
	if c.opts.CapacityPath == "" {
		return nil
	}
	return c.capacity(complete).WriteFile(c.opts.CapacityPath)
}

// capacity builds the fetchphi.capacity/v2 artifact from the
// registry: campaign-level aggregates only. Per-worker metrics stay
// out deliberately — which worker ran which lease differs run to run
// and with worker count, so admitting them would break the artifact's
// byte-identity contract — and per-model coverage is the checkpoint's.
func (c *Coordinator) capacity(complete bool) *obs.CapacityArtifact {
	cfg := c.cfg
	snap := c.opts.Metrics.Snapshot()
	art := &obs.CapacityArtifact{
		Schema:    obs.CapacitySchema,
		Algorithm: cfg.Algorithm,
		CreatedBy: c.opts.CreatedBy,
		Commit:    c.opts.Commit,
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
	return art
}

// exploreArtifact serializes the campaign state as a fetchphi.explore
// checkpoint, one row per model: a done model's result, or an
// unfinished model's coverage so far with its pending wave. The
// output contains no wall-clock fields, so identical campaign states
// serialize to identical bytes.
func (c *Coordinator) exploreArtifact(states []*modelState) *obs.ExploreArtifact {
	cfg := c.cfg
	art := &obs.ExploreArtifact{
		Schema:    obs.ExploreSchema,
		Algorithm: cfg.Algorithm,
		CreatedBy: c.opts.CreatedBy,
		Commit:    c.opts.Commit,
		N:         cfg.N, Entries: cfg.Entries, Preemptions: cfg.Preemptions,
		MaxRuns:    cfg.MaxRuns,
		Checkpoint: true,
	}
	for _, st := range states {
		if st.done {
			art.Models = append(art.Models, obs.ExploreRecord(st.model, st.result))
			continue
		}
		f := st.frontier
		art.Models = append(art.Models, obs.ExploreModel{
			Model:     st.model.String(),
			Runs:      f.Runs,
			DepthRuns: append([]int{}, f.DepthRuns...),
			Pending:   &obs.ExplorePending{NextDepth: f.Wave.Depth, Frontier: f.Wave.Slab},
		})
	}
	return art
}

// restore loads the checkpoint artifact and rehydrates states from it.
// The checkpoint's configuration must match the coordinator's —
// resuming under a different configuration would silently corrupt the
// merge.
func (c *Coordinator) restore(states []*modelState) error {
	cfg, path := c.cfg, c.opts.CheckpointPath
	art, err := obs.ReadExploreArtifact(path)
	if err != nil {
		return err
	}
	if !art.Checkpoint {
		return fmt.Errorf("fleet: %s is not a checkpoint artifact (no checkpoint mark)", path)
	}
	if art.Algorithm != cfg.Algorithm || art.N != cfg.N || art.Entries != cfg.Entries ||
		art.Preemptions != cfg.Preemptions || art.MaxRuns != cfg.MaxRuns {
		return fmt.Errorf("fleet: checkpoint %s was written for alg=%s n=%d entries=%d preemptions=%d maxruns=%d; refusing to resume with a different configuration",
			path, art.Algorithm, art.N, art.Entries, art.Preemptions, art.MaxRuns)
	}
	if len(art.Models) != len(states) {
		return fmt.Errorf("fleet: checkpoint %s covers %d models, campaign configures %d", path, len(art.Models), len(states))
	}
	for i, em := range art.Models {
		st := states[i]
		if em.Model != st.model.String() {
			return fmt.Errorf("fleet: checkpoint model %d is %q, campaign configures %q", i, em.Model, st.model)
		}
		if em.Pending != nil {
			f, err := frontierFromWire(em, cfg.N)
			if err != nil {
				return fmt.Errorf("fleet: checkpoint %s model %s: %w", path, em.Model, err)
			}
			st.frontier = f
			continue
		}
		res := memsim.ExploreResult{
			Runs:      em.Runs,
			Exhausted: em.Exhausted,
			DepthRuns: append([]int(nil), em.DepthRuns...),
		}
		if em.Failure != "" {
			res.Err = errors.New(em.Failure)
			res.FailingSchedule = em.FailingSchedule
		}
		st.finish(res)
	}
	return nil
}

// frontierFromWire rebuilds an unfinished model's frontier from its
// row, rejecting one the wave loop could not have written: its
// coverage must add up, and the pending wave — the root schedule alone
// at depth 0, else the frontier's pairs NextDepth a schedule — must
// pass the check a worker applies to a lease (checkSchedules).
// Replaying a malformed schedule would otherwise fail deep inside the
// explorer.
func frontierFromWire(em obs.ExploreModel, n int) (memsim.Frontier, error) {
	depth, slab := em.Pending.NextDepth, em.Pending.Frontier
	if len(em.DepthRuns) != depth {
		return memsim.Frontier{}, fmt.Errorf("next_depth %d but %d depth_runs entries", depth, len(em.DepthRuns))
	}
	sum := 0
	for _, r := range em.DepthRuns {
		sum += r
	}
	if em.Runs != sum {
		return memsim.Frontier{}, fmt.Errorf("runs %d but depth_runs sum to %d", em.Runs, sum)
	}
	w := memsim.RootWave()
	if depth > 0 {
		w = memsim.Wave{Depth: depth, Len: len(slab) / depth, Slab: slab}
	}
	if err := checkSchedules(slab, depth, w.Len, n); err != nil {
		return memsim.Frontier{}, fmt.Errorf("frontier %w", err)
	}
	return memsim.Frontier{Wave: w, Runs: em.Runs, DepthRuns: append([]int(nil), em.DepthRuns...)}, nil
}
