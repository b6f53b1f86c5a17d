package fleet

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"fetchphi/internal/memsim"
	"fetchphi/internal/obs"
)

// TestCampaignRejectsCorruptCheckpoint: a checkpoint whose config
// matches but whose in-progress model the wave loop could not have
// written is refused with an error naming the file and the model,
// instead of replaying a malformed schedule into an explorer panic.
func TestCampaignRejectsCorruptCheckpoint(t *testing.T) {
	cfg := testConfig()
	dir := t.TempDir()

	// A genuine resume point: CC stopped after its first wave, so it
	// is in progress at next_depth 1 with depth_runs [1].
	path := filepath.Join(dir, "ckpt.json")
	stop := errors.New("stop")
	seed := NewCoordinator(cfg, CoordinatorOptions{CheckpointPath: path,
		AfterWave: func(memsim.Model, int) error { return stop }})
	if _, err := CheckWith(seed, newTASLock, CheckOptions{}); !errors.Is(err, stop) {
		t.Fatalf("seed run ended with %v", err)
	}
	good, err := obs.ReadExploreArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck := good.Checkpoint.Models[0]; ck.Model != "CC" || ck.Done || ck.NextDepth != 1 || len(ck.Frontier) == 0 {
		t.Fatalf("seed checkpoint is not CC in progress at depth 1: %+v", ck)
	}

	sched := func(pre ...obs.ExplorePreemption) [][]obs.ExplorePreemption { return [][]obs.ExplorePreemption{pre} }
	pre := func(step int64, proc int) obs.ExplorePreemption { return obs.ExplorePreemption{Step: step, Proc: proc} }
	for _, tc := range []struct {
		name   string
		mutate func(ck *obs.ExploreModelCheckpoint)
	}{
		{"depth-runs-length", func(ck *obs.ExploreModelCheckpoint) { ck.DepthRuns = []int{1, 5} }},
		{"runs-sum", func(ck *obs.ExploreModelCheckpoint) { ck.Runs = 99 }},
		{"schedule-too-short", func(ck *obs.ExploreModelCheckpoint) { ck.Frontier = sched() }},
		{"schedule-too-long", func(ck *obs.ExploreModelCheckpoint) { ck.Frontier = sched(pre(3, 1), pre(5, 0)) }},
		{"negative-step", func(ck *obs.ExploreModelCheckpoint) { ck.Frontier = sched(pre(-1, 1)) }},
		{"steps-not-increasing", func(ck *obs.ExploreModelCheckpoint) {
			ck.NextDepth, ck.DepthRuns, ck.Runs = 2, []int{1, 1}, 2
			ck.Frontier = sched(pre(3, 1), pre(3, 0))
		}},
		{"proc-too-large", func(ck *obs.ExploreModelCheckpoint) { ck.Frontier = sched(pre(3, 7)) }},
		{"proc-negative", func(ck *obs.ExploreModelCheckpoint) { ck.Frontier = sched(pre(3, -1)) }},
		{"root-schedule-twice", func(ck *obs.ExploreModelCheckpoint) {
			ck.NextDepth, ck.DepthRuns, ck.Runs = 0, nil, 0
			ck.Frontier = [][]obs.ExplorePreemption{nil, nil}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad, err := obs.ReadExploreArtifact(path)
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(&bad.Checkpoint.Models[0])
			badPath := filepath.Join(t.TempDir(), "bad.json")
			if err := bad.WriteFile(badPath); err != nil {
				t.Fatal(err)
			}
			// The restore error surfaces from Run before any lease.
			coord := NewCoordinator(cfg, CoordinatorOptions{CheckpointPath: badPath})
			_, err = coord.Run()
			if err == nil || !strings.Contains(err.Error(), badPath) || !strings.Contains(err.Error(), "model CC") {
				t.Fatalf("corrupt checkpoint: err = %v, want an error naming %s and model CC", err, badPath)
			}
			if log := coord.LeaseLog(); len(log) != 0 {
				t.Fatalf("refused checkpoint still leased: %+v", log)
			}
		})
	}

	// The unmutated checkpoint still resumes: the rejections above are
	// the mutations', not the seed's.
	resume := NewCoordinator(cfg, CoordinatorOptions{CheckpointPath: path})
	if _, err := CheckWith(resume, newTASLock, CheckOptions{}); err != nil {
		t.Fatalf("well-formed checkpoint refused: %v", err)
	}
}
