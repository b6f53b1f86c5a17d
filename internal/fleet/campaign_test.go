package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
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

	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// frontier replaces CC's frontier, the only one in the seed file,
	// in the file's own bytes: the malformed frontiers below do not
	// decode, so they cannot be written through the artifact type.
	frontier := func(words string) []byte {
		re := regexp.MustCompile(`"frontier": \[[^\]]*\]`)
		if n := len(re.FindAll(orig, -1)); n != 1 {
			t.Fatalf("seed checkpoint holds %d frontiers, want 1", n)
		}
		return re.ReplaceAll(orig, []byte(`"frontier": `+words))
	}
	pairs := func(words ...int64) obs.Pairs {
		var p obs.Pairs
		for i := 0; i < len(words); i += 2 {
			p = append(p, memsim.Preemption{Step: words[i], Proc: int(words[i+1])})
		}
		return p
	}
	depth2 := func(ck *obs.ExploreModelCheckpoint) { ck.NextDepth, ck.DepthRuns, ck.Runs = 2, []int{1, 1}, 2 }
	for _, tc := range []struct {
		name   string
		mutate func(ck *obs.ExploreModelCheckpoint)
		raw    []byte // the file's bytes instead, refused as it is read
		want   string // what the error names besides the file
	}{
		{name: "depth-runs-length", mutate: func(ck *obs.ExploreModelCheckpoint) { ck.DepthRuns = []int{1, 5} }},
		{name: "runs-sum", mutate: func(ck *obs.ExploreModelCheckpoint) { ck.Runs = 99 }},
		{name: "schedule-too-short", mutate: func(ck *obs.ExploreModelCheckpoint) { depth2(ck); ck.Frontier = pairs(3, 1) }},
		{name: "schedule-too-long", mutate: func(ck *obs.ExploreModelCheckpoint) { depth2(ck); ck.Frontier = pairs(3, 1, 5, 0, 7, 1) }},
		{name: "negative-step", mutate: func(ck *obs.ExploreModelCheckpoint) { ck.Frontier = pairs(-1, 1) }},
		{name: "steps-not-increasing", mutate: func(ck *obs.ExploreModelCheckpoint) { depth2(ck); ck.Frontier = pairs(3, 1, 3, 0) }},
		{name: "proc-too-large", mutate: func(ck *obs.ExploreModelCheckpoint) { ck.Frontier = pairs(3, 7) }},
		{name: "proc-negative", mutate: func(ck *obs.ExploreModelCheckpoint) { ck.Frontier = pairs(3, -1) }},
		{name: "frontier-at-depth-0", mutate: func(ck *obs.ExploreModelCheckpoint) {
			ck.NextDepth, ck.DepthRuns, ck.Runs = 0, nil, 0
			ck.Frontier = pairs(3, 1)
		}},
		{name: "odd-word-count", raw: frontier(`[3, 1, 5]`), want: "step/proc pairs"},
		{name: "word-not-an-integer", raw: frontier(`[3.5, 1]`), want: "array of integers"},
		// The v1 form of the same checkpoint: one object per preemption.
		{name: "schema-v1", raw: bytes.Replace(frontier(`[[{"step": 3, "proc": 1}]]`),
			[]byte(`"fetchphi.explore/v2"`), []byte(`"fetchphi.explore/v1"`), 1), want: `schema "fetchphi.explore/v1"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			badPath := filepath.Join(t.TempDir(), "bad.json")
			data, want := tc.raw, tc.want
			if tc.mutate != nil {
				bad, err := obs.ReadExploreArtifact(path)
				if err != nil {
					t.Fatal(err)
				}
				tc.mutate(&bad.Checkpoint.Models[0])
				if data, err = json.Marshal(bad); err != nil {
					t.Fatal(err)
				}
				want = "model CC"
			}
			if err := os.WriteFile(badPath, data, 0o644); err != nil {
				t.Fatal(err)
			}
			// The restore error surfaces from Run before any lease.
			coord := NewCoordinator(cfg, CoordinatorOptions{CheckpointPath: badPath})
			_, err = coord.Run()
			if err == nil || !strings.Contains(err.Error(), badPath) || !strings.Contains(err.Error(), want) {
				t.Fatalf("corrupt checkpoint: err = %v, want an error naming %s and %q", err, badPath, want)
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

// TestCheckpointFrontierRestores: a checkpoint's frontier reads back as
// the wave it was written from — a pending root wave, which has no
// frontier, as memsim.RootWave(), and a depth-2 frontier as the same
// slab, not a copy.
func TestCheckpointFrontierRestores(t *testing.T) {
	root, err := frontierFromWire(obs.ExploreModelCheckpoint{Model: "CC"}, 2)
	if err != nil || !reflect.DeepEqual(root.Wave, memsim.RootWave()) || root.Runs != 0 || len(root.DepthRuns) != 0 {
		t.Fatalf("root frontier restored as %+v, %v; want the root wave", root, err)
	}
	slab := obs.Pairs{{Step: 3, Proc: 1}, {Step: 9, Proc: 0}, {Step: 3, Proc: 1}, {Step: 11, Proc: 0}}
	f, err := frontierFromWire(obs.ExploreModelCheckpoint{Model: "DSM", NextDepth: 2, Runs: 46, DepthRuns: []int{1, 45}, Frontier: slab}, 2)
	want := memsim.Wave{Depth: 2, Len: 2, Slab: slab}
	if err != nil || !reflect.DeepEqual(f.Wave, want) || &f.Wave.Slab[0] != &slab[0] || f.Runs != 46 {
		t.Fatalf("depth-2 frontier restored as %+v, %v; want %+v over the same slab", f, err, want)
	}
}
