package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"fetchphi/internal/harness"
	"fetchphi/internal/memsim"
	"fetchphi/internal/obs"
	"fetchphi/internal/telemetry"
)

// TestCampaignRejectsCorruptCheckpoint: a checkpoint whose config
// matches but whose unfinished model's row the wave loop could not
// have written is refused with an error naming the file and the model,
// instead of replaying a malformed schedule into an explorer panic. A
// checkpoint of an older schema is refused for its tag.
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
	cc := good.Models[0]
	if cc.Model != "CC" || cc.Pending == nil || cc.Pending.NextDepth != 1 || len(cc.Pending.Frontier) == 0 {
		t.Fatalf("seed checkpoint is not CC in progress at depth 1: %+v", cc)
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
	// v2 is the same checkpoint as the previous schema spelled it: an
	// extension holding each model's resume point beside the rows.
	frontierWords, err := json.Marshal(cc.Pending.Frontier)
	if err != nil {
		t.Fatal(err)
	}
	v2 := fmt.Sprintf(`{"schema": "fetchphi.explore/v2", "algorithm": %q, "n": %d, "entries": %d, "preemptions": %d, "max_runs": %d, "workers": 0, "models": null,
		"checkpoint": {"complete": false, "models": [{"model": "CC", "done": false, "next_depth": 1, "frontier": %s, "runs": %d, "depth_runs": [%d]},
		{"model": "DSM", "done": false, "next_depth": 0, "runs": 0}]}}`,
		good.Algorithm, good.N, good.Entries, good.Preemptions, good.MaxRuns, frontierWords, cc.Runs, cc.Runs)
	depth2 := func(em *obs.ExploreModel) { em.Pending.NextDepth, em.DepthRuns, em.Runs = 2, []int{1, 1}, 2 }
	for _, tc := range []struct {
		name   string
		mutate func(em *obs.ExploreModel)
		raw    []byte // the file's bytes instead, refused as it is read
		want   string // what the error names besides the file
	}{
		{name: "depth-runs-length", mutate: func(em *obs.ExploreModel) { em.DepthRuns = []int{1, 5} }},
		{name: "runs-sum", mutate: func(em *obs.ExploreModel) { em.Runs = 99 }},
		{name: "schedule-too-short", mutate: func(em *obs.ExploreModel) { depth2(em); em.Pending.Frontier = pairs(3, 1) }},
		{name: "schedule-too-long", mutate: func(em *obs.ExploreModel) { depth2(em); em.Pending.Frontier = pairs(3, 1, 5, 0, 7, 1) }},
		{name: "negative-step", mutate: func(em *obs.ExploreModel) { em.Pending.Frontier = pairs(-1, 1) }},
		{name: "steps-not-increasing", mutate: func(em *obs.ExploreModel) { depth2(em); em.Pending.Frontier = pairs(3, 1, 3, 0) }},
		{name: "proc-too-large", mutate: func(em *obs.ExploreModel) { em.Pending.Frontier = pairs(3, 7) }},
		{name: "proc-negative", mutate: func(em *obs.ExploreModel) { em.Pending.Frontier = pairs(3, -1) }},
		{name: "frontier-at-depth-0", mutate: func(em *obs.ExploreModel) {
			em.Pending.NextDepth, em.DepthRuns, em.Runs = 0, nil, 0
			em.Pending.Frontier = pairs(3, 1)
		}},
		{name: "odd-word-count", raw: frontier(`[3, 1, 5]`), want: "step/proc pairs"},
		{name: "word-not-an-integer", raw: frontier(`[3.5, 1]`), want: "array of integers"},
		// The v1 form of the same checkpoint: one object per preemption.
		{name: "schema-v1", raw: bytes.Replace(frontier(`[[{"step": 3, "proc": 1}]]`),
			[]byte(`"fetchphi.explore/v3"`), []byte(`"fetchphi.explore/v1"`), 1), want: `schema "fetchphi.explore/v1"`},
		{name: "schema-v2", raw: []byte(v2), want: `schema "fetchphi.explore/v2"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			badPath := filepath.Join(t.TempDir(), "bad.json")
			data, want := tc.raw, tc.want
			if tc.mutate != nil {
				bad, err := obs.ReadExploreArtifact(path)
				if err != nil {
					t.Fatal(err)
				}
				tc.mutate(&bad.Models[0])
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
			if n := coord.Metrics().Counter(MetricLeases).Value(); n != 0 {
				t.Fatalf("refused checkpoint still granted %d leases", n)
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
	root, err := frontierFromWire(obs.ExploreModel{Model: "CC", Pending: &obs.ExplorePending{}}, 2)
	if err != nil || !reflect.DeepEqual(root.Wave, memsim.RootWave()) || root.Runs != 0 || len(root.DepthRuns) != 0 {
		t.Fatalf("root frontier restored as %+v, %v; want the root wave", root, err)
	}
	slab := obs.Pairs{{Step: 3, Proc: 1}, {Step: 9, Proc: 0}, {Step: 3, Proc: 1}, {Step: 11, Proc: 0}}
	f, err := frontierFromWire(obs.ExploreModel{Model: "DSM", Runs: 46, DepthRuns: []int{1, 45}, Pending: &obs.ExplorePending{NextDepth: 2, Frontier: slab}}, 2)
	want := memsim.Wave{Depth: 2, Len: 2, Slab: slab}
	if err != nil || !reflect.DeepEqual(f.Wave, want) || &f.Wave.Slab[0] != &slab[0] || f.Runs != 46 {
		t.Fatalf("depth-2 frontier restored as %+v, %v; want %+v over the same slab", f, err, want)
	}
}

// TestCampaignRowsMatchExplore: a finished campaign's rows are
// byte-identical to the rows cmd/explore writes for the same check
// (obs.ExploreRecord over harness.CheckSharded's reports), on a passing
// space, a failing one and a capped one.
func TestCampaignRowsMatchExplore(t *testing.T) {
	for _, fx := range []struct {
		name    string
		build   harness.Builder
		maxRuns int
	}{{"correct", newTASLock, 0}, {"broken", newBrokenLock, 0}, {"capped", newTASLock, 7}} {
		t.Run(fx.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := testConfig()
			cfg.MaxRuns = fx.maxRuns
			campaign := filepath.Join(dir, "campaign.json")
			coord := NewCoordinator(cfg, CoordinatorOptions{CheckpointPath: campaign})
			if _, err := CheckWith(coord, fx.build, CheckOptions{}); (err != nil) != (fx.name == "broken") {
				t.Fatalf("campaign: %v", err)
			}
			reports, _ := harness.CheckSharded(fx.build, cfg.N, cfg.Entries,
				harness.ExploreOptions{Preemptions: cfg.Preemptions, MaxRuns: fx.maxRuns, Workers: 1})
			ref := &obs.ExploreArtifact{Algorithm: cfg.Algorithm, CreatedBy: "cmd/explore", Workers: 1}
			for _, r := range reports {
				ref.Models = append(ref.Models, obs.ExploreRecord(r.Model, r.Result))
			}
			explore := filepath.Join(dir, "explore.json")
			if err := ref.WriteFile(explore); err != nil {
				t.Fatal(err)
			}
			got, want := rawModels(t, campaign), rawModels(t, explore)
			if !bytes.Equal(got, want) {
				t.Fatalf("campaign rows differ from cmd/explore's:\n%s\nwant\n%s", got, want)
			}
		})
	}
}

// rawModels returns an artifact file's models array as written.
func rawModels(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var art struct {
		Models json.RawMessage `json:"models"`
	}
	if err := json.Unmarshal(data, &art); err != nil {
		t.Fatal(err)
	}
	return art.Models
}

// TestFinishedCampaignWrittenOnce: the checkpoint and capacity
// artifact written after the last model's final wave are the finished
// campaign's, and nothing rewrites them (under a step clock a second
// capacity write would move elapsed_ms); earlier writes are marked
// incomplete. A campaign restored already complete runs no wave, so it
// writes both once at the end, the checkpoint unchanged.
func TestFinishedCampaignWrittenOnce(t *testing.T) {
	dir := t.TempDir()
	ckPath, capPath := filepath.Join(dir, "ck.json"), filepath.Join(dir, "cap.json")
	read := func(path string) []byte {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	complete := func(capacity []byte) bool {
		t.Helper()
		var art obs.CapacityArtifact
		if err := json.Unmarshal(capacity, &art); err != nil {
			t.Fatal(err)
		}
		return art.Complete
	}
	var lastCk, lastCap []byte
	waves, incomplete := 0, 0
	opts := func(afterWave func(memsim.Model, int) error) CoordinatorOptions {
		return CoordinatorOptions{
			LeaseSize: 5, CheckpointPath: ckPath, CapacityPath: capPath, CreatedBy: "once",
			Metrics:   telemetry.New(newStepClock(time.Millisecond).Now),
			AfterWave: afterWave,
		}
	}
	coord := NewCoordinator(testConfig(), opts(func(memsim.Model, int) error {
		if lastCap != nil && !complete(lastCap) {
			incomplete++
		}
		waves++
		lastCk, lastCap = read(ckPath), read(capPath)
		return nil
	}))
	if _, err := CheckWith(coord, newTASLock, CheckOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if incomplete != waves-1 {
		t.Errorf("%d of the %d writes before the last were marked complete", waves-1-incomplete, waves-1)
	}
	if !complete(lastCap) {
		t.Error("the capacity artifact written after the last wave is not complete")
	}
	if !bytes.Equal(read(ckPath), lastCk) || !bytes.Equal(read(capPath), lastCap) {
		t.Error("the finished campaign was written again after its last wave")
	}

	if err := os.Remove(capPath); err != nil {
		t.Fatal(err)
	}
	restored := NewCoordinator(testConfig(), opts(func(memsim.Model, int) error {
		t.Error("a campaign restored complete ran a wave")
		return nil
	}))
	if _, err := CheckWith(restored, newTASLock, CheckOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(read(ckPath), lastCk) {
		t.Error("a campaign restored complete rewrote its checkpoint differently")
	}
	if !complete(read(capPath)) {
		t.Error("a campaign restored complete wrote no complete capacity artifact")
	}
}
