package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func sampleExplore() *ExploreArtifact {
	return &ExploreArtifact{
		Algorithm: "g-dsm", CreatedBy: "test",
		N: 2, Entries: 2, Preemptions: 2, MaxRuns: 500_000, Workers: 8,
		Models: []ExploreModel{
			{Model: "CC", Runs: 1234, Exhausted: true, DepthRuns: []int{1, 45, 1188}},
			{Model: "DSM", Runs: 987, Exhausted: true, DepthRuns: []int{1, 40, 946}},
		},
		WallMS: 41.5, SchedulesPerSec: 53500,
	}
}

func TestExploreArtifactRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "nested", ExploreArtifactName("g-dsm"))
	art := sampleExplore()
	if err := art.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadExploreArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != ExploreSchema {
		t.Fatalf("schema = %q", got.Schema)
	}
	if !reflect.DeepEqual(got, art) {
		t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, art)
	}
	if got.TotalRuns() != 1234+987 {
		t.Fatalf("TotalRuns = %d", got.TotalRuns())
	}
	if !got.AllExhausted() {
		t.Fatal("AllExhausted = false")
	}
	if leftover, _ := filepath.Glob(filepath.Join(dir, "nested", "*.tmp")); len(leftover) != 0 {
		t.Fatalf("temp files left behind: %v", leftover)
	}
}

func TestExploreArtifactRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"schema":"fetchphi.bench/v1"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadExploreArtifact(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("wrong schema accepted: %v", err)
	}
	if err := os.WriteFile(path, []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadExploreArtifact(path); err == nil {
		t.Fatal("unparseable artifact accepted")
	}
}

func TestExploreArtifactNameFlattensVariants(t *testing.T) {
	if got := ExploreArtifactName("g-cc/fas"); got != "EXPLORE_g-cc-fas.json" {
		t.Fatalf("ExploreArtifactName = %q", got)
	}
	if strings.ContainsAny(ExploreArtifactName("t/fas"), "/") {
		t.Fatal("artifact name contains a path separator")
	}
}

func TestExploreAllExhausted(t *testing.T) {
	a := sampleExplore()
	a.Models[1].Exhausted = false
	if a.AllExhausted() {
		t.Fatal("AllExhausted true with a non-exhausted model")
	}
	empty := &ExploreArtifact{}
	if empty.AllExhausted() {
		t.Fatal("AllExhausted true with no models")
	}
}

// TestReadArtifactDirSkipsExploreArtifacts: the bench-artifact loader
// must keep skipping foreign schemas when explore artifacts sit in the
// same directory.
func TestReadArtifactDirSkipsExploreArtifacts(t *testing.T) {
	dir := t.TempDir()
	if err := sampleExplore().WriteFile(filepath.Join(dir, ExploreArtifactName("g-dsm"))); err != nil {
		t.Fatal(err)
	}
	bench := &Artifact{Experiment: "E1"}
	if err := bench.WriteFile(filepath.Join(dir, ArtifactName("E1"))); err != nil {
		t.Fatal(err)
	}
	arts, err := ReadArtifactDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) != 1 || arts[0].Experiment != "E1" {
		t.Fatalf("ReadArtifactDir = %+v", arts)
	}
}

// TestExploreCheckpointRoundTrip pins the resumable-campaign
// extension: a pending root wave is written with no frontier at all, a
// depth-2 frontier is the wave's slab as flat step/proc pairs and reads
// back as the same slab, and a failing schedule keeps its nil-ness —
// the root schedule stays nil through JSON, so replayed
// FailingSchedules stay bit-identical.
func TestExploreCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	art := sampleExplore()
	art.Models = []ExploreModel{
		{Model: "PRAM", Runs: 1, DepthRuns: []int{1}, Failure: "root fails"},
		{Model: "CC-update", Runs: 3, DepthRuns: []int{1, 2}, Failure: "boom",
			FailingSchedule: Pairs{{Step: 4, Proc: 1}}},
	}
	art.WallMS, art.SchedulesPerSec = 0, 0
	art.Checkpoint = &ExploreCheckpoint{
		Models: []ExploreModelCheckpoint{
			{Model: "CC", NextDepth: 0},
			{Model: "DSM", NextDepth: 2, Runs: 46, DepthRuns: []int{1, 45},
				Frontier: Pairs{{Step: 3, Proc: 1}, {Step: 9, Proc: 0}, {Step: 3, Proc: 1}, {Step: 11, Proc: 0}}},
		},
	}
	if err := art.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadExploreArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Checkpoint, art.Checkpoint) || !reflect.DeepEqual(got.Models, art.Models) {
		t.Fatalf("checkpoint round trip diverged:\n got %+v %+v\nwant %+v %+v", got.Checkpoint, got.Models, art.Checkpoint, art.Models)
	}
	if got.Checkpoint.Models[0].Frontier != nil || got.Models[0].FailingSchedule != nil {
		t.Fatal("the root wave's frontier or the root failing schedule did not stay nil through JSON")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, data); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"frontier":[3,1,9,0,3,1,11,0]`, `"failing_schedule":[4,1]`, `"frontier":`, `"failing_schedule":`} {
		if strings.Count(compact.String(), want) != 1 {
			t.Fatalf("want %s once in the serialized artifact:\n%s", want, compact.String())
		}
	}
}
