package obs_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"fetchphi/internal/claims"
	"fetchphi/internal/obs"
)

// FuzzReadArtifacts feeds arbitrary bytes to every artifact reader:
// whatever a file holds — truncated, foreign, or hostile JSON — a
// reader returns an artifact or an error, and never panics. The seeds
// are the checked-in baselines, then one sample of each schema that has
// no baseline: an explore checkpoint with a failed model's row and an
// unfinished model's row with its pending frontier, each model spelled
// once, a capacity artifact and a trace.
func FuzzReadArtifacts(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("..", "..", "bench", "baseline", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	capacity := &obs.CapacityArtifact{Schema: obs.CapacitySchema, Algorithm: "g-dsm", N: 2, Entries: 2, Preemptions: 2,
		Complete: true, Waves: 3, Schedules: 300, Leases: 10, ReLeases: 1, ReLeaseRate: 0.1}
	capacity.WaveUS.Observe(2000)
	for _, v := range []any{
		&obs.ExploreArtifact{Schema: obs.ExploreSchema, Algorithm: "broken", N: 2, Entries: 2, Preemptions: 2, MaxRuns: 100,
			Checkpoint: true,
			Models: []obs.ExploreModel{
				{Model: "CC", Runs: 7, DepthRuns: []int{1, 6}, Failure: "violation",
					FailingSchedule: obs.Pairs{{Step: 3, Proc: 1}}},
				{Model: "DSM", Runs: 4, DepthRuns: []int{1, 3}, Pending: &obs.ExplorePending{NextDepth: 2,
					Frontier: obs.Pairs{{Step: 3, Proc: 1}, {Step: 9, Proc: 0}, {Step: 4, Proc: 0}, {Step: 7, Proc: 1}}}},
			}},
		capacity,
		&obs.TraceArtifact{Schema: obs.TraceSchema, Kind: "recording", Algorithm: "g-dsm", Model: "DSM", N: 2, Steps: 12,
			Spans: []obs.TraceSpan{{Proc: 0, Kind: "entry", Start: 1, End: 4, RMRs: 2, Vars: []string{"Queue"}},
				{Proc: 1, Kind: "spin", Start: 5, End: 9, Open: true}}},
	} {
		data, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "artifact.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		obs.ReadArtifact(path)
		obs.ReadTraceArtifact(path)
		obs.ReadLintArtifact(path)
		obs.ReadStressArtifact(path)
		obs.ReadCapacityArtifact(path)
		obs.ReadExploreArtifact(path)
		claims.ReadArtifact(path)
		obs.ReadArtifactDir(dir)
	})
}

// FuzzWriteJSON: for any value decoded from JSON, and for any string,
// WriteJSON writes exactly json.MarshalIndent(v, "", "  ") and a
// newline. The seeds are the checked-in baselines and a few small
// documents, which mutate faster.
func FuzzWriteJSON(f *testing.F) {
	for _, doc := range []string{`{}`, `[[],{},[{}]]`, `{"a\"{":["\\",null,-1.5e9,"<&>"]}`} {
		f.Add([]byte(doc))
	}
	seeds, err := filepath.Glob(filepath.Join("..", "..", "bench", "baseline", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		values := []any{map[string]any{"s": string(data), "a": []any{string(data), map[string]any{}}}}
		var v any
		if json.Unmarshal(data, &v) == nil {
			values = append(values, v)
		}
		path := filepath.Join(t.TempDir(), "artifact.json")
		for _, v := range values {
			want, err := json.MarshalIndent(v, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, '\n')
			if err := obs.WriteJSON(path, v); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("WriteJSON wrote\n%s\nwant\n%s", got, want)
			}
		}
	})
}
